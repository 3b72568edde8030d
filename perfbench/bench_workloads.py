"""Workload definitions: seeded inputs and the `optithresh optimize` calls of a pass.

Each workload writes its inputs (run configs and, for ``csv-semi``, a CGM CSV)
from the seed before any timing starts, and returns a plan that the pass
process executes.  The program sees only these generated files.

Sizes keep the paper's quantile grid (M=200) and the 361 integer levels of
CSV input, but use a 5 mg/dL cutoff grid for the simulations (J=71, which
still holds 70, 180 and 250) and small cohorts, so that one fresh-process
pass takes about three seconds.  A run then repeats a pass a dozen times
and reports medians.  DE runs
a fixed number of generations (``convergence_tol`` 0) so that the work done
does not depend on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_SIZE = 200
FIXED_CGM = (70.0, 181.0)
START_EPOCH = 1_704_067_200  # 2024-01-01T00:00:00Z
READING_S = 300
PER_DAY = 86_400 // READING_S


@dataclass(frozen=True)
class Size:
    sim_subjects: int = 40
    sim_l2_subjects: int = 100
    sim_obs: int = 1000
    sim_cutoffs: tuple = tuple(float(c) for c in range(45, 400, 5))
    sim_de_generations: int = 50
    csv_subjects: int = 60
    csv_short_wear: int = 4
    csv_days: int = 14
    csv_de_generations: int = 40


FULL = Size()
#: For the benchmark's own smoke tests.
TINY = Size(
    sim_subjects=6,
    sim_l2_subjects=6,
    sim_obs=200,
    sim_cutoffs=tuple(float(c) for c in range(50, 391, 10)),
    sim_de_generations=3,
    csv_subjects=4,
    csv_short_wear=1,
    csv_days=2,
    csv_de_generations=3,
)

WHY = {
    "sim-l1": "setting-1 cohort, L1 loss: DE, SA, SS and exhaustive search, where linearization "
    "(interp_rows) and solver loops do the work and pdist does none",
    "sim-l2": "setting-2 noisy cohort: SA on L2 and the PAA baseline, where per-candidate pdist "
    "calls dominate and linearization is small",
    "csv-semi": "CGM CSV with bad rows, clamps and short wears, DE with fixed 70/181 on 361-level "
    "histograms: CSV ingestion and interp_rows anchor queries each take about a third of the pass",
}


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _invocation(config_path, method, seed, k, loss=None, fixed=(), cohort="binned") -> dict:
    args = ["optimize", "--config", config_path, "--method", method, "--k", str(k), "--seed", str(seed)]
    if loss is not None:
        args += ["--loss", loss]
    if fixed:
        args += ["--fixed", ",".join(f"{v:g}" for v in fixed)]
    return {
        "name": method,
        "method": method,
        "args": args,
        "cohort": cohort,
        "loss": loss,
        "fixed": [float(v) for v in fixed],
    }


def _mixture(size: Size, n_subjects: int, **extra) -> dict:
    return {
        "n_subjects": n_subjects,
        "obs_per_subject": size.sim_obs,
        "histogram_cutoffs": list(size.sim_cutoffs),
        **extra,
    }


def _sim_l1(seed: int, inputs: Path, size: Size) -> dict:
    source = {"kind": "simulation", "mixture": _mixture(size, size.sim_subjects), "seed": seed}
    de = {"max_generations": size.sim_de_generations, "convergence_tol": 0.0}
    config = _write_json(inputs / "sim-l1.json", {"input": source, "grid_size": GRID_SIZE, "de": de})
    return {
        "input": source,
        "invocations": [
            _invocation(config, "de", seed, 3, "l1", cohort="empirical"),
            _invocation(config, "sa", seed, 3, "l1"),
            _invocation(config, "ss", seed, 3, "l1"),
            _invocation(config, "exhaustive", seed, 3, "l1", fixed=(70.0,)),
        ],
    }


def _sim_l2(seed: int, inputs: Path, size: Size) -> dict:
    mixture = _mixture(size, size.sim_l2_subjects, weight_scheme="setting2", noise_sd=5.0)
    source = {"kind": "simulation", "mixture": mixture, "seed": seed}
    config = _write_json(inputs / "sim-l2.json", {"input": source, "grid_size": GRID_SIZE})
    return {
        "input": source,
        "invocations": [
            _invocation(config, "sa", seed, 2, "l2"),
            _invocation(config, "paa", seed, 2),
        ],
    }


def write_cgm_csv_input(path: Path, seed: int, size: Size) -> None:
    """Seeded CGM readings in the shape real exports have, imperfections included.

    Every subject gets 5-minute integer readings from a daily cycle plus an
    AR(1) excursion, some of which leave 40-400 and are clamped on ingestion.
    ``csv_short_wear`` extra subjects wear the sensor three days with half the
    readings missing, so the inclusion rule drops them.  About one row in two
    thousand is malformed (no id, unparseable time or value, NaN) and as many
    repeat an earlier timestamp; ``on_bad_row: skip`` drops both kinds.
    """
    from scipy.signal import lfilter

    rng = np.random.default_rng([seed, 7])
    lines = []
    for s in range(size.csv_subjects + size.csv_short_wear):
        short = s >= size.csv_subjects
        n = (3 if short else size.csv_days) * PER_DAY
        idx = np.arange(n)
        if short:
            idx = idx[rng.random(n) < 0.5]
        level, swing, sd = rng.uniform(110, 190), rng.uniform(10, 35), rng.uniform(4, 9)
        walk = lfilter([1.0], [1.0, -0.98], sd * rng.standard_normal(n))[idx]
        values = np.rint(level + walk + swing * np.sin(2 * np.pi * idx / PER_DAY)).astype(np.int64)
        stamps = START_EPOCH + int(rng.integers(0, PER_DAY)) * READING_S + idx * READING_S
        sid = f"s{s:04d}"
        lines += [f"{sid},{t},{v}" for t, v in zip(stamps.tolist(), values.tolist())]
    n_odd = max(2, len(lines) // 2000)
    for pos, kind in zip(rng.choice(len(lines), size=2 * n_odd, replace=False), range(2 * n_odd)):
        sid, stamp, value = lines[pos].split(",")
        if kind < n_odd:
            lines[pos] += "\n" + [
                f",{stamp},{value}",
                f"{sid},not-a-time,{value}",
                f"{sid},{stamp},HI",
                f"{sid},{int(stamp) + 1},nan",
            ][kind % 4]
        else:
            lines[pos] += f"\n{sid},{stamp},{int(value) + 3}"
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("id,time,gl\n")
        handle.write("\n".join(lines))
        handle.write("\n")


def _csv_semi(seed: int, inputs: Path, size: Size) -> dict:
    csv_path = inputs / "cgm.csv"
    write_cgm_csv_input(csv_path, seed, size)
    source = {
        "kind": "csv",
        "path": str(csv_path),
        "columns": {"id": "id", "time": "time", "value": "gl"},
        "on_bad_row": "skip",
    }
    de = {"max_generations": size.csv_de_generations, "convergence_tol": 0.0}
    config = _write_json(inputs / "csv-semi.json", {"input": source, "grid_size": GRID_SIZE, "de": de})
    return {
        "input": source,
        "invocations": [_invocation(config, "de", seed, 4, "l1", fixed=FIXED_CGM, cohort="csv")],
    }


BUILDERS = {"sim-l1": _sim_l1, "sim-l2": _sim_l2, "csv-semi": _csv_semi}


def prepare(workload: str, seed: int, inputs: Path, size: Size = FULL) -> dict:
    """Write the workload's inputs under ``inputs`` and return its pass plan."""
    inputs.mkdir(parents=True, exist_ok=True)
    plan = BUILDERS[workload](seed, inputs, size)
    plan.update(workload=workload, seed=seed, grid_size=GRID_SIZE)
    return plan
