"""Benchmark of `optithresh optimize` on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sim-l1,sim-l2,csv-semi} \
        [--seed N] [--seconds S] [--trace 0|1]

    for w in sim-l1 sim-l2 csv-semi; do python3 perfbench/run.py --workload $w --seed 7; done

The run writes the workload's inputs from the seed, then repeats passes for
about ``--seconds``, each in a fresh Python process (see ``bench_pass``).
Times are CPU seconds of the pass process.  With ``--trace 0`` it reports the
end-to-end metrics as the median over passes.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
Every invocation's output is checked, and its artifacts must be
byte-identical across all passes, traced or not.  At the reference seed,
results must also match ``references.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: One BLAS thread per pass, so that the timings do not depend on idle cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
REFERENCES = HERE / "references.json"


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_pass(plan_path: Path, out_dir: Path, traced: bool, verify: bool = True) -> dict:
    """One pass in a fresh interpreter; its JSON report."""
    flags = ["1" if traced else "0", "1" if verify else "0"]
    cmd = [sys.executable, str(HERE / "bench_pass.py"), str(plan_path), str(out_dir), *flags]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(report["package_dir"]) != ROOT / "src" / "optithresh":
        raise BenchError(f"imported optithresh from {report['package_dir']}")
    report["traced"] = traced
    return report


def measure(plan_path: Path, seconds: float, trace: bool) -> list:
    """Repeat passes until the next one would end after ``seconds``.

    Untraced runs make at least three passes.  Traced runs alternate
    untraced and traced passes and stop after a traced one.
    """
    cycle = (False, True) if trace else (False,)
    minimum = 2 if trace else MIN_PASSES
    deadline = time.monotonic() + seconds
    reports, walls = [], []
    while True:
        traced = cycle[len(reports) % len(cycle)]
        started = time.monotonic()
        # Pass 0 is verified in full; ``check`` requires the others' artifacts to match it.
        reports.append(run_pass(plan_path, WORK / f"pass-{len(reports)}", traced, not reports))
        walls.append(time.monotonic() - started)
        whole_cycle = len(reports) % len(cycle) == 0
        typical = statistics.median(walls) * len(cycle)
        if whole_cycle and len(reports) >= minimum and time.monotonic() + typical > deadline:
            return reports


def check(plan: dict, reports: list, references: dict) -> dict:
    """Failure messages keyed by (pass index, invocation name)."""
    failures: dict = {}
    first = reports[0]["invocations"]
    for i, report in enumerate(reports):
        for inv, base in zip(report["invocations"], first):
            found = list(inv["reasons"])
            changed = [k for k in inv["digests"] if inv["digests"][k] != base["digests"][k]]
            if changed:
                found.append(f"{changed} differ from pass 0")
            if found:
                failures[(i, inv["name"])] = found
    if plan["seed"] == references["seed"]:
        expected = references["workloads"][plan["workload"]]
        for inv in first:
            ref = expected[inv["name"]]
            found = []
            if "thresholds" in ref and inv.get("thresholds") != ref["thresholds"]:
                found.append(f"thresholds {inv.get('thresholds')} != reference {ref['thresholds']}")
            if "loss" in ref and not inv.get("loss", float("inf")) <= ref["loss"]:
                found.append(f"loss {inv.get('loss')} above reference {ref['loss']}")
            if found:
                failures.setdefault((0, inv["name"]), []).extend(found)
    return failures


def _median(values: list) -> float:
    return float(statistics.median(values))


def end_to_end(reports: list) -> dict:
    return {name: _median([r[name] for r in reports]) for name in END_TO_END}


def per_layer(reports: list) -> dict:
    plain = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    per_pass = [bench_trace.layer_metrics(r["layers"]) for r in traced]
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        out[name] = statistics.median_low(values) if layer_unit(name) == "count" else _median(values)
    invocations = {inv["name"]: inv for inv in reports[0]["invocations"]}
    for method in bench_trace.METHODS:
        out[f"optimize_s.{method}"] = _median([r["cpu"].get(method, 0.0) for r in plain])
        inv = invocations.get(method, {})
        out[f"optimizers.{method}.evaluations"] = inv.get("evaluations", 0)
        out[f"optimizers.{method}.iterations"] = inv.get("iterations", 0)
    out["trace.pass_s"] = _median([r["total_s"] for r in traced])
    out["trace.overhead_s"] = out["trace.pass_s"] - _median([r["total_s"] for r in plain])
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    return "s" if name.endswith("_s") or name.startswith("optimize_s.") else "count"


def report_lines(args, reports: list, metrics: dict, units: dict) -> list:
    versions = reports[0]["versions"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(reports),
        "traced_passes": sum(r["traced"] for r in reports),
        "cores": os.cpu_count(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "blas_threads": THREAD_ENV,
        "clock": "CPU time of the pass process",
    }
    lines = ["context " + json.dumps(context, sort_keys=True)]
    for name in units:
        value = metrics[name]
        extra = ""
        if name in END_TO_END:
            values = [r[name] for r in reports]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            extra = f"  (median of n={len(values)}; quartiles {q1:.4f} {q3:.4f}, max {max(values):.4f})"
        lines.append(f"{name:<42} {value:>14.6g} {units[name]}{extra}")
    if args.trace:
        lines.append("slowest spans by self time, per invocation (first traced pass):")
        traced = next(r for r in reports if r["traced"])
        for tag in traced["cpu"]:
            rows = sorted(
                ((e["self_s"], n) for t, n, e in traced["layers"] if t == tag), reverse=True
            )[:4]
            lines.append(f"  {tag:<11} " + ", ".join(f"{n} {s:.3f} s" for s, n in rows))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "optithresh" / "__init__.py").is_file():
        print(f"error: no optithresh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    plan = bench_workloads.prepare(args.workload, args.seed, WORK / "inputs")
    plan_path = WORK / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=2), encoding="utf-8")
    # Compile the package's bytecode and warm the file cache before timing:
    # users do not pay either on every run.
    subprocess.run(
        [sys.executable, "-c", "import optithresh.cli"], cwd=ROOT, env=_env(), check=True,
        timeout=PASS_TIMEOUT_S,
    )
    try:
        reports = measure(plan_path, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = check(plan, reports, json.loads(REFERENCES.read_text(encoding="utf-8")))
    if args.trace:
        metrics = per_layer(reports)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, units = end_to_end(reports), END_TO_END
    for line in report_lines(args, reports, metrics, units):
        print(line)
    for (i, name), reasons in sorted(failures.items()):
        for reason in reasons:
            print(f"FAILED pass {i} {name}: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(len(r["invocations"]) for r in reports),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
