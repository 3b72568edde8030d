import csv
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import time_limit
from optithresh import cli
from optithresh.cli import main
from optithresh.evaluation import tir_summary
from optithresh.histograms import (
    Domain,
    EmpiricalSample,
    Histogram,
    ThresholdSet,
    linearized_quantile_grid,
    probability_grid,
)
from optithresh.ingestion import apply_inclusion, empirical_histogram, read_cgm_csv
from optithresh.losses import Cohort


SMALL_MIXTURE = {
    "n_subjects": 6,
    "obs_per_subject": 200,
    "histogram_cutoffs": [70.0, 110.0, 150.0, 180.0, 215.0, 250.0, 320.0],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


class TestOptimizeCommand:
    def config(self, tmp_path, **overrides):
        payload = {
            "input": {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 3},
            "loss": "l1",
            "method": "sa",
            "k": 3,
            "grid_size": 60,
            "seed": 5,
        }
        payload.update(overrides)
        return write_config(tmp_path, "optimize.json", payload)

    def test_smoke_and_artifacts(self, runner, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "result.json").read_text())
        assert payload["method"] == "sa"
        assert len(payload["thresholds"]) == 3
        assert (out / "tir_summary.csv").exists()
        lin = (out / "linearization.csv").read_text().splitlines()
        assert lin[0] == "subject_id,u,q,q_linearized"
        assert len(lin) == 1 + 6 * 60

    def test_determinism_bytes(self, runner, tmp_path, caplog):
        cfg = self.config(tmp_path, method="de", k=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out1)])
        caplog.set_level(logging.INFO, logger="optithresh.cli")
        r2 = runner.invoke(
            main, ["--threads", "4", "optimize", "--config", cfg, "--out", str(out2)]
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("--threads")]
        assert notes == ["--threads has no effect; OpenBLAS may still start threads unless OPENBLAS_NUM_THREADS=1"]
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
        assert (out1 / "tir_summary.csv").read_bytes() == (out2 / "tir_summary.csv").read_bytes()
        assert (out1 / "linearization.csv").read_bytes() == (out2 / "linearization.csv").read_bytes()

    def test_fixed_thresholds_surface_in_result(self, runner, tmp_path):
        cfg = self.config(tmp_path, method="de", k=3, fixed=[110.0, 180.0])
        out = tmp_path / "out"
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "result.json").read_text())
        assert 110.0 in payload["thresholds"]
        assert 180.0 in payload["thresholds"]

    def test_unknown_config_key_is_config_error(self, runner, tmp_path):
        cfg = self.config(tmp_path, typo=1)
        result = runner.invoke(main, ["optimize", "--config", cfg])
        assert result.exit_code == 2
        assert "typo" in result.output

    def test_missing_csv_is_data_error(self, runner, tmp_path):
        cfg = self.config(
            tmp_path, input={"kind": "csv", "path": str(tmp_path / "absent.csv")}
        )
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 3

    def test_infeasible_k_exits_4(self, runner, tmp_path):
        cfg = self.config(tmp_path, k=50)
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 4

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_zero_grid_size_is_config_error(self, runner, tmp_path, where):
        if where == "flag":
            cfg = self.config(tmp_path)
            args = ["optimize", "--config", cfg, "--grid-size", "0", "--out", str(tmp_path)]
        else:
            cfg = self.config(tmp_path, grid_size=0)
            args = ["optimize", "--config", cfg, "--out", str(tmp_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "grid_size" in result.output
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize(
        "flags, overrides",
        [
            (["--k", "-1"], {}),
            ([], {"k": -1}),
            ([], {"k": "three"}),
            ([], {"k": True}),
            ([], {"k": 2.5}),
            ([], {"seed": "five"}),
            (["--seed", "-1"], {"method": "de"}),
        ],
        ids=["negative-flag", "negative", "word", "bool", "fraction", "seed-word", "seed-negative"],
    )
    def test_bad_integer_setting_is_config_error(self, runner, tmp_path, flags, overrides):
        cfg = self.config(tmp_path, **overrides)
        result = runner.invoke(main, ["optimize", "--config", cfg, *flags, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        name = "seed" if "seed" in overrides or "--seed" in flags else "k"
        assert f"{name} must be" in result.output
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize(
        "flags, overrides, message",
        [
            ([], {"fixed": 70}, "fixed must be a list of numbers"),
            ([], {"fixed": ["a"]}, "cannot parse fixed thresholds"),
            (["--fixed", "70,nan"], {}, "fixed thresholds must be finite"),
            ([], {"fixed": [70, 70]}, "fixed thresholds must be distinct"),
            (["--fixed", "70,70"], {}, "fixed thresholds must be distinct"),
            ([], {"mixture": {"domain": [1]}}, "invalid input.mixture"),
            ([], {"mixture": {"domain": ["a", 400]}}, "invalid input.mixture"),
            ([], {"mixture": {"histogram_cutoffs": 5}}, "invalid input.mixture"),
            ([], {"de": {"mutation_range": 0.5}}, "invalid de section"),
            ([], {"de": {"max_generations": 2.5}}, "de.max_generations must be an integer"),
            ([], {"de": {"population_size_per_dim": 2.5}}, "de.population_size_per_dim must be an integer"),
            ([], {"de": 5}, "de must be a JSON object"),
            ([], {"input": {"kind": "simulation", "mixture": ["domain"]}}, "input.mixture must be a JSON object"),
        ],
        ids=["fixed-number", "fixed-word", "fixed-nan-flag", "fixed-repeated", "fixed-repeated-flag",
             "domain-short", "domain-word",
             "cutoffs-number", "mutation-number", "generations-fraction", "population-fraction",
             "de-number", "mixture-list"],
    )
    def test_mistyped_setting_is_config_error(self, runner, tmp_path, flags, overrides, message):
        if "mixture" in overrides:
            mixture = {**SMALL_MIXTURE, **overrides.pop("mixture")}
            overrides["input"] = {"kind": "simulation", "mixture": mixture, "seed": 3}
        if "de" in overrides:
            overrides["method"] = "de"
        cfg = self.config(tmp_path, **overrides)
        result = runner.invoke(main, ["optimize", "--config", cfg, *flags, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("seed", [1.7, "one", True, -1], ids=["fraction", "word", "bool", "negative"])
    def test_bad_input_seed_is_config_error(self, runner, tmp_path, seed):
        cfg = self.config(tmp_path, input={"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": seed})
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "input.seed must be" in result.output
        assert not (tmp_path / "result.json").exists()

    def test_invalid_on_bad_row_is_config_error(self, runner, tmp_path):
        data = tmp_path / "cgm.csv"
        data.write_text("id,time,gl\na,0,100\n")
        cfg = self.config(
            tmp_path, input={"kind": "csv", "path": str(data), "on_bad_row": "ignore"}
        )
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "on_bad_row" in result.output

    def test_paa_with_loss_is_config_error(self, runner, tmp_path):
        cfg = self.config(tmp_path, method="paa", loss="l1")
        result = runner.invoke(main, ["optimize", "--config", cfg])
        assert result.exit_code == 2
        assert "PAA" in result.output

    def test_csv_input_pipeline(self, runner, tmp_path):
        rows = ["id,time,gl"]
        for subject in ("alpha", "beta"):
            base = 100 if subject == "alpha" else 180
            for i in range(60):
                rows.append(f"{subject},{i * 300},{base + (i % 7)}")
        data = tmp_path / "cgm.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = self.config(
            tmp_path,
            input={"kind": "csv", "path": str(data)},
            method="exhaustive",
            k=1,
            grid_size=40,
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "result.json").read_text())
        assert payload["thresholds_rounded_up"] is not None
        assert (out / "ingest_report.json").exists()

    def test_csv_ingest_summary_is_logged(self, runner, tmp_path, caplog):
        rows = ["id,time,gl"]
        for i in range(60):
            rows.append(f"alpha,{i * 300},{450 if i < 2 else 100 + i % 7}")
        rows += ["beta,0,100", "beta,3000,100", "alpha,300,99", ",0,100"] + [f"alpha,x{i},100" for i in range(5)]
        data = tmp_path / "cgm.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = self.config(
            tmp_path,
            input={"kind": "csv", "path": str(data), "on_bad_row": "skip"},
            method="exhaustive",
            k=1,
            grid_size=40,
        )
        out = tmp_path / "out"
        caplog.set_level(logging.INFO, logger="optithresh.cli")
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("ingested")]
        assert lines == [
            f"ingested {data}: 69 rows read, 7 skipped (first lines [64, 65, 66, 67, 68]), "
            "2 readings clamped, 1 subjects kept, 1 dropped"
        ]

    def test_csv_input_with_quoted_ids(self, runner, tmp_path):
        ids = ["a,b", 'q"x', "x\ny", "x\ry", " pad ", "é"]
        data = tmp_path / "cgm.csv"
        with data.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "time", "gl"])
            for s, sid in enumerate(ids):
                writer.writerows([sid, i * 300, 90 + 20 * s + i % 7] for i in range(60))
        cfg = self.config(
            tmp_path, input={"kind": "csv", "path": str(data)}, method="exhaustive", k=1, grid_size=40
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        with (out / "linearization.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1:]] == [sid for sid in ids for _ in range(40)]
        with (out / "tir_summary.csv").open(newline="", encoding="utf-8") as handle:
            assert [row[0] for row in list(csv.reader(handle))[1:]] == ids
        kept = [s for s in read_cgm_csv(data).series if apply_inclusion(s).keep]
        cohort = Cohort([empirical_histogram(s) for s in kept])
        thresholds = json.loads((out / "result.json").read_text())["thresholds"]
        expected = tmp_path / "expected"
        row_list_artifacts(cohort, thresholds, 40, expected)
        for name in ("tir_summary.csv", "linearization.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()

    def test_artifact_memory_does_not_grow_with_the_cohort(self, runner, tmp_path, monkeypatch):
        """Writing the artifacts of 200 members at M=200 adds under 1 MB to what the solved run holds."""
        rng = np.random.default_rng(5)
        domain = Domain(40.0, 400.0)
        cohort = Cohort([EmpiricalSample(domain, rng.uniform(40, 400, 100), f"s{i:03d}") for i in range(200)])
        monkeypatch.setattr(cli, "_load_inputs", lambda *args: {"input": (cohort, None)})
        solve, held = cli.optimize, []

        def solve_then_reset_peak(*args, **kwargs):
            result = solve(*args, **kwargs)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])  # what the run holds when the writing starts
            return result

        monkeypatch.setattr(cli, "optimize", solve_then_reset_peak)
        cfg = self.config(tmp_path, k=1, fixed=[180.0], grid_size=200)
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert len((tmp_path / "out" / "linearization.csv").read_text().splitlines()) == 1 + 200 * 200
        assert peak < 1_000_000


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def row_list_artifacts(cohort, thresholds, grid, out_path):
    """``tir_summary.csv`` and ``linearization.csv`` from the row-list writer that ``optimize``
    used before it streamed them: that code verbatim (and ``_write_csv``), fed ``thresholds``
    and ``grid`` instead of reading them from a result."""
    thresholds = ThresholdSet(tuple(thresholds))
    summary = tir_summary(cohort, thresholds)
    _write_csv(
        out_path / "tir_summary.csv",
        ["subject_id", *summary.range_labels],
        [
            [sid, *(repr(float(v)) for v in row)]
            for sid, row in zip(summary.subject_ids, summary.per_subject)
        ],
    )

    u = probability_grid(grid)
    base = cohort.quantile_matrix(grid)
    rows = []
    for i, member in enumerate(cohort.members):
        lin = linearized_quantile_grid(member, thresholds, grid).values
        sid = member.subject_id if member.subject_id is not None else str(i)
        for m in range(grid):
            rows.append([sid, repr(float(u[m])), repr(float(base[i, m])), repr(float(lin[m]))])
    _write_csv(out_path / "linearization.csv", ["subject_id", "u", "q", "q_linearized"], rows)


AWKWARD_IDS = ["", "a,b", 'q"x', "x\ny", "x\ry", " pad ", "é", None]


def _sample_cohort(rng):
    # Values below 1e-4 print in exponent form.
    domain = Domain(0.0, 1e-4)
    return Cohort([
        EmpiricalSample(domain, rng.uniform(0.0, 1e-4, 9 + i), sid) for i, sid in enumerate(AWKWARD_IDS)
    ]), (2.5e-05, 7e-05)


def _histogram_cohort(rng, shared):
    # A domain at 1e16 prints its values in exponent form, and masses of 1e-7 their proportions.
    lower = 1e16
    domain = Domain(lower, lower + 4096.0)
    members = []
    for i, sid in enumerate(AWKWARD_IDS):
        cuts = lower + np.array([512.0, 1024.0, 2048.0, 3072.0]) + (0.0 if shared else 64.0 * i)
        masses = np.append(rng.dirichlet(np.ones(4)) * (1 - 1e-7), 1e-7)
        members.append(Histogram(domain, cuts, masses / masses.sum(), sid))
    thresholds = (lower + 1024.0, lower + 3072.0) if shared else (lower + 1000.0, lower + 3500.0)
    return Cohort(members), thresholds


class TestUnreadableInputs:
    """Configs and CSV inputs that cannot be read end with exit 2 or 3, not a traceback."""

    @pytest.mark.parametrize("command", ["optimize", "simulate", "evaluate"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, runner, tmp_path, command, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"k": "\xff"}')
        result = runner.invoke(main, [command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"cannot read config file {path}" in result.output

    @staticmethod
    def run_with_csv(runner, tmp_path, where, section):
        """Exit code and output of optimize or evaluate with the csv input ``section`` at ``where``."""
        simulated = {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 1, "use": "empirical"}
        if where == "input":
            payload = {"input": section, "method": "sa", "k": 1, "grid_size": 40}
            command = "optimize"
        else:
            payload = {"group_a": simulated, "group_b": simulated, where: section, "threshold_sets": [[70.0]]}
            command = "evaluate"
        cfg = write_config(tmp_path, "config.json", payload)
        result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out")])
        return result.exit_code, result.output

    @pytest.mark.parametrize("where", ["input", "group_a", "group_b"])
    def test_path_that_is_not_a_string_is_config_error(self, runner, tmp_path, where):
        code, output = self.run_with_csv(runner, tmp_path, where, {"kind": "csv", "path": ["x.csv"]})
        assert code == 2, output
        assert f"{where}.path must be the path of a csv file, got ['x.csv']" in output

    @pytest.mark.parametrize("where", ["input", "group_a", "group_b"])
    def test_path_that_is_a_directory_is_data_error(self, runner, tmp_path, where):
        code, output = self.run_with_csv(runner, tmp_path, where, {"kind": "csv", "path": str(tmp_path)})
        assert code == 3, output
        assert f"cannot read input file {tmp_path}" in output

    @pytest.mark.parametrize("on_bad_row", ["error", "skip"])
    def test_csv_structure_error_is_data_error(self, runner, tmp_path, on_bad_row):
        data = tmp_path / "cgm.csv"
        data.write_text(f"id,time,gl\na,0,100\na,300,{'1' * (csv.field_size_limit() + 1)}\n")
        section = {"kind": "csv", "path": str(data), "on_bad_row": on_bad_row}
        code, output = self.run_with_csv(runner, tmp_path, "input", section)
        assert code == 3, output
        assert "line 3: field larger than field limit" in output


class TestOptimizeArtifacts:
    """The streamed artifacts are byte for byte those of the row-list writer."""

    @pytest.mark.parametrize("kind", ["sample", "shared-histogram", "histogram"])
    @pytest.mark.parametrize("grid_size", [1, 7, 200])
    def test_bytes_match_row_list_writer(self, runner, tmp_path, monkeypatch, kind, grid_size):
        rng = np.random.default_rng([grid_size, len(kind)])
        if kind == "sample":
            cohort, thresholds = _sample_cohort(rng)
        else:
            cohort, thresholds = _histogram_cohort(rng, shared=kind == "shared-histogram")
        monkeypatch.setattr(cli, "_load_inputs", lambda *args: {"input": (cohort, None)})
        cfg = write_config(tmp_path, "artifacts.json", {"input": {"kind": "simulation"}, "loss": "l1"})
        out = tmp_path / "out"
        fixed = ",".join(repr(t) for t in thresholds)
        args = ["optimize", "--config", cfg, "--k", "2", "--fixed", fixed, "--grid-size", str(grid_size)]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "result.json").read_text())["thresholds"] == list(thresholds)
        row_list_artifacts(cohort, thresholds, grid_size, tmp_path / "expected")
        for name in ("tir_summary.csv", "linearization.csv"):
            assert (out / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()
        text = (out / "linearization.csv").read_text(encoding="utf-8")
        assert "e-05" in text or "e+16" in text


FRESH_RUNS = """
import json, sys
import optithresh
import optithresh.cli

def loaded():
    return sorted(
        m for m in sys.modules if m in ("scipy", "numpy.ma") or m.startswith(("scipy.", "numpy.ma."))
    )

report = {"after_import": loaded(), "codes": []}
for args in json.loads(sys.argv[1]):
    try:
        optithresh.cli.main.main(args, prog_name="optithresh")
    except SystemExit as exc:
        report["codes"].append(exc.code)
report["after_runs"] = loaded()
print(json.dumps(report))
"""


def fresh_interpreter(args, timeout, cwd=None):
    """Run ``python args`` in ``cwd`` with this checkout's ``optithresh`` on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout, cwd=cwd
    )


def fresh_cli_runs(arg_lists):
    """Run ``optithresh`` commands in one fresh interpreter.

    Returns its exit codes and the scipy and numpy.ma modules loaded after import and after the runs.
    """
    proc = fresh_interpreter(["-c", FRESH_RUNS, json.dumps(arg_lists)], timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyImport:
    """scipy's compiled distance kernels are loaded by the first pairwise loss, without scipy's
    package ``__init__`` or the rest of ``scipy.spatial``; L1 runs load no scipy and no numpy.ma."""

    def test_l1_runs_never_load_scipy(self, tmp_path):
        sim = TestOptimizeCommand().config(tmp_path, k=2, grid_size=40)
        rows = ["id,time,gl"] + [f"{s},{i * 300},{b + i % 7}" for s, b in (("a", 100), ("b", 180)) for i in range(60)]
        data = tmp_path / "cgm.csv"
        data.write_text("\n".join(rows) + "\n")
        csv_cfg = write_config(
            tmp_path,
            "csv.json",
            {"input": {"kind": "csv", "path": str(data)}, "loss": "l1", "method": "de", "k": 1, "grid_size": 40},
        )
        runs = [
            ["optimize", "--config", sim, "--method", method, "--out", str(tmp_path / method)]
            for method in ("de", "sa", "ss", "exhaustive")
        ]
        runs.append(["optimize", "--config", csv_cfg, "--out", str(tmp_path / "csv")])
        report = fresh_cli_runs(runs)
        assert report == {"after_import": [], "codes": [0] * 5, "after_runs": []}
        assert all((tmp_path / name / "result.json").exists() for name in ("de", "sa", "ss", "exhaustive", "csv"))

    def test_l2_run_loads_scipy(self, tmp_path):
        """An SA run under L2 and a PAA run, each in a fresh interpreter, load the kernels module and
        no scipy package, ``scipy`` itself included."""
        source = {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 3}
        for method, loss in (("sa", {"loss": "l2"}), ("paa", {})):
            payload = {"input": source, "method": method, "k": 2, "grid_size": 40, **loss}
            cfg = write_config(tmp_path, f"{method}.json", payload)
            report = fresh_cli_runs([["optimize", "--config", cfg, "--out", str(tmp_path / method)]])
            assert report == {
                "after_import": [], "codes": [0], "after_runs": ["scipy.spatial._distance_pybind"]
            }, method


NAN, INF = float("nan"), float("inf")
#: Mixture settings, other config keys and the message of each non-finite optimize config.
NON_FINITE_OPTIMIZE = {
    "noise_sd-nan": ({"noise_sd": NAN}, {}, "noise_sd must be finite"),
    "noise_sd-inf": ({"noise_sd": INF}, {}, "noise_sd must be finite"),
    "noise_truncation-nan": ({"noise_sd": 2.0, "noise_truncation": NAN}, {}, "noise_truncation must be finite"),
    "cutoff-nan": ({"histogram_cutoffs": [70.0, NAN, 250.0]}, {}, "histogram_cutoffs must be finite"),
    "convergence_tol-nan": (
        {},
        {"method": "de", "de": {"convergence_tol": NAN, "max_generations": 30}},
        "convergence_tol must be finite",
    ),
}


class TestNonFiniteSettings:
    """NaN and Infinity settings exit 2 at once, naming the setting.  Each run is a subprocess
    with a timeout, because rejection sampling with a noise setting that is not finite would
    never return."""

    def run(self, tmp_path, args):
        return fresh_interpreter(["-m", "optithresh.cli", *args, "--out", str(tmp_path / "out")], timeout=60)

    @pytest.mark.parametrize("case", sorted(NON_FINITE_OPTIMIZE))
    def test_optimize(self, tmp_path, case):
        mixture, overrides, message = NON_FINITE_OPTIMIZE[case]
        payload = {
            "input": {"kind": "simulation", "mixture": {**SMALL_MIXTURE, **mixture}, "seed": 3},
            "method": "sa", "k": 2, "grid_size": 40, **overrides,
        }
        proc = self.run(tmp_path, ["optimize", "--config", write_config(tmp_path, "optimize.json", payload)])
        assert proc.returncode == 2 and message in proc.stderr, proc.stderr
        assert not (tmp_path / "out").exists()

    def test_simulate_noise_level(self, tmp_path):
        payload = {"mixture": SMALL_MIXTURE, "methods": ["oracle"], "k": 3, "reps": 1, "noise_levels": [NAN]}
        proc = self.run(tmp_path, ["simulate", "--config", write_config(tmp_path, "simulate.json", payload)])
        assert proc.returncode == 2 and "noise_sd must be finite" in proc.stderr, proc.stderr


class TestWrongTypedSettings:
    """A wrong-typed ``out``, csv column name or mixture count exits 2 while the config is
    parsed, naming the setting, with no traceback and no file written.  Each run is a fresh
    interpreter whose working directory, the default ``out``, starts empty."""

    SIMULATED = {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 1, "use": "empirical"}
    VALID = {
        "optimize": {"input": {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 1}, "method": "sa", "k": 1,
                     "grid_size": 40},
        "simulate": {"mixture": SMALL_MIXTURE, "methods": ["oracle"], "k": 3, "reps": 1, "grid_size": 40},
        "evaluate": {"group_a": SIMULATED, "group_b": SIMULATED, "threshold_sets": [[70.0, 181.0]],
                     "grid_size": 40},
    }

    @staticmethod
    def stderr_of_config_error(tmp_path, command, payload):
        work = tmp_path / "work"
        work.mkdir()
        cfg = write_config(tmp_path, f"{command}.json", payload)
        proc = fresh_interpreter(["-m", "optithresh.cli", command, "--config", cfg], timeout=60, cwd=work)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert sorted(p.name for p in work.iterdir()) == []
        return proc.stderr

    @staticmethod
    def csv_source(tmp_path, **settings):
        rows = ["id,time,gl,group"] + [f"{s},{i * 300},{b + i % 7},{s}" for s, b in (("a", 100), ("b", 180))
                                       for i in range(60)]
        data = tmp_path / "cgm.csv"
        data.write_text("\n".join(rows) + "\n")
        return {"kind": "csv", "path": str(data), **settings}

    @pytest.mark.parametrize("command", ["optimize", "simulate", "evaluate"])
    @pytest.mark.parametrize("out", [5, None, ["out"], {"dir": "out"}], ids=["number", "null", "list", "object"])
    def test_out(self, tmp_path, command, out):
        stderr = self.stderr_of_config_error(tmp_path, command, {**self.VALID[command], "out": out})
        assert f"error: out must be the path of a directory, got {out!r}" in stderr, stderr

    @pytest.mark.parametrize(
        "command, where", [("optimize", "input"), ("simulate", None), ("evaluate", "group_b")]
    )
    @pytest.mark.parametrize(
        "field, value",
        [("n_subjects", 5.5), ("n_subjects", True), ("obs_per_subject", 50.5), ("obs_per_subject", True)],
    )
    def test_mixture_count(self, tmp_path, command, where, field, value):
        mixture = {**SMALL_MIXTURE, field: value}
        payload = dict(self.VALID[command])
        if where is None:
            payload["mixture"] = mixture
        else:
            payload[where] = {**payload[where], "mixture": mixture}
        stderr = self.stderr_of_config_error(tmp_path, command, payload)
        context = f"{where}.mixture" if where else "mixture"
        message = f"error: invalid {context}: {field} must be an integer of at least 1, got {value!r}"
        assert message in stderr, stderr

    @pytest.mark.parametrize("key", ["id", "time", "value"])
    @pytest.mark.parametrize(
        "command, where",
        [("optimize", "input"), ("evaluate", "group_a"), ("evaluate", "group_b"), ("evaluate", "input")],
    )
    def test_column_name(self, tmp_path, command, where, key):
        settings = {"columns": {key: 5}}
        if command == "evaluate" and where == "input":
            source = self.csv_source(tmp_path, label_column="group", **settings)
            payload = {"input": source, "threshold_sets": [[70.0]]}
        else:
            payload = {**self.VALID[command], where: self.csv_source(tmp_path, **settings)}
        stderr = self.stderr_of_config_error(tmp_path, command, payload)
        assert f"error: {where}.columns.{key} must be a string, got 5" in stderr, stderr

    @pytest.mark.parametrize("column", [None, ["gl"]], ids=["null", "list"])
    def test_column_name_of_another_type(self, tmp_path, column):
        payload = {**self.VALID["optimize"], "input": self.csv_source(tmp_path, columns={"value": column})}
        stderr = self.stderr_of_config_error(tmp_path, "optimize", payload)
        assert f"error: input.columns.value must be a string, got {column!r}" in stderr, stderr

    def test_label_column(self, tmp_path):
        payload = {"input": self.csv_source(tmp_path, label_column=5), "threshold_sets": [[70.0]]}
        stderr = self.stderr_of_config_error(tmp_path, "evaluate", payload)
        assert "error: input.label_column must be a string, got 5" in stderr, stderr

    @pytest.mark.parametrize(
        "command, artifacts",
        [("optimize", ["tir_summary.csv", "linearization.csv"]),
         ("simulate", ["benchmark.csv", "replications.csv"])],
    )
    def test_whole_float_counts_run_as_integers(self, runner, tmp_path, command, artifacts):
        outputs = []
        for counts in ({"n_subjects": 6, "obs_per_subject": 200}, {"n_subjects": 6.0, "obs_per_subject": 200.0}):
            payload = dict(self.VALID[command])
            if command == "optimize":
                payload["input"] = {**payload["input"], "mixture": {**SMALL_MIXTURE, **counts}}
            else:
                payload["mixture"] = {**SMALL_MIXTURE, **counts}
            out = tmp_path / str(len(outputs))
            cfg = write_config(tmp_path, f"{command}.json", payload)
            result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append([(out / name).read_bytes() for name in artifacts])
        assert outputs[0] == outputs[1]


class TestConfigErrorsWriteNothing:
    """A config error exits 2 before any file is written, even for csv inputs, whose
    ingest sidecar is written once the input is read."""

    def csv_path(self, tmp_path):
        rows = ["id,time,gl"] + [f"{s},{i * 300},{b + i % 7}" for s, b in (("a", 100), ("b", 180)) for i in range(60)]
        data = tmp_path / "cgm.csv"
        data.write_text("\n".join(rows) + "\n")
        return str(data)

    def optimize(self, runner, tmp_path, **overrides):
        payload = {"input": {"kind": "csv", "path": self.csv_path(tmp_path)}, "method": "de", "k": 1,
                   "grid_size": 40, **overrides}
        cfg = write_config(tmp_path, "optimize.json", payload)
        return runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_bad_de_section_with_csv_input(self, runner, tmp_path):
        result = self.optimize(runner, tmp_path, de={"crossover_prob": 7})
        assert result.exit_code == 2 and "invalid de section: crossover_prob" in result.output, result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "inclusion, field",
        [
            ({"long_window_days": NAN}, "long_window_days"),
            ({"long_window_days": -5}, "long_window_days"),
            ({"long_window_days": INF}, "long_window_days"),
            ({"mid_days": INF}, "mid_days"),
            ({"short_days": NAN}, "short_days"),
        ],
    )
    def test_bad_inclusion_names_the_field(self, runner, tmp_path, inclusion, field):
        source = {"kind": "csv", "path": self.csv_path(tmp_path), "inclusion": inclusion}
        result = self.optimize(runner, tmp_path, input=source)
        assert result.exit_code == 2, result.output
        assert "error: invalid input.inclusion: " in result.output and field in result.output, result.output
        assert not (tmp_path / "out").exists()

    def test_evaluate_grid_size_with_csv_groups(self, runner, tmp_path):
        source = {"kind": "csv", "path": self.csv_path(tmp_path)}
        payload = {"group_a": source, "group_b": source, "threshold_sets": [[70.0, 181.0]], "grid_size": 0}
        cfg = write_config(tmp_path, "evaluate.json", payload)
        result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2 and "grid_size" in result.output, result.output
        assert not (tmp_path / "out").exists()

    def test_data_error_keeps_its_sidecar(self, runner, tmp_path):
        # One late reading makes each wear about 1.2 days long and 18% complete.
        rows = ["id,time,gl"] + [f"{s},{t},100" for s in "ab" for t in [*range(0, 18000, 300), 100000]]
        data = tmp_path / "sparse.csv"
        data.write_text("\n".join(rows) + "\n")
        result = self.optimize(runner, tmp_path, input={"kind": "csv", "path": str(data)})
        assert result.exit_code == 3 and "no subjects pass" in result.output, result.output
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["ingest_report.json"]


class TestSizesNoiseAndSeeds:
    """Sizes no run could allocate, a noise_sd that rejection sampling could not draw under
    and a ``de.seed`` exit 2 at once, naming the setting, with no traceback and no file
    written, even for a csv input.  ``simulate`` takes seeds beyond int64."""

    VALID = TestWrongTypedSettings.VALID

    def run(self, runner, tmp_path, command, changes, csv=False):
        payload = json.loads(json.dumps(self.VALID[command]))
        if csv:
            payload["input"] = TestWrongTypedSettings.csv_source(tmp_path)
            payload["method"] = "de"
        for where, value in changes.items():
            *sections, key = where.split(".")
            section = payload
            for name in sections:
                section = section.setdefault(name, {})
            section[key] = value
        cfg = write_config(tmp_path, f"{command}.json", payload)
        with time_limit(60):  # rejection sampling under a noise_sd that is let through never ends
            return runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "command, changes, csv, message",
        [
            ("optimize", {"input.mixture.n_subjects": 1e300}, False,
             "invalid input.mixture: n_subjects must be at most 100,000, got 1e+300"),
            ("simulate", {"mixture.obs_per_subject": 10**30}, False,
             f"invalid mixture: obs_per_subject must be at most 1,000,000, got {10**30}"),
            ("optimize", {"grid_size": 1e300}, True, "grid_size must be at most 100,000, got 1e+300"),
            ("simulate", {"reps": 10**30}, False, f"reps must be at most 1,000,000, got {10**30}"),
            ("optimize", {"de.population_size_per_dim": 1e300}, True,
             "de.population_size_per_dim must be at most 100,000, got 1e+300"),
            ("optimize", {"de.population_size_per_dim": 60_000, "k": 2}, True,
             "de.population_size_per_dim (60000) times the 2 free thresholds must be at most 100,000"),
            ("simulate", {"de.population_size_per_dim": 40_000, "methods": ["de"]}, False,
             "de.population_size_per_dim (40000) times the 3 free thresholds must be at most 100,000"),
            ("optimize", {"input.mixture.noise_sd": 1e300}, False,
             "invalid input.mixture: noise_truncation must be finite, positive and at least noise_sd / 1000, "
             "got 30.0 with noise_sd 1e+300"),
            ("simulate", {"mixture.noise_sd": 1.0, "mixture.noise_truncation": 1e-300}, False,
             "invalid mixture: noise_truncation must be finite, positive and at least noise_sd / 1000"),
            ("simulate", {"noise_levels": [0, 1e300]}, False,
             "noise_truncation must be finite, positive and at least noise_sd / 1000"),
            ("optimize", {"de.seed": 3}, True, 'de.seed is not a setting: the top-level "seed" seeds the run'),
            ("simulate", {"de.seed": 3}, False, 'de.seed is not a setting: the top-level "seed" seeds the run'),
        ],
    )
    def test_refused(self, runner, tmp_path, command, changes, csv, message):
        result = self.run(runner, tmp_path, command, changes, csv)
        assert result.exit_code == 2 and f"error: {message}" in result.output, result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [2**63 - 1, 10**30])
    def test_simulate_seed_beyond_int64(self, runner, tmp_path, seed):
        result = self.run(runner, tmp_path, "simulate", {"seed": seed, "reps": 2})
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "benchmark.json").read_text())
        assert report["seed_entropy"] == [seed, seed + 1]


class TestBooleansAndStringsInSettings:
    """A boolean is no number: in a float setting of a config section or a threshold list it
    exits 2 naming the setting, as do a falsy ``loss`` and a config string for ``fixed``.
    Nothing is written."""

    VALID = TestWrongTypedSettings.VALID

    def run(self, runner, tmp_path, command, payload, *flags):
        cfg = write_config(tmp_path, f"{command}.json", payload)
        return runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out"), *flags])

    def assert_config_error(self, result, tmp_path, message):
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output, result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, where, key",
        [
            ("optimize", "de", "crossover_prob"),
            ("optimize", "de", "convergence_tol"),
            ("simulate", "de", "crossover_prob"),
            ("optimize", "input.mixture", "noise_sd"),
            ("simulate", "mixture", "noise_sd"),
            ("simulate", "mixture", "noise_truncation"),
            ("evaluate", "group_b.mixture", "noise_sd"),
        ],
    )
    @pytest.mark.parametrize("value", [True, False, "0.5"])
    def test_float_setting(self, runner, tmp_path, command, where, key, value):
        payload = json.loads(json.dumps(self.VALID[command]))
        section = payload
        for name in where.split("."):
            section = section.setdefault(name, {})
        section[key] = value
        result = self.run(runner, tmp_path, command, payload)
        self.assert_config_error(result, tmp_path, f"{where}.{key} must be a number, got {value!r}")

    @pytest.mark.parametrize("key", ["short_days", "mid_fraction", "long_window_days"])
    def test_inclusion_setting(self, runner, tmp_path, key):
        source = TestWrongTypedSettings.csv_source(tmp_path, inclusion={key: True})
        result = self.run(runner, tmp_path, "optimize", {**self.VALID["optimize"], "input": source})
        self.assert_config_error(result, tmp_path, f"input.inclusion.{key} must be a number, got True")

    @pytest.mark.parametrize(
        "command, key, value, name",
        [
            ("optimize", "fixed", [True], "fixed"),
            ("optimize", "fixed", [70.0, False], "fixed"),
            ("evaluate", "threshold_sets", [[70.0], [True]], "threshold_sets[1]"),
            ("evaluate", "reference", [True], "reference"),
        ],
    )
    def test_boolean_threshold(self, runner, tmp_path, command, key, value, name):
        result = self.run(runner, tmp_path, command, {**self.VALID[command], key: value})
        bad = value[-1] if key == "threshold_sets" else value
        self.assert_config_error(result, tmp_path, f"{name} must be a list of numbers, got {bad!r}")

    @pytest.mark.parametrize("loss", [False, 0, ""])
    def test_falsy_loss(self, runner, tmp_path, loss):
        result = self.run(runner, tmp_path, "optimize", {**self.VALID["optimize"], "loss": loss})
        self.assert_config_error(result, tmp_path, f"loss must be 'l1' or 'l2', got {loss!r}")

    def test_fixed_string_in_config(self, runner, tmp_path):
        result = self.run(runner, tmp_path, "optimize", {**self.VALID["optimize"], "fixed": "70"})
        self.assert_config_error(result, tmp_path, "fixed must be a list of numbers, got '70'")

    def test_fixed_flag_still_splits(self, runner, tmp_path):
        result = self.run(runner, tmp_path, "optimize", self.VALID["optimize"], "--fixed", "70")
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "out" / "result.json").read_text())["config"]["fixed"] == [70.0]


def _export_rows(rng) -> list:
    """(id, epoch seconds, value) rows shaped like a CGM export: 5-minute readings of five
    subjects over two days and one short wear, with clamped values, bad rows and repeats."""
    rows = []
    for s in range(6):
        n = 576 if s < 5 else 200
        stamps = 1_704_067_200 + 300 * np.sort(rng.choice(n + n // 4, n, replace=False))
        values = np.rint(120 + 60 * np.sin(np.arange(n) / 40 + s) + rng.normal(0, 8, n)).astype(int)
        values[rng.choice(n, 4, replace=False)] = rng.choice([20, 39, 401, 450], 4)
        rows += [[f"s{s}", str(t), str(v)] for t, v in zip(stamps.tolist(), values.tolist())]
    for pos in sorted(rng.choice(len(rows), 12, replace=False).tolist(), reverse=True):
        sid, stamp, value = rows[pos]
        odd = [["", stamp, value], [sid, "not-a-time", value], [sid, stamp, "HI"], [sid, stamp, "nan"],
               [sid, stamp, str(int(value) + 3)]][pos % 5]
        rows.insert(pos + 1, odd)
    return rows


class TestCsvLineEndsAndTimes:
    """One export written with LF or CRLF line ends, or with ISO 8601 times, gives the same
    artifacts: the scan path and the row path read it alike."""

    ARTIFACTS = ("ingest_report.json", "result.json", "tir_summary.csv", "linearization.csv")

    @staticmethod
    def iso(stamp: str) -> str:
        if not stamp.isdigit():
            return stamp
        return datetime.fromtimestamp(int(stamp), timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")

    def test_same_artifacts(self, runner, tmp_path):
        rows = _export_rows(np.random.default_rng(8))
        texts = {
            "lf": "\n".join(",".join(row) for row in [["id", "time", "gl"], *rows]) + "\n",
            "crlf": "\r\n".join(",".join(row) for row in [["id", "time", "gl"], *rows]) + "\r\n",
            "iso": "\n".join(",".join([sid, self.iso(t), v]) for sid, t, v in [["id", "time", "gl"], *rows]),
        }
        data = tmp_path / "cgm.csv"  # one path for all three, which result.json names
        payload = {"input": {"kind": "csv", "path": str(data), "on_bad_row": "skip"}, "loss": "l1", "method": "de",
                   "k": 3, "fixed": [70, 181], "grid_size": 50, "seed": 2, "de": {"max_generations": 4}}
        cfg = write_config(tmp_path, "optimize.json", payload)
        outputs = {}
        for name, text in texts.items():
            data.write_bytes(text.encode("utf-8"))
            out = tmp_path / name
            result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs[name] = [(out / artifact).read_bytes() for artifact in self.ARTIFACTS]
        assert outputs["lf"] == outputs["crlf"] == outputs["iso"]
        report = json.loads(outputs["lf"][0])
        assert len(report["skipped_rows"]) == 12 and sum(report["clamp_counts"].values()) > 0
        assert [d["keep"] for d in report["decisions"].values()] == [True] * 5 + [False]

    def test_invalid_utf8_is_data_error(self, runner, tmp_path):
        data = tmp_path / "cgm.csv"
        data.write_bytes(b"id,time,gl\n" + b"".join(b"a,%d,100\n" % (300 * i) for i in range(50)) + b"\xff,0,100\n")
        cfg = write_config(tmp_path, "optimize.json", {"input": {"kind": "csv", "path": str(data)}, "k": 1})
        result = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "error: 'utf-8' codec can't decode byte 0xff" in result.output, result.output


class TestEvaluateCsvGroups:
    """Two csv groups: both sections are checked before either file is read, and one
    ``ingest_report.json`` holds a section per csv group."""

    @staticmethod
    def group(tmp_path, prefix, n, stamps=tuple(range(0, 18000, 300))):
        rows = ["id,time,gl"] + [f"{prefix}{s},{t},{100 + 40 * s + t % 7}" for s in range(1, n + 1) for t in stamps]
        path = tmp_path / f"{prefix}.csv"
        path.write_text("\n".join(rows) + "\n")
        return {"kind": "csv", "path": str(path)}

    @staticmethod
    def evaluate(runner, tmp_path, group_a, group_b):
        payload = {"group_a": group_a, "group_b": group_b, "threshold_sets": [[70.0, 181.0]], "grid_size": 40}
        cfg = write_config(tmp_path, "evaluate.json", payload)
        return runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_sidecar_holds_both_groups(self, runner, tmp_path):
        group_a, group_b = self.group(tmp_path, "a", 2), self.group(tmp_path, "b", 3)
        result = self.evaluate(runner, tmp_path, group_a, group_b)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert sorted(report) == ["group_a", "group_b"]
        assert sorted(report["group_a"]["decisions"]) == ["a1", "a2"]
        assert sorted(report["group_b"]["decisions"]) == ["b1", "b2", "b3"]
        # Each section is the sidecar that the same file gives as an optimize input.
        for key, section in (("group_a", group_a), ("group_b", group_b)):
            out = tmp_path / f"optimize-{key}"
            cfg = write_config(tmp_path, "optimize.json", {"input": section, "method": "sa", "k": 1, "grid_size": 40})
            assert runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)]).exit_code == 0
            assert report[key] == json.loads((out / "ingest_report.json").read_text())

    def test_simulated_group_has_no_section(self, runner, tmp_path):
        mixture = {**SMALL_MIXTURE, "domain": [40, 401]}  # the csv histograms' domain
        simulated = {"kind": "simulation", "mixture": mixture, "seed": 1, "use": "binned"}
        result = self.evaluate(runner, tmp_path, simulated, self.group(tmp_path, "b", 3))
        assert result.exit_code == 0, result.output
        assert sorted(json.loads((tmp_path / "out" / "ingest_report.json").read_text())) == ["group_b"]
        assert (tmp_path / "out" / "comparison.json").exists()

    @pytest.mark.parametrize(
        "use, held",
        [("auto", "sample members on [40, 400]"), ("binned", "histogram members on [40, 400]")],
    )
    def test_simulated_beside_csv_group_needs_its_kind_and_domain(self, runner, tmp_path, use, held):
        # The aligned config, "use": "binned" with the csv domain, is the one above.
        simulated = {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 1, "use": use}
        result = self.evaluate(runner, tmp_path, simulated, self.group(tmp_path, "b", 3))
        assert result.exit_code == 3, result.output
        assert f"group_a holds {held} but group_b holds histogram members on [40, 401]" in result.output
        assert '"use"' in result.output and '"domain"' in result.output, result.output

    @pytest.mark.parametrize("where", ["group_a", "group_b"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"inclusion": {"mid_days": INF}}, "invalid {}.inclusion: "),
            ({"columns": {"glucose": "gl"}}, "unknown key(s) ['glucose'] in {}.columns"),
            ({"on_bad_row": "drop"}, "{}.on_bad_row must be 'error' or 'skip'"),
            ({"label_column": "g"}, "unknown key(s) ['label_column'] in {}"),
        ],
        ids=["inclusion", "columns", "on-bad-row", "keys"],
    )
    def test_config_error_in_either_group_writes_nothing(self, runner, tmp_path, where, setting, message):
        groups = {"group_a": self.group(tmp_path, "a", 2), "group_b": self.group(tmp_path, "b", 3)}
        groups[where].update(setting)
        result = self.evaluate(runner, tmp_path, **groups)
        assert result.exit_code == 2, result.output
        assert f"error: {message.format(where)}" in result.output, result.output
        assert not (tmp_path / "out").exists()

    def test_group_without_kept_subjects_is_named_after_the_sidecar(self, runner, tmp_path):
        # One late reading makes each wear about 1.2 days long and 18% complete.
        sparse = self.group(tmp_path, "b", 2, stamps=(*range(0, 18000, 300), 100000))
        result = self.evaluate(runner, tmp_path, self.group(tmp_path, "a", 2), sparse)
        assert result.exit_code == 3, result.output
        assert "no subjects in group_b pass the inclusion criteria" in result.output, result.output
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert sorted(report) == ["group_a", "group_b"]
        assert not any(d["keep"] for d in report["group_b"]["decisions"].values())
        assert all(d["keep"] for d in report["group_a"]["decisions"].values())


class TestSimulateCommand:
    def test_reps_one_omits_standard_errors(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            "simulate.json",
            {
                "mixture": SMALL_MIXTURE,
                "methods": ["oracle", "ss"],
                "losses": ["l1"],
                "k": 3,
                "reps": 1,
                "seed": 2,
                "grid_size": 50,
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "benchmark.json").read_text())
        assert all(row["se_loss"] is None for row in payload["rows"])

    def test_noise_rows_per_method(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            "simulate.json",
            {
                "mixture": SMALL_MIXTURE,
                "methods": ["oracle"],
                "losses": ["l1"],
                "k": 3,
                "reps": 2,
                "seed": 2,
                "grid_size": 50,
                "noise_levels": [0.0, 5.0, 10.0],
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "benchmark.json").read_text())
        assert len(payload["rows"]) == 3
        assert (out / "replications.csv").exists()

    def test_zero_grid_size_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {"mixture": SMALL_MIXTURE, "reps": 1})
        result = runner.invoke(
            main, ["simulate", "--config", cfg, "--grid-size", "0", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2, result.output
        assert "grid_size" in result.output

    @pytest.mark.parametrize(
        "key, value",
        [("k", "three"), ("k", False), ("reps", "ten"), ("reps", 1.5), ("seed", "x"), ("seed", True)],
    )
    def test_bad_integer_setting_is_config_error(self, runner, tmp_path, key, value):
        payload = {"mixture": SMALL_MIXTURE, "methods": ["oracle"], "reps": 1, key: value}
        cfg = write_config(tmp_path, "sim.json", payload)
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"{key} must be an integer" in result.output
        assert not (tmp_path / "benchmark.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("methods", 5, "methods must be a list"),
            ("methods", "oracle", "methods must be a list"),
            ("losses", 5, "losses must be a list"),
            ("noise_levels", 5, "noise_levels must be a list of numbers"),
            ("noise_levels", [None], "noise_levels must be a list of numbers"),
            ("noise_levels", ["5"], "noise_levels must be a list of numbers"),
            ("noise_levels", [True], "noise_levels must be a list of numbers"),
        ],
        ids=["methods-number", "methods-word", "losses-number", "noise-number", "noise-null", "noise-word",
             "noise-bool"],
    )
    def test_malformed_list_setting_is_config_error(self, runner, tmp_path, key, value, message):
        payload = {"mixture": SMALL_MIXTURE, "methods": ["oracle"], "reps": 1, key: value}
        cfg = write_config(tmp_path, "sim.json", payload)
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "benchmark.json").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"methods": []}, "methods must name at least one"),
            ({"noise_levels": []}, "noise_levels must hold at least one"),
            ({"methods": ["sa"], "losses": []}, "losses must name at least one loss"),
        ],
        ids=["no-method", "no-noise-level", "no-loss"],
    )
    def test_empty_request_is_config_error(self, runner, tmp_path, overrides, message):
        cfg = write_config(tmp_path, "sim.json", {"mixture": SMALL_MIXTURE, "reps": 1, **overrides})
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_paa_alone_runs_without_losses(self, runner, tmp_path):
        payload = {"mixture": SMALL_MIXTURE, "methods": ["paa"], "losses": [], "k": 2, "reps": 1}
        cfg = write_config(tmp_path, "sim.json", payload)
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        rows = json.loads((tmp_path / "out" / "benchmark.json").read_text())["rows"]
        assert [row["method"] for row in rows] == ["paa"]

    def test_negative_k_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {"mixture": SMALL_MIXTURE, "reps": 1})
        result = runner.invoke(main, ["simulate", "--config", cfg, "--k", "-1", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "k must be at least 0" in result.output

    def test_bray_curtis_loss_rejected(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            "simulate.json",
            {"mixture": SMALL_MIXTURE, "methods": ["paa"], "losses": ["l2_bray_curtis"]},
        )
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_replications_keep_their_loss_kind(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            "simulate.json",
            {
                "mixture": SMALL_MIXTURE,
                "methods": ["oracle", "ss"],
                "losses": ["l1", "l2"],
                "k": 2,
                "reps": 2,
                "seed": 3,
                "grid_size": 50,
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        replications = json.loads((out / "benchmark.json").read_text())["replications"]
        with (out / "replications.csv").open(newline="", encoding="utf-8") as handle:
            lines = list(csv.DictReader(handle))
        assert [r["loss"] for r in replications] == [line["loss"] for line in lines] == ["l1", "l2"] * 4
        assert [r["loss_value"] for r in replications] == [float(line["loss_value"]) for line in lines]

    def test_benchmark_determinism(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            "simulate.json",
            {
                "mixture": SMALL_MIXTURE,
                "methods": ["oracle", "paa"],
                "losses": ["l2"],
                "k": 2,
                "reps": 2,
                "seed": 9,
                "grid_size": 50,
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out2)]).exit_code == 0
        assert (out1 / "benchmark.json").read_bytes() == (out2 / "benchmark.json").read_bytes()


class TestEvaluateCommand:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"threshold_sets": 5}, "threshold_sets must be a list"),
            ({"threshold_sets": []}, "threshold_sets must hold at least one threshold set"),
            ({"threshold_sets": ["70,180"]}, "threshold_sets[0] must be a list of numbers"),
            ({"threshold_sets": [[70.0, 181.0], [70, "x"]]}, "cannot parse threshold_sets[1] thresholds"),
            ({"threshold_sets": [[70, 70]]}, "threshold_sets[0] thresholds must be distinct"),
            ({"threshold_sets": [[70, float("nan")]]}, "threshold_sets[0] thresholds must be finite"),
            ({"reference": 5}, "reference must be a list of numbers"),
            ({"reference": "70,181"}, "reference must be a list of numbers"),
            ({"reference": [181, 181.0]}, "reference thresholds must be distinct"),
        ],
        ids=["sets-number", "sets-empty", "set-string", "set-word", "set-repeated", "set-nan",
             "reference-number", "reference-string", "reference-repeated"],
    )
    def test_malformed_threshold_sets_are_config_errors(self, runner, tmp_path, overrides, message):
        payload = {
            "group_a": {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 1, "use": "empirical"},
            "group_b": {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 2, "use": "empirical"},
            "threshold_sets": [[70.0, 181.0]],
            "grid_size": 40,
            **overrides,
        }
        cfg = write_config(tmp_path, "evaluate.json", payload)
        out = tmp_path / "out"
        result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output and "fixed" not in result.output
        assert not (out / "comparison.json").exists()

    def test_smoke(self, runner, tmp_path):
        narrow = dict(SMALL_MIXTURE)
        narrow["base_thresholds"] = [90.0, 130.0, 170.0]
        narrow["noise_truncation"] = 15.0
        cfg = write_config(
            tmp_path,
            "evaluate.json",
            {
                "group_a": {"kind": "simulation", "mixture": narrow, "seed": 1, "use": "empirical"},
                "group_b": {"kind": "simulation", "mixture": SMALL_MIXTURE, "seed": 2, "use": "empirical"},
                "threshold_sets": [[70.0, 181.0], [120.0, 200.0]],
                "reference": [70.0, 181.0],
                "grid_size": 60,
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "comparison.json").read_text())
        assert len(payload["threshold_sets"]) == 2
        assert payload["threshold_sets"][0]["reduction_l2_pct"] == 0.0
        assert (out / "tables.md").read_text().count("| Range |") == 2

    def test_missing_group_is_config_error(self, runner, tmp_path):
        cfg = write_config(
            tmp_path, "evaluate.json", {"group_a": {"kind": "simulation"}, "threshold_sets": [[70.0]]}
        )
        result = runner.invoke(main, ["evaluate", "--config", cfg])
        assert result.exit_code == 2
        assert "config requires 'group_b'" in result.output

    def test_non_object_input_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, "evaluate.json", {"input": ["x"], "threshold_sets": [[70]]})
        result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "single-input evaluation requires a csv input with label_column" in result.output


class TestEvaluateLabelColumn:
    def test_single_csv_with_label_column(self, runner, tmp_path):
        rows = ["id,time,gl,group"]
        for subject in range(6):
            group = "healthy" if subject < 3 else "t1d"
            base = 100 if group == "healthy" else 220
            for i in range(60):
                rows.append(f"s{subject},{i * 300},{base + (i % 9)},{group}")
        data = tmp_path / "combined.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path,
            "labelled.json",
            {
                "input": {"kind": "csv", "path": str(data), "label_column": "group"},
                "threshold_sets": [[70.0, 181.0]],
                "grid_size": 50,
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["n_group_a"] == 3 and payload["n_group_b"] == 3

    def test_conflicting_labels_are_a_data_error(self, runner, tmp_path):
        rows = ["id,time,gl,group"]
        for subject in range(4):
            for i in range(60):
                group = "healthy" if subject < 2 or (subject == 2 and i == 59) else "t1d"
                rows.append(f"s{subject},{i * 300},{100 + (i % 9)},{group}")
        data = tmp_path / "combined.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path,
            "labelled.json",
            {
                "input": {"kind": "csv", "path": str(data), "label_column": "group"},
                "threshold_sets": [[70.0, 181.0]],
                "grid_size": 50,
            },
        )
        result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "subject s2 carries conflicting labels" in result.output
        assert (tmp_path / "out" / "ingest_report.json").exists()

    def test_identical_groups_accuracy_near_prevalence(self, runner, tmp_path):
        rows = ["id,time,gl"]
        for subject in range(8):
            for i in range(50):
                rows.append(f"s{subject},{i * 300},{100 + ((i * 7 + subject) % 40)}")
        data = tmp_path / "same.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path,
            "same.json",
            {
                "group_a": {"kind": "csv", "path": str(data)},
                "group_b": {"kind": "csv", "path": str(data)},
                "threshold_sets": [[70.0, 181.0]],
                "grid_size": 40,
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "comparison.json").read_text())
        for component in payload["threshold_sets"][0]["components"]:
            assert abs(component["accuracy"] - 0.5) <= 0.051

    def test_conflicting_group_and_input_keys(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            "conflict.json",
            {
                "input": {"kind": "csv", "path": "x.csv", "label_column": "g"},
                "group_a": {"kind": "csv", "path": "y.csv"},
                "threshold_sets": [[70.0]],
            },
        )
        result = runner.invoke(main, ["evaluate", "--config", cfg])
        assert result.exit_code == 2
