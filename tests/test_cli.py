import json
import logging

import pytest
from click.testing import CliRunner

from optithresh.cli import main


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

    def test_determinism_bytes(self, runner, tmp_path):
        cfg = self.config(tmp_path, method="de", k=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out1)])
        r2 = runner.invoke(
            main, ["--threads", "4", "optimize", "--config", cfg, "--out", str(out2)]
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
        assert (out1 / "tir_summary.csv").read_bytes() == (out2 / "tir_summary.csv").read_bytes()

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
            tmp_path, "evaluate.json", {"group_a": {"kind": "simulation"}, "threshold_sets": []}
        )
        result = runner.invoke(main, ["evaluate", "--config", cfg])
        assert result.exit_code == 2


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
