"""Tests of the benchmark itself: span arithmetic, output checks, tiny passes.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_pass  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    tracer = bench_trace.Tracer(clock=_fake_clock([0, 1, 2, 4, 6, 7, 9, 10]))
    with tracer.span("root", tag="de"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert [s[bench_trace.NAME] for s in tracer.spans] == ["root", "a", "b", "c"]
    assert [s[bench_trace.PARENT] for s in tracer.spans] == [-1, 0, 1, 0]
    assert bench_trace.self_times(tracer.spans) == [3, 3, 2, 2]
    assert bench_trace.root_tags(tracer.spans) == ["de"] * 4


def test_summarize_sums_calls_self_time_and_work_per_root():
    tracer = bench_trace.Tracer(clock=_fake_clock([0, 1, 3, 4, 5, 6, 8, 9]))
    interp = tracer.wrap("interp.interp_rows", lambda n: [0] * n, lambda args, out: {"points": len(out)})
    for tag in ("sa", "paa"):
        with tracer.span("cli.optimize", tag=tag):
            interp(3 if tag == "sa" else 5)
    summary = bench_trace.summarize(tracer.spans)
    assert summary[("sa", "interp.interp_rows")] == {"calls": 1, "self_s": 2, "points": 3}
    assert summary[("paa", "interp.interp_rows")] == {"calls": 1, "self_s": 2, "points": 5}
    assert summary[("sa", "cli.optimize")]["self_s"] == 2


def test_install_wraps_imported_names_by_identity_and_undo_restores():
    import optithresh.cli  # noqa: F401
    import optithresh.losses as losses
    import optithresh.optimizers as optimizers
    from optithresh import _interp

    original = _interp.interp_rows
    tracer = bench_trace.Tracer()
    undo = bench_trace.install(tracer)
    try:
        assert optimizers.interp_rows is losses.interp_rows is _interp.interp_rows
        assert _interp.interp_rows is not original
        assert losses.pdist.__wrapped__ is optimizers.pdist.__wrapped__
        assert not hasattr(losses._loss_batch, "__wrapped__")
        assert hasattr(losses.Cohort.quantile_matrix, "__wrapped__")
    finally:
        undo()
    assert optimizers.interp_rows is original and losses.interp_rows is original
    assert not hasattr(losses.Cohort.quantile_matrix, "__wrapped__")
    assert not hasattr(losses.pdist, "__wrapped__")


def test_solver_entry_notes_each_entry_and_rejects_a_foreign_solver():
    import types

    import optithresh.optimizers

    cli = types.SimpleNamespace(optimize=optithresh.optimizers.optimize)
    entry = bench_pass.SolverEntry(cli, clock=lambda: 5.0)
    with pytest.raises(TypeError):
        cli.optimize()
    assert entry.entered == [5.0]
    entry.undo()
    assert cli.optimize is optithresh.optimizers.optimize
    with pytest.raises(RuntimeError):
        bench_pass.SolverEntry(types.SimpleNamespace(optimize=len))


@pytest.fixture(scope="module")
def l1_case(tmp_path_factory):
    """A tiny binned cohort and a correct result.json for it."""
    from optithresh import LossKind, LossSpec, MixtureSpec, ThresholdSet, evaluate_loss, generate_cohort

    spec = MixtureSpec(n_subjects=5, obs_per_subject=200)
    _, binned = generate_cohort(spec, 3)
    thresholds, fixed = [70.0, 180.0, 250.0], [70.0]
    loss = evaluate_loss(binned, ThresholdSet(tuple(thresholds), tuple(fixed)), LossSpec(LossKind.L1, 50))
    invocation = {"method": "sa", "loss": "l1", "fixed": fixed}
    return binned, invocation, {"thresholds": thresholds, "loss": loss}, tmp_path_factory.mktemp("out")


def _check(case, **changes):
    cohort, invocation, result, out = case
    (out / "result.json").write_text(json.dumps({**result, **changes}))
    return bench_pass.check_invocation(cohort, invocation, out, 0, 50)


def test_output_check_accepts_a_correct_result(l1_case):
    assert _check(l1_case) == []


@pytest.mark.parametrize(
    "thresholds, reason",
    [
        ([70.0, 250.0, 180.0], "not strictly increasing"),
        ([70.0, 180.0, 400.0], "not strictly inside"),
        ([71.0, 180.0, 250.0], "missing"),
    ],
)
def test_output_check_rejects_perturbed_thresholds(l1_case, thresholds, reason):
    reasons = _check(l1_case, thresholds=thresholds)
    assert reasons and reason in reasons[0]


def test_output_check_rejects_a_mismatched_loss(l1_case):
    loss = l1_case[2]["loss"]
    reasons = _check(l1_case, loss=loss * (1 + 1e-12))
    assert reasons and "evaluate_loss" in reasons[0]


def test_output_check_rejects_a_failed_invocation(l1_case):
    cohort, invocation, _, out = l1_case
    assert bench_pass.check_invocation(cohort, invocation, out, 4, 50) == ["exit code 4"]


def test_reference_check_flags_changed_grid_thresholds_and_worse_de_loss():
    plan = {"seed": 0, "workload": "w"}
    references = {"seed": 0, "workloads": {"w": {"sa": {"thresholds": [70.0]}, "de": {"loss": 1.0}}}}
    digests = {"result.json": "x"}
    good = [{"name": "sa", "reasons": [], "thresholds": [70.0], "digests": digests},
            {"name": "de", "reasons": [], "loss": 0.5, "digests": digests}]
    assert run.check(plan, [{"invocations": good}], references) == {}
    bad = [{**good[0], "thresholds": [72.0]}, {**good[1], "loss": 1.5}]
    assert set(run.check(plan, [{"invocations": bad}], references)) == {(0, "sa"), (0, "de")}
    assert run.check({**plan, "seed": 1}, [{"invocations": bad}], references) == {}


def test_artifacts_that_differ_between_passes_fail():
    one = {"name": "sa", "reasons": [], "digests": {"result.json": "a"}}
    two = {**one, "digests": {"result.json": "b"}}
    failures = run.check({"seed": 1}, [{"invocations": [one]}, {"invocations": [two]}], {"seed": 0})
    assert list(failures) == [(1, "sa")]


@pytest.mark.parametrize("workload", sorted(bench_workloads.BUILDERS))
def test_tiny_pass_of_each_workload(workload, tmp_path):
    plan = bench_workloads.prepare(workload, 5, tmp_path / "inputs", bench_workloads.TINY)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    plain = run.run_pass(plan_path, tmp_path / "plain", traced=False)
    traced = run.run_pass(plan_path, tmp_path / "traced", traced=True, verify=False)
    assert run.check(plan, [plain, traced], {"seed": -1}) == {}
    assert all(inv.get("thresholds") for inv in traced["invocations"])
    assert [inv["name"] for inv in plain["invocations"]] == [i["name"] for i in plan["invocations"]]
    assert all(plain[name] > 0 for name in run.END_TO_END)
    metrics = run.per_layer([plain, traced])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in metrics}
    first = plan["invocations"][0]["method"]
    assert metrics[f"optimize_s.{first}"] > 0
    assert 0 < plain["setup_s"] < plain["total_s"]
    assert metrics["interp.interp_rows.calls"] > 0
    if workload == "csv-semi":
        assert metrics["ingestion.rows_skipped"] > 0
        assert metrics["ingestion.apply_inclusion.calls"] > metrics["ingestion.empirical_histogram.calls"]
    if workload == "sim-l2":
        assert metrics["sa.kernel.pdist.calls"] > 0 and metrics["paa.kernel.pdist.calls"] > 0


def test_benchmark_json_lists_the_workloads_and_end_to_end_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"]: w["why"] for w in spec["workloads"]} == bench_workloads.WHY
