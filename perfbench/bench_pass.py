"""One workload pass in a fresh process: every invocation, then output checks.

Usage: python3 bench_pass.py PLAN_JSON OUT_DIR TRACE(0|1) VERIFY(0|1)

Times are CPU seconds of this process (``time.process_time``): BLAS runs on
one thread and the package starts none, so CPU time is the program's work
and leaves out time spent waiting for a core.  Timing starts before
``optithresh.cli`` is imported.  Each invocation runs ``optithresh.cli.main``
in-process with its own output directory.  Set-up is what a user waits for
before a solver starts: the import, plus, in each invocation, the time until
the CLI enters ``optithresh.cli.optimize`` (config parsing and building the
cohort).  After timing ends, with VERIFY=1, the pass builds the cohorts
again through the public API and checks every invocation's result against
them; with VERIFY=0 it checks only exit codes, and the caller compares the
artifacts' digests with those of a verified pass.  The pass prints one JSON
object.  With TRACE=1 it also records spans (see ``bench_trace``) and writes
them to OUT_DIR/spans.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from bench_trace import INVOCATION, Tracer, install, summarize

ARTIFACTS = ("result.json", "tir_summary.csv", "linearization.csv")
CLOCK = time.process_time


class SolverEntry:
    """Rebinds ``optithresh.cli.optimize`` to note when each call enters it.

    The wrapped object must be the package's ``optimize`` (or its traced
    wrapper, which ``bench_trace.install`` binds in every namespace), so that
    a change to how the CLI reaches its solver fails the pass loudly.
    """

    def __init__(self, cli, clock=CLOCK):
        import optithresh.optimizers

        self.cli, self.solver, self.entered = cli, cli.optimize, []
        if self.solver is not optithresh.optimizers.optimize:
            raise RuntimeError("optithresh.cli.optimize is not optithresh.optimizers.optimize")

        def entering(*args, **kwargs):
            self.entered.append(clock())
            return self.solver(*args, **kwargs)

        cli.optimize = entering

    def undo(self) -> None:
        self.cli.optimize = self.solver


def build_cohorts(source: dict) -> dict:
    """Cohorts by name, built through the public API as the CLI builds them."""
    from optithresh import (
        Cohort,
        CsvSchema,
        InclusionPolicy,
        MixtureSpec,
        apply_inclusion,
        empirical_histogram,
        generate_cohort,
        read_cgm_csv,
    )

    if source["kind"] == "simulation":
        empirical, binned = generate_cohort(MixtureSpec(**source["mixture"]), source["seed"])
        return {"empirical": empirical, "binned": binned}
    columns = source["columns"]
    schema = CsvSchema(columns["id"], columns["time"], columns["value"])
    ingested = read_cgm_csv(source["path"], schema=schema, on_bad_row=source["on_bad_row"])
    policy = InclusionPolicy()
    kept = [s for s in ingested.series if apply_inclusion(s, policy).keep]
    return {"csv": Cohort([empirical_histogram(s) for s in kept])}


def run_cli(main, args: list) -> int:
    """Exit code of one in-process CLI invocation."""
    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def check_invocation(cohort, invocation: dict, out_dir: Path, code: int, grid_size: int) -> list:
    """Reasons the invocation's output is wrong; empty when it passes."""
    from optithresh import LossKind, LossSpec, ThresholdSet, evaluate_loss

    if code != 0:
        return [f"exit code {code}"]
    path = out_dir / "result.json"
    if not path.is_file():
        return ["no result.json"]
    result = json.loads(path.read_text(encoding="utf-8"))
    t = [float(v) for v in result["thresholds"]]
    fixed = invocation["fixed"]
    reasons = []
    if any(b <= a for a, b in zip(t, t[1:])):
        reasons.append(f"thresholds {t} not strictly increasing")
    lower, upper = cohort.domain.lower, cohort.domain.upper
    if t and not (lower < t[0] and t[-1] < upper):
        reasons.append(f"thresholds {t} not strictly inside ({lower}, {upper})")
    missing = [v for v in fixed if v not in t]
    if missing:
        reasons.append(f"fixed thresholds {missing} missing from {t}")
    if reasons:
        return reasons
    kind = LossKind.L2_BRAY_CURTIS if invocation["method"] == "paa" else LossKind(invocation["loss"])
    loss = evaluate_loss(cohort, ThresholdSet(tuple(t), tuple(fixed)), LossSpec(kind, grid_size))
    if loss != result["loss"]:
        reasons.append(f"reported loss {result['loss']!r} != evaluate_loss {loss!r}")
    return reasons


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""


def _iterations(result: dict) -> int:
    """DE generations or greedy steps, read from the result trace."""
    return max((int(step) for step, _ in result.get("trace") or []), default=0)


def run_pass(plan: dict, out_dir: Path, trace: bool, verify: bool) -> dict:
    """Time one pass of ``plan``, then check its outputs; the pass's report."""
    t0 = CLOCK()
    import optithresh.cli

    setup_s = CLOCK() - t0
    grid_size = plan["grid_size"]
    tracer = Tracer(clock=CLOCK) if trace else None
    undo = install(tracer) if trace else None
    solver = SolverEntry(optithresh.cli)
    codes, cpu, reached = {}, {}, {}
    for inv in plan["invocations"]:
        target = out_dir / inv["name"]
        solver.entered.clear()
        start = CLOCK()
        with tracer.span(INVOCATION, inv["method"]) if tracer else contextlib.nullcontext():
            codes[inv["name"]] = run_cli(optithresh.cli.main, [*inv["args"], "--out", str(target)])
        end = CLOCK()
        cpu[inv["name"]] = end - start
        reached[inv["name"]] = bool(solver.entered)
        setup_s += (solver.entered[0] if solver.entered else end) - start
    total_s = CLOCK() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solver.undo()

    report = {"setup_s": setup_s, "total_s": total_s, "peak_rss_mb": peak_rss_mb, "cpu": cpu}
    if trace:
        undo()
        spans_path = out_dir / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        report["layers"] = [[tag, name, entry] for (tag, name), entry in summarize(tracer.spans).items()]

    cohorts = build_cohorts(plan["input"]) if verify else None
    invocations = []
    for inv in plan["invocations"]:
        target = out_dir / inv["name"]
        code = codes[inv["name"]]
        if verify:
            reasons = check_invocation(cohorts[inv["cohort"]], inv, target, code, grid_size)
        else:
            reasons = [f"exit code {code}"] if code else []
        if not reached[inv["name"]]:
            reasons.append("never entered optithresh.cli.optimize, so set-up was not measured")
        entry = {"name": inv["name"], "reasons": reasons}
        if (target / "result.json").is_file():
            result = json.loads((target / "result.json").read_text(encoding="utf-8"))
            entry.update(
                thresholds=result["thresholds"],
                loss=result["loss"],
                evaluations=result["evaluations"],
                iterations=_iterations(result),
            )
        entry["digests"] = {name: _digest(target / name) for name in ARTIFACTS}
        invocations.append(entry)
    report["invocations"] = invocations
    import numpy
    import scipy

    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    report["package_dir"] = str(Path(optithresh.__file__).resolve().parent)
    return report


def main(argv: list) -> int:
    plan_path, out_dir, trace, verify = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = run_pass(plan, out, trace == "1", verify == "1")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
