"""Record the reference results that runs at the reference seed are checked against.

Usage (from the repository root): python3 perfbench/record_references.py

Grid solvers (sa, ss, exhaustive, paa) must later return identical
thresholds; DE must return a loss no higher than the one recorded here.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEED = 0


def main() -> int:
    workloads = {}
    for workload in sorted(run.bench_workloads.BUILDERS):
        shutil.rmtree(run.WORK, ignore_errors=True)
        plan = run.bench_workloads.prepare(workload, SEED, run.WORK / "inputs")
        plan_path = run.WORK / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        report = run.run_pass(plan_path, run.WORK / "pass-0", traced=False)
        entries = {}
        for inv in report["invocations"]:
            if inv["reasons"]:
                raise SystemExit(f"{workload} {inv['name']}: {inv['reasons']}")
            method = next(i["method"] for i in plan["invocations"] if i["name"] == inv["name"])
            key = "loss" if method == "de" else "thresholds"
            entries[inv["name"]] = {key: inv[key]}
        workloads[workload] = entries
    shutil.rmtree(run.WORK, ignore_errors=True)
    payload = {"seed": SEED, "workloads": workloads}
    run.REFERENCES.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
