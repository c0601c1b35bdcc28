#!/usr/bin/env python3
"""Self-check of the benchmark at minimal size.  Run from the repository root:

    python3 bench/selfcheck.py

Runs every workload's minimal plan once untraced and twice traced, and
checks that every pass meets the correctness gate, that traced rows equal
untraced rows byte for byte, that the per-layer counts repeat exactly, that
no trace wrapper is left installed, and that the workloads separate the
layers the way the benchmark relies on.  Exits 0 when all of that holds.
"""

import sys

import run  # pins the BLAS thread count before numpy loads  # noqa: F401
import harness
import tracer


def check_workload(modules, workload):
    """(problems, per-layer counts of one traced pass) for one workload."""
    plan = harness.make_plan(workload, harness.DEFAULT_SEED, small=True)
    harness.write_configs(modules, plan, harness.OUT_DIR / "selfcheck" / workload)
    ttd = harness.execute(modules, plan)
    untraced = harness.read_outputs(plan)
    problems = harness.check(plan, untraced, ttd, None)
    trc = tracer.Tracer(modules)
    counts = []
    for _ in range(2):
        with trc.installed():
            with trc.traced_pass() as stats:
                ttd = harness.execute(modules, plan)
        if trc.leftovers():
            problems.append("a trace wrapper is still installed after the traced pass")
        outputs = harness.read_outputs(plan)
        problems += harness.check(plan, outputs, ttd, None)
        if outputs != untraced:
            problems.append("traced rows differ from untraced rows")
        counts.append(tracer.exact_counts(stats))
    if counts[0] != counts[1]:
        problems.append("per-layer counts differ between two traced passes")
    if counts[0]["xpcli.run.calls"] != len(plan.scenarios):
        problems.append("the runner was not traced")
    return problems, counts[0]


def separation(counts):
    """The layer separation the workloads are designed for."""
    problems = []
    for workload in ("se_shared_channel", "se_fresh_channel"):
        if any(counts[workload][f"{n}.calls"] for n in tracer.SPAN_NAMES
               if n.startswith("specfun.")):
            problems.append(f"{workload}: special functions were called")
    gain = counts["gain_analysis"]
    if any(gain[f"{n}.calls"] for n in tracer.SPAN_NAMES
           if n.startswith("precoding.") or n == "cxlinalg.svd"):
        problems.append("gain_analysis: a precoder or an SVD was computed")
    shared, fresh = (counts[w]["arraymodel.channel_matrix.unique_frac"]
                     for w in ("se_shared_channel", "se_fresh_channel"))
    if not shared < fresh:
        problems.append(f"channel_matrix.unique_frac: shared {shared} >= fresh {fresh}")
    return problems


def main() -> int:
    modules = harness.import_package()
    counts, failed = {}, False
    for workload in harness.WORKLOADS:
        problems, counts[workload] = check_workload(modules, workload)
        for p in problems:
            print(f"FAIL {workload}: {p}")
        print(f"{'FAIL' if problems else 'ok  '} {workload}")
        failed |= bool(problems)
    for p in separation(counts):
        print(f"FAIL separation: {p}")
        failed = True
    print("self-check", "failed" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
