#!/usr/bin/env python3
"""Records kept beside the benchmark.  Run from the repository root:

    python3 bench/record.py reference   # default-seed rows -> bench/reference.json
    python3 bench/record.py fullsize    # built-in fig8/9/10 -> bench/metadata.json

``reference`` runs one pass of each workload at the default seed, refuses
to record rows that fail the invariant checks, and writes them as the rows
later passes must reproduce.  Record them again only when the project
deliberately changes its outputs.

``fullsize`` times the built-in fig8, fig9 and fig10 scenarios once each at
their own 20 seeds, the runs users make, and stores the times beside the
baseline measured when the benchmark was introduced.
"""

import json
import sys
import time

import run  # pins the BLAS thread count before numpy loads
import harness

METADATA_FILE = harness.BENCH_DIR / "metadata.json"
FULL_SIZE = ("fig8", "fig9", "fig10")


def record_reference(modules) -> int:
    recorded = {}
    for workload in harness.WORKLOADS:
        plan = harness.make_plan(workload, harness.DEFAULT_SEED)
        harness.write_configs(modules, plan, harness.OUT_DIR / "record")
        ttd = harness.execute(modules, plan)
        outputs = harness.read_outputs(plan)
        problems = harness.check(plan, outputs, ttd, None)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        recorded[workload] = harness.reference_rows(plan, outputs, ttd)
    with open(harness.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (workload, tables) in enumerate(recorded.items()):
            fh.write(f" {json.dumps(workload)}: {{\n")
            for j, (name, rows) in enumerate(tables.items()):
                body = ",\n".join(f"   {json.dumps(r)}" for r in rows)
                sep = "," if j < len(tables) - 1 else ""
                fh.write(f"  {json.dumps(name)}: [\n{body}\n  ]{sep}\n")
            fh.write(" }" + ("," if i < len(recorded) - 1 else "") + "\n")
        fh.write("}\n")
    print(f"wrote {harness.REFERENCE_FILE}")
    return 0


def record_full_size(modules) -> int:
    meta = json.loads(METADATA_FILE.read_text(encoding="utf-8"))
    baseline = meta["full_size_record"]["roadmap_baseline_s"]
    out = harness.OUT_DIR / "record"
    out.mkdir(parents=True, exist_ok=True)
    measured = {}
    for name in FULL_SIZE:
        start = time.perf_counter()
        code = modules["xpcli"].main(["run", name, "--out", str(out / f"{name}.csv")])
        measured[name] = round(time.perf_counter() - start, 2)
        if code != 0:
            print(f"ucabeam run {name} exited with code {code}", file=sys.stderr)
            return 1
        print(f"{name}: {measured[name]} s (baseline {baseline[name]} s)")
    meta["full_size_record"].update(measured_s=measured, machine=run.machine_info())
    METADATA_FILE.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    print(f"updated {METADATA_FILE}")
    return 0


def main(argv) -> int:
    if argv not in (["reference"], ["fullsize"]):
        print(__doc__, file=sys.stderr)
        return 2
    modules = harness.import_package()
    if argv == ["reference"]:
        return record_reference(modules)
    return record_full_size(modules)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
