#!/usr/bin/env python3
"""Experiment benchmark of ucabeam: end-to-end pass cost and per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload se_shared_channel --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

One process per workload, workloads one at a time, BLAS pinned to one
thread.  After set-up and one untimed warm-up pass, passes repeat for
``--seconds``; every pass is checked by the correctness gate in
``harness.py``.  Lines before the last describe the run; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  Pass time is gated as ``run_cost``: the mean pass time over the
mean time of a fixed pure-Python loop (``_calibrate``) timed right before
and after every pass.  On a shared host the speed of the machine itself
drifts: the loop alternates between about 15 ms and 21.5 ms for seconds at
a time, and over ten 30 s runs per workload the median pass time spread by
19-23 % (interquartile range over median) while the ratio spread by 5-10 %.
The wall times (``run_s``, the median pass, and ``rows_per_s``), the loop
time and ``error_frac`` are printed beside the gated metrics.

``--trace 1`` alternates untraced passes with traced ones and reports the
per-layer metrics of ``tracer.py``; the spans of the first traced pass are
written to ``.bench_out/spans-<workload>-<seed>.jsonl``.

Exit codes: 0 with a result line (``correct`` may be false), 2 when the
benchmark cannot run here (no package source), anything else on a crash.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracer  # noqa: E402

T0 = time.perf_counter()
# Set-up is timed as the median of this many fresh processes.
SETUP_PROBES = 7
MIN_PASSES = 3
# No pass starts if it would likely end after this many seconds of the run.
PASS_BUDGET_S = 140.0

END_TO_END = (("run_cost", "cal"), ("rows_per_cal", "1/cal"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# Iterations of the calibration loop (about 8 ms on the 2-vCPU host the
# benchmark was made on).
CAL_LOOPS = 100_000


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*harness.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop once the first pass could begin (set-up timing probe)")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    workdir = harness.OUT_DIR / f"work-{os.getpid()}"
    try:
        modules = harness.import_package()
        plan = harness.make_plan(args.workload, args.seed)
        harness.write_configs(modules, plan, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            result = _measure_traced(args, modules, plan)
        else:
            result = _measure(args, modules, plan)
    except harness.SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_info(args, plan, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _setup_time(args) -> float:
    """Median time from starting a fresh interpreter until it could begin
    its first pass: interpreter start, package import, config generation
    and validation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line.strip() != "ready":
            raise harness.SetupError(f"set-up probe exited with code {proc.returncode}")
    return statistics.median(samples)


class _Tally:
    """Passes attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += problems[: 10 - len(self.messages)]


def _pass(modules, plan, reference, trc=None):
    """One gated pass; returns (seconds, outputs or None, stats or None,
    gate problems)."""
    stats = None
    start = time.perf_counter()
    try:
        if trc is None:
            ttd = harness.execute(modules, plan)
        else:
            with trc.traced_pass() as stats:
                ttd = harness.execute(modules, plan)
    except Exception as exc:  # a failing pass is counted; the run goes on
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return seconds, None, stats, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    outputs = harness.read_outputs(plan)
    return seconds, outputs, stats, harness.check(plan, outputs, ttd, reference)


def _more(times, deadline, minimum=MIN_PASSES) -> bool:
    now = time.perf_counter()
    if times and now - T0 + max(times) > PASS_BUDGET_S:
        return False
    return len(times) < minimum or now < deadline


def _calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def _measure(args, modules, plan) -> dict:
    setup_s = _setup_time(args)
    reference = harness.load_reference(plan)
    tally = _Tally()
    tally.add(_pass(modules, plan, reference)[3])  # warm-up, gated but not timed
    times, cals = [], []
    deadline = time.perf_counter() + args.seconds
    while _more(times, deadline):
        before = _calibrate()
        seconds, _, _, problems = _pass(modules, plan, reference)
        cals.append((before + _calibrate()) / 2.0)
        tally.add(problems)
        times.append(seconds)
    run_cost = statistics.fmean(times) / statistics.fmean(cals)
    run_s = statistics.median(times)
    values = {
        "run_cost": run_cost,
        "rows_per_cal": plan.rows / run_cost,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    shown = {
        "run_s": (run_s, "s"),
        "rows_per_s": (plan.rows / run_s, "1/s"),
        "cal_s": (statistics.fmean(cals), "s"),
    }
    return _result(tally, dict(END_TO_END), values, times, shown)


def _measure_traced(args, modules, plan) -> dict:
    reference = harness.load_reference(plan)
    tally = _Tally()
    trc = tracer.Tracer(modules)
    _, baseline, _, problems = _pass(modules, plan, reference)  # warm-up
    tally.add(problems)
    untraced, traced, per_pass = [], [], []
    deadline = time.perf_counter() + args.seconds
    while _more(untraced + traced, deadline, 2 * MIN_PASSES):
        if len(untraced) <= len(traced):
            seconds, _, _, problems = _pass(modules, plan, reference)
            tally.add(problems)
            untraced.append(seconds)
            continue
        with trc.installed():
            seconds, outputs, stats, problems = _pass(modules, plan, reference, trc)
        if trc.leftovers():
            problems.append("a trace wrapper is still installed after the traced pass")
        if outputs != baseline:
            problems.append("traced rows differ from untraced rows")
        if per_pass and tracer.exact_counts(stats) != tracer.exact_counts(per_pass[0]):
            problems.append("per-layer counts differ between traced passes")
        tally.add(problems)
        traced.append(seconds)
        per_pass.append(stats)
    trc.dump(harness.OUT_DIR / f"spans-{plan.workload}-{plan.seed}.jsonl")
    stats = tracer.median_stats(per_pass)
    stats["trace.overhead_frac"] = statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
    units = dict(tracer.per_layer_names())
    return _result(tally, units, {k: stats[k] for k in units}, traced)


def _result(tally, units, values, times, shown=None) -> dict:
    return {
        "shown": shown or {},
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "times": times,
        "messages": tally.messages,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    np = sys.modules["numpy"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = harness.ROOT / "src" / "ucabeam"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def _blas_threads() -> int:
    """Thread count OpenBLAS reports, or the pinned count if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return BLAS_THREADS


def _print_info(args, plan, result):
    times = result["times"]
    kind = "traced" if args.trace else "timed"
    seeds = (f", {plan.seeds_per_row} channel seed(s) per spectrum-efficiency row"
             if plan.seeds_per_row else "")
    print(f"# {plan.workload} seed {plan.seed}: {len(times)} {kind} passes "
          f"(mean {statistics.fmean(times):.4f} s, median {statistics.median(times):.4f} s, "
          f"min {min(times):.4f} s, max {max(times):.4f} s), {plan.rows} rows per pass{seeds}")
    print(f"# machine {json.dumps(machine_info())}")
    for msg in result["messages"]:
        print(f"# FAILED: {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, (value, unit) in result["shown"].items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    if not args.trace:
        frac = result["failed"] / result["attempted"]
        print(f"{'error_frac':<48} {frac:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} passes failed)")


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
