"""Benchmark of the cb2cf pipeline.

    python3 bench/run.py --workload embed|crossval|coldstart|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory and its inputs are generated from `--seed`. Each workload
runs in its own process (`all` starts one per workload and waits for each).
A run repeats the workload's operation for `--seconds` seconds and checks
every result against the workload's correctness gate. It sets the workload
up at the start, again at each eighth of that time and at the end
(`setup_s` is the median), so that the set-ups sample the same stretch of
time, and the same changes in host speed, as the operations. One operation
is, for `embed`, a `train-item2vec` plus a `train-word2vec` call; for
`crossval`, one `evaluate` call; for `coldstart`, one cold-item query. `BENCHMARK.json`
lists `embed` and `crossval`, which between them exercise every layer;
`coldstart` runs on request.

With `--trace 0` nothing is wrapped. The last line of standard output is a
JSON object with the end-to-end metrics, which every workload reports:
`setup_s`, `peak_rss_mb`, `op_p50_ms` and `ops_per_s` (operations over the
summed operation time). The lines before it name the workload's own
timings (`item2vec_s`, `word2vec_s`, `crossval_s`, `query_p50_ms`,
`query_tail_ms`, `queries_per_s`) with their units, each with its p90 (the
linear-interpolated 90th percentile), the highest percentile that has ten
samples beyond it when there are 11 or more, and the sample count, followed
by the input descriptors and the run environment.

With `--trace 1` one untimed operation warms the process, then for half
of `--seconds` each operation runs untraced and again traced with the
layer-boundary wrappers of `spans.py`. The metrics are the per-layer ones,
plus the tracing overhead (traced minus untraced time) and its base. A
layer the workload does not exercise reports 0.

The exit code is 0 when every gate passed, 1 when one failed, 2 when the
checkout has no program to measure.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: BLAS threads, at most the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# When set-ups happen, as shares of the measured time.
SETUP_POINTS = tuple(k / 8 for k in range(9))
TAIL_QUANTILE = 0.9
WORKLOAD_NAMES = ("embed", "crossval", "coldstart")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, as `statistics.quantiles(...,
    method="inclusive")`; the single value when there is only one."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: list[float]) -> str:
    """The fixed tail quantile, the highest percentile that still has at
    least ten samples beyond it (when there are 11 or more), and the count."""
    text = f"p{TAIL_QUANTILE * 100:g}={quantile(values, TAIL_QUANTILE):.6g}"
    n = len(values)
    if n >= 11:
        text += f" p{100 * (n - 10) / n:.1f}={sorted(values)[n - 11]:.6g}"
    return text + f" n={n}"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(workload, setup, seconds: float, tracer) -> tuple[list, list, list, list]:
    """Repeat the workload's op for `seconds`, calling `setup` (which
    returns its own duration) before the first op, before the first op
    past each later set-up point, and after the last op. With a tracer,
    one untimed op warms the process first, so the first timed op is not
    slower for reasons tracing does not cause; then each op is run
    untraced and traced on the same input, for half the time each."""
    setup_times = [setup()]
    warmup = [] if tracer is None else [workload.op(0)]
    limit = seconds if tracer is None else seconds / 2
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < limit:
        if (len(setup_times) < len(SETUP_POINTS) - 1 and time.perf_counter() - start
                >= SETUP_POINTS[len(setup_times)] * limit):
            setup_times.append(setup())
        plain.append(workload.op(index))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.op(index))
            finally:
                tracer.uninstall()
        index += 1
    while len(setup_times) < len(SETUP_POINTS):
        setup_times.append(setup())
    return setup_times, warmup, plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    workload = workloads.WORKLOADS[name]()
    directory = WORK / f"{name}-{os.getpid()}"

    def setup() -> float:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        gc.collect()  # the last op's garbage is not set-up work
        start = time.perf_counter()
        workload.setup(seed, directory)
        return time.perf_counter() - start

    try:
        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer()
        setup_times, warmup, plain, traced = measure(workload, setup, seconds, tracer)
        results = warmup + plain + traced
        problems = [p for r in results for p in r.problems]
        if name == "crossval":
            problems += workload.self_check()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            WORK.rmdir()

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    times = [r.seconds for r in plain]
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print("# inputs " + json.dumps(workload.descriptors(), sort_keys=True))
    print("# gate " + json.dumps(workload.gate_values, sort_keys=True))
    for metric, values, unit in workload.timings(plain):
        print(f"{name}.{metric}  {statistics.median(values):.6g} {unit}  ({summary(values)})")
    if name == "coldstart":
        print(f"{name}.query_tail_ms  {quantile(times, TAIL_QUANTILE) * 1e3:.6g} ms  (p90)")
        print(f"{name}.queries_per_s  {len(times) / sum(times):.6g} 1/s")
    print(f"{name}.setup_s  {setup_s:.6g} s  (median of "
          + " ".join(f"{t:.4g}" for t in setup_times) + ")")
    print(f"{name}.peak_rss_mb  {peak_rss_mb:.6g} MB")
    print(f"{name}.failed_share  {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)

    if trace:
        metrics = spans.layer_metrics(tracer)
        base = sum(r.seconds for r in plain)
        overhead = sum(r.seconds for r in traced) - base
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.base_s"] = (base, "s")
        metrics["trace.overhead_share"] = (overhead / base, "ratio")
        if tracer.missing:
            print("# trace: boundary functions not found: " + ", ".join(tracer.missing),
                  file=sys.stderr)
        for key, (value, unit) in metrics.items():
            print(f"{name}.{key}  {value:.6g} {unit}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
        }
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """One process per workload, in turn; prints each one's result line
    and ends with a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return max(worst, 1)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cb2cf" / "__init__.py").is_file():
        print(f"no cb2cf sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import cb2cf
    if Path(cb2cf.__file__).resolve().parent != SRC / "cb2cf":
        print(f"imported cb2cf from {cb2cf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
