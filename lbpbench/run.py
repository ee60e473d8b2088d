"""Benchmark entry point.

One run::

    python3 lbpbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 0

prints a host record and one report line per metric, then, as the last line,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace
1`` reports the per-layer metrics of a traced run of the same schedule.
The exit status is 1 when any operation failed its check.

Repeat mode runs one workload N times, each in a fresh process with seeds
``seed .. seed+N-1``, and prints per metric the median, the quartiles and
their spread against the bound in ``BENCHMARK.json``::

    python3 lbpbench/run.py --workload sql_label --repeat 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_mixed", "sql_label")  # see lbpbench/workloads.py
#: BLAS threading pinned for the benchmark and the server child it starts:
#: a 2-thread OpenBLAS on the small coupling GEMMs of a sweep only adds
#: jitter.  Set before numpy loads; recorded in the host record.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the workload this many times and print "
                             "the spread of every metric")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_once(args) -> int:
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import repro  # fails here, before any output, without src/

    source = os.path.join(ROOT, "src", "")
    if not os.path.abspath(repro.__file__).startswith(source):
        sys.exit(f"repro was imported from {repro.__file__}, "
                 f"not from {source}")

    from lbpbench import common, workloads

    common.say("host:", json.dumps(common.host_record()))
    ticks = common.host_cpu_ticks()
    metrics, attempted, failed = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    common.say(f"host steal: {common.steal_share(ticks):.1%} of CPU time "
               f"during the run")
    common.say(f"{args.workload} seed={args.seed} seconds={args.seconds} "
               f"trace={args.trace}: {failed} of {attempted} operations "
               f"failed")
    for line in metrics.report_lines():
        common.say(line)
    kind = "per_layer" if args.trace else "end_to_end"
    missing = [metric["name"] for metric in manifest()[kind]
               if metric["name"] not in metrics.values]
    if missing:
        sys.exit(f"no value for {', '.join(missing)}: too few samples")
    print(common.result_line(failed == 0, attempted, failed, metrics),
          flush=True)
    return 1 if failed else 0


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def repeat(args) -> int:
    """Run the workload ``args.repeat`` times and report the spreads."""
    spec = manifest()
    bounds = {metric["name"]: metric.get("bound")
              for metric in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    failures = 0
    for offset in range(args.repeat):
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload,
                   "--seed", str(args.seed + offset),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=900)
        wall = time.perf_counter() - started
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return 1
        failures += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        steal = next((line.split(":", 1)[1].split()[0] for line in lines
                      if line.startswith("host steal:")), "?")
        readings = ", ".join(f"{name}={metric['value']:.5g}"
                             for name, metric in result["metrics"].items())
        print(f"seed {args.seed + offset} ({wall:.0f} s, steal {steal}): "
              f"failed {result['failed']} of {result['attempted']}; "
              f"{readings}", flush=True)
    summary = {}
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) > 1:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound,
                         "runs": len(series)}
        print(f"{name:<32} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '-':>6}")
    print(json.dumps({"workload": args.workload, "failed": failures,
                      "metrics": summary}))
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
