"""TVDP benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dashboard_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload street_fov_sharded --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload tenant_fanout --seconds 30 --repeat 5

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with spans recorded around each layer's public entry
points and reports the per-layer metrics.  ``--repeat n`` runs the
workload ``n`` times in fresh processes (seeds ``seed .. seed+n-1``, or
``seed`` every time with ``--same-seed``) and prints each metric's
median and quartiles.  The last line of standard output is always one
JSON object.
"""

import os

# NumPy must never start BLAS threads beside the shard workers; this has
# to happen before NumPy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the workload this many times and summarise")
    parser.add_argument("--same-seed", action="store_true",
                        help="with --repeat, give every run --seed (same inputs), so the "
                             "spread is the host's and the program's alone")
    return parser.parse_args(argv)


def _hold_workers_to_affinity() -> None:
    """The shard pool sizes itself from ``os.cpu_count()``, which ignores
    CPU affinity; give it no more workers than the CPUs the run may use."""
    from repro.shard.executor import ProcessShardPool

    init = ProcessShardPool.__init__

    def bounded(self, shards, max_workers=None):
        cpus = len(os.sched_getaffinity(0))
        init(self, shards, max_workers or max(1, min(len(shards), cpus)))

    ProcessShardPool.__init__ = bounded


def run_once(args: argparse.Namespace) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from perfbench.tracer import Tracer, install
    from perfbench.workload import CLOCK, WORKLOADS, Run

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # Every run, shard workers included (they inherit it), stays on one
    # CPU.  Left free on a 2-vCPU VM, the sharded run's latency followed
    # the host's scheduling of the second vCPU: search p50 4.3-10.9 ms and
    # p99 15-64 ms over ten runs (README, "Host drift").  The price: a
    # change that runs shards concurrently cannot show a gain here.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if WORKLOADS[args.workload].shards > 1:
        _hold_workers_to_affinity()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, CLOCK)
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, str(workdir), tracer)
    try:
        run.setup()
        run.warm_up()
        window = layers.Window() if tracer else None
        run.measure()
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    client = run.client
    print(f"workload {args.workload} seed {args.seed}: {run.rounds} rounds in "
          f"{run.measured_s:.1f} s; samples {run.sample_counts()}")
    print("operations (attempted / failed):")
    for kind in sorted(client.attempted):
        print(f"  {kind:34s} {client.attempted[kind]:7d} {client.failed.get(kind, 0):5d}")
    for reason in client.wrong:
        print(f"  WRONG {reason}")
    if tracer:
        metrics = layers.layer_metrics(tracer, run, window)
        units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
        print("self time by span, measured phase (name, calls, total ms, self ms):")
        for name, calls, total, own in layers.self_time_table(tracer, run.first_measured_request):
            print(f"  {name:32s} {calls:8d} {total:10.1f} {own:10.1f}")
        spans = ROOT / ".bench_build" / f"spans-{args.workload}.jsonl"
        tracer.dump(str(spans))
        print(f"{len(tracer)} spans written to {spans.relative_to(ROOT)}")
        result = {name: (metrics[name], units[name]) for name in units}
    else:
        result = run.end_to_end()
    for name, (value, unit) in result.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    attempted = sum(client.attempted.values())
    failed = sum(client.failed.values())
    return {
        "correct": not client.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }


def repeat(args: argparse.Namespace) -> dict:
    """Run the workload ``args.repeat`` times in fresh processes."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    outcomes = []
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        command = [sys.executable, __file__, "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        outcomes.append((result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {i + 1}/{args.repeat} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + json.dumps({k: round(m["value"], 4) for k, m in result["metrics"].items()}),
              flush=True)
    summary = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, series in values.items():
        if len(series) > 1:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        median = statistics.median(series)
        spread = (q3 - q1) / median if median and not math.isnan(median) else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name]}
        print(f"{name:40s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    return {"workload": args.workload, "runs": outcomes, "metrics": summary}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    result = repeat(args) if args.repeat else run_once(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
