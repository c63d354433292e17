"""qrenyi benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload certify-large --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the benchmark imports qrenyi from ./src
and refuses to run without it.  One process, one thread, BLAS pinned to one
thread.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; see bench/README.md.
"""

import os

# Pinned before numpy loads: a BLAS pool on a small machine stalls on the
# scheduler and the benchmark would measure that, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

WORKLOADS = ("sample-small", "certify-large", "optimize")

#: Fresh processes whose set-up time is measured in each end-to-end run.
SETUP_PROBES = 3

#: Fewest rounds an end-to-end run makes.
MIN_ROUNDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def setup(workload, seed):
    """Make the first round's inputs and warm up.

    Returns the first round's operations and ``make(seed, round)``, which
    makes the operations of any round."""
    import workloads

    make, warmup = workloads.WORKLOADS[workload]
    ops = make(seed, 0)
    for op in warmup():
        op.run()
    return ops, make


def run_round(ops, tally):
    """Run each operation once; returns its time in s (None if it failed)."""
    times = []
    for op in ops:
        tally["attempted"] += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a failed operation is counted, not fatal
            tally["failed"] += 1
            traceback.print_exc()
            times.append(None)
            continue
        times.append(time.perf_counter() - t0)
        for problem in op.check(result):
            tally["problems"].append(f"{op.kind}: {problem}")
    return times


def setup_time(args):
    """Median time from starting a fresh process to its first operation."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


def end_to_end(args, ops, make, tally):
    """Whole rounds, each on fresh inputs, for as many as fit in
    ``--seconds`` at the mean round time so far, and at least MIN_ROUNDS.

    Fresh inputs in every round make a run's figures an average over many
    drawn inputs, not over one draw, and a longer run averages out more of
    the machine's own swings in speed."""
    total = 0.0
    headline_times = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for op, t in zip(ops, run_round(ops, tally)):
            if t is not None:
                total += t
                if op.headline:
                    headline_times.append(t)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        ops = make(args.seed, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (total / rounds, "s"),
        "op_p50_ms": (statistics.median(headline_times) * 1e3, "ms"),
        "setup_s": (setup_time(args), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(args, ops, tally):
    """One traced round and the coverage pass, then the dimension sweep for
    what is left of ``--seconds``."""
    import layers
    from tracer import Tracer

    start = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        run_round(ops, tally)
        layers.coverage(args.seed)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracer.metrics()
    left = args.seconds - (time.perf_counter() - start)
    metrics.update(layers.sweep(args.seed, left))
    metrics["qrenyi.import_s"] = (layers.import_time(SRC), "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qrenyi" / "__init__.py").is_file():
        print(f"error: no qrenyi sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ops, make = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    tally = {"attempted": 0, "failed": 0, "problems": []}
    if args.trace:
        metrics = traced(args, ops, tally)
    else:
        metrics = end_to_end(args, ops, make, tally)
    for problem in tally["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally["problems"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
