"""Benchmark of pg552: times the user's jobs end to end and, in a separate
traced run, each layer.

    python3 bench/run.py --workload {report,groups,census} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Load is one closed loop in one thread: a round starts when the
previous one has ended, and rounds repeat until ``--seconds`` have passed.
The last line of stdout is the result, with the end-to-end metrics of
BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``);
the line before it carries machine information, workload figures, the
deterministic counters of the first traced round and report digests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

from speed import Clock
from tracing import COUNTERS, Tracer, totals
from workloads import WORKLOADS, Ops

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
MODULES = ("construction", "incidence", "graphs", "cliques", "symmetry", "geometric_search")
SETUPS = 5  # set-ups per run; setup_s is their median
TIME_LIMIT = 170.0  # seconds a run may take, with a margin below 180
COUNTER_SUFFIXES = (".calls",) + tuple(f".{c}" for c, _ in COUNTERS.values())


def fresh_import() -> SimpleNamespace:
    """Import pg552 anew, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "pg552" or n.startswith("pg552.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"pg552.{m}") for m in MODULES})


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def measure(args, workload, clock: Clock, workdir: str, deadline: float):
    """Set up and run rounds.  Returns (info, result, metric values), or
    None when no round ran to its end."""
    tracer = Tracer() if args.trace else None

    def set_up(traced: bool):
        mods = fresh_import()
        if traced:
            tracer.install()
        return workload(mods, workdir, deadline)

    setup_ops, setup_s = Ops(clock), []
    for i in range(SETUPS):
        before = setup_ops.spent()
        work = setup_ops.call("setup", set_up, tracer is not None and i == SETUPS - 1)
        ref, busy = (a - b for a, b in zip(setup_ops.spent(), before))
        setup_s.append(ref)
    if tracer is not None:
        tracer.uninstall()
        # spans hold wall times; scale them to reference seconds
        setup_layers = totals(tracer.take(), ref / busy)

    def timed_round(ops: Ops, k: int, traced: bool):
        """Reference and wall seconds of one round, or None if it raised."""
        before, failed = ops.spent(), ops.failed
        seed = args.seed * 1_000_003 + k
        if traced:
            tracer.install()
        try:
            work.run_round(ops, random.Random(seed), tracer if traced else None)
        except Exception as e:  # count it and go on with the next round
            traceback.print_exc()
            if ops.failed == failed:
                work.problems.append(f"check raised {e!r}")
            return None
        finally:
            if traced:
                tracer.uninstall()
        return tuple(a - b for a, b in zip(ops.spent(), before))

    ops, traced_ops = Ops(clock), Ops(clock)
    round_s, traced_s, overhead_s, round_layers = [], [], [], []
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < args.seconds:
        if tracer is None:
            untraced = timed_round(ops, k, False)
            if untraced is not None:
                round_s.append(untraced[0])
        else:
            traced = timed_round(traced_ops, k, True)
            spans = tracer.take()
            if traced is not None:
                traced_s.append(traced[0])
                round_layers.append(totals(spans, traced[0] / traced[1]))
            # the same round untraced, for the overhead, if it fits in time
            if traced is not None and time.monotonic() + 1.5 * traced[1] < deadline:
                untraced = timed_round(ops, k, False)
                if untraced is not None:
                    overhead_s.append(traced[0] - untraced[0])
        k += 1
    for problem in work.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    rounds = len(traced_s if tracer else round_s)
    if not rounds:
        return None

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": rounds, "machine": machine(),
            "figures": work.figures(traced_ops if tracer else ops, rounds)}
    result = {"correct": not work.problems,
              "attempted": ops.attempted + traced_ops.attempted,
              "failed": ops.failed + traced_ops.failed}
    if tracer is None:
        values = {
            "round_s": statistics.median(round_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(workload.rusage).ru_maxrss / 1024,
        }
        return info, result, values
    # one traced set-up plus the mean traced round
    layers = dict(setup_layers)
    for per_round in round_layers:
        for key, v in per_round.items():
            layers[key] = layers.get(key, 0) + v / len(round_layers)
    layers["trace.round_s"] = statistics.median(traced_s)
    layers["trace.overhead_s"] = statistics.median(overhead_s) if overhead_s else 0.0
    first = dict(setup_layers)
    for key, v in round_layers[0].items():
        first[key] = first.get(key, 0) + v
    info["counters"] = {key: v for key, v in sorted(first.items())
                        if key.endswith(COUNTER_SUFFIXES)}
    return info, result, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not os.path.isfile(os.path.join(SRC, "pg552", "__init__.py")):
        print(f"error: no pg552 package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)
    # one CPU for this process and the commands it starts, so that the
    # speed samples describe the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        with Clock() as clock:
            measured = measure(args, WORKLOADS[args.workload], clock, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if measured is None:
        print("error: no round ran to its end", file=sys.stderr)
        return 1
    info, result, values = measured
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                         for m in metrics}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
