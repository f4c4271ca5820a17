"""Layered benchmark of the exploration pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-large --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a
separate traced pass and prints the per-layer ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/NOTES.md``.
"""

import os
import sys

# A pinned hash seed keeps set and dict iteration order, and with it the
# interpreter's work, the same from one run to the next.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, "PYTHONHASHSEED": "0"})

import time

WORKLOAD_START = time.perf_counter()

import argparse
import gc
import json
import shutil
import signal

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Setups per run; ``setup_s`` is the median, plus the one-off import time.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold-large", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from checks import Simulator
    from cold_large import ColdLarge
    from harness import (
        PER_LAYER_UNITS, Tracer, cpu_steal_s, host_probe, median, peak_rss_mib, reset_peak_rss,
    )
    from serve_mix import ServeMix

    import_s = time.perf_counter() - WORKLOAD_START
    workload = {"cold-large": ColdLarge, "serve-mix": ServeMix}[args.workload]

    work_root = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    state = None
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if state is not None:
                state.close()
                shutil.rmtree(state_dir, ignore_errors=True)
            state_dir = os.path.join(work_root, str(repeat))
            os.makedirs(state_dir)
            gc.collect()
            start = time.perf_counter()
            state = workload(args.seed, state_dir)
            setups.append(time.perf_counter() - start)
        gc.collect()
        reset_peak_rss(state.pids())
        tracer = Tracer() if args.trace else None
        steal_before = cpu_steal_s()
        outcome = state.run(args.seconds, tracer)
        steal_s = cpu_steal_s() - steal_before
        peak_mib = peak_rss_mib(state.pids())
        state.check(Simulator(os.path.join(HERE, ".refcache")), outcome)
        probe_s = host_probe()
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(work_root, ignore_errors=True)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} requests={outcome.attempted} "
        f"setups_s={[round(s, 3) for s in setups]} import_s={import_s:.3f} host.probe_s={probe_s:.4f} "
        f"steal_s={steal_s:.2f}"
    )
    if args.trace:
        traced = [w for w, t in zip(outcome.walls, outcome.traced) if t]
        untraced = [w for w, t in zip(outcome.walls, outcome.traced) if not t]
        extra = dict(outcome.extra)
        extra["trace.overhead_s"] = sum(traced) / len(traced) - sum(untraced) / len(untraced)
        extra["host.probe_s"] = probe_s
        values = outcome.tally.metrics(tracer, extra)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        tracer.write(os.path.join(HERE, ".out", f"spans-{args.workload}.jsonl"))
    else:
        values = outcome.end_to_end(workload.TAIL_PERCENTILE, workload.P50_ROUND_SIZE)
        values["setup_s"] = import_s + median(setups)
        values["peak_rss_mib"] = peak_mib
        units = {
            "setup_s": "s", "request_p50_s": "s", "request_tail_s": "s",
            "refs_per_s": "refs/s", "requests_per_s": "1/s", "peak_rss_mib": "MiB",
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The ``parallel`` engines leave a cached worker pool and CPython's
    shared-memory resource tracker running; both would otherwise
    outlive the run.  Anything else still below this process gets
    SIGTERM, then SIGKILL.
    """
    parallel = sys.modules.get("repro.core.parallel")
    if parallel is not None:
        parallel.shutdown_worker_pool()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop_tracker = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes its pipe, then waits for it to exit
    from harness import descendants

    def live_children():
        try:  # reap exited children so they leave the process table
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        return [pid for pid in descendants(os.getpid()) if pid != os.getpid()]

    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in live_children():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while live_children():
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        else:
            return


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        stop_children()
    sys.exit(code)
