"""One benchmark process: a set-up probe, one pass, or the reference.

    python3 perfbench/child.py {probe,pass,oracle} WORKLOAD SEED [--trace]

``run.py`` starts one of these per pass, so every pass begins from cold
program state and its peak memory is its own.  The process prints
``@@ready <seconds>`` once its first op can be issued, the seconds being
the process's CPU time since it started at the reference speed (the
benchmark's clock, see ``tracing.py``), and ``@@result <json>`` at the
end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def emit(tag: str, payload=None) -> None:
    line = f"@@{tag}" if payload is None else f"@@{tag} {json.dumps(payload)}"
    print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "pass", "oracle"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from tracing import clock

    stop_clock = clock.start()
    try:
        return run(args, clock)
    finally:
        stop_clock()


def run(args, clock) -> int:
    from tracing import Tracer, install_layers, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.mode == "oracle":
        emit("result", workload.oracle())
        return 0

    tracer = Tracer()
    if args.trace:
        install_layers(tracer)
    workload.timers(tracer)
    workload.start()
    try:
        emit("ready", clock())
        if args.mode == "probe":
            return 0
        wall, cpu = time.perf_counter(), time.process_time()
        result = workload.run_pass(tracer)
        result["wall_s"] = time.perf_counter() - wall
        result["cpu_s"] = time.process_time() - cpu
    finally:
        workload.stop()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        result["layers"] = layer_metrics(tracer)
        result["rows"] = tracer.rows(workload.anchor)
        result["trace_mismatches"] = workload.trace_mismatches(tracer, result)
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
