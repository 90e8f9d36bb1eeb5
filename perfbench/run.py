"""The repository benchmark: four workloads, timed end to end and by layer.

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 12 --trace 0

Every pass runs in a fresh ``child.py`` process, so each starts from cold
program state.  ``--seconds`` sets the amount of work, not a deadline:
``max(1, round(seconds / NOMINAL_PASS_S))`` passes, the nominal pass time
being what one pass took when the benchmark was defined.  The work is
then the same on every commit and every run, so medians and percentiles
compare like with like.  After the passes a reference process computes
the outputs independently and every op is checked against it.

With ``--trace 0`` the result line carries the end-to-end metrics.  With
``--trace 1`` the run repeats each pass with spans recorded around every
layer call and the result line carries the per-layer metrics.  Lines
before the last one are a human-readable report; the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seconds of ``--seconds`` one pass stands for; only used to turn
#: ``--seconds`` into a pass count.  At ``--seconds 12``: one pass of
#: ``paper-suite`` (about 20 s of wall-clock on a 2-core x86 VM), two of
#: ``dse-sweep`` (about 20 s each) and eight of ``rtl-cosim`` (about 1.5 s
#: each), so that a run outlasts the host's slow phases, and five of
#: ``service-mixed`` (about 4 s each): an op's latency there depends on
#: which job the other worker runs meanwhile, so it needs many samples.
NOMINAL_PASS_S = {
    "paper-suite": 27.0,
    "dse-sweep": 6.0,
    "rtl-cosim": 1.5,
    "service-mixed": 2.4,
}
#: Workloads whose outputs a separate reference process recomputes.
HAS_ORACLE = {"paper-suite", "dse-sweep", "service-mixed"}
#: Set-up is measured at least this many times per run (extra processes
#: that stop at ``@@ready`` make up for runs with fewer passes).
MIN_SETUP_SAMPLES = 3
#: Wall-clock budget of one run; a child still going past it is killed.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metric -> (unit, better).  Layer times are self times per
#: pass; counts are per pass too.
PER_LAYER = {
    "failed_ratio": ("ratio", "lower"),
    "op_tail_pct": ("%", "higher"),
    "op_samples": ("count", "higher"),
    "cold_op_p50_s": ("s", "lower"),
    "cold_op_tail_s": ("s", "lower"),
    "warm_op_p50_s": ("s", "lower"),
    "paper_speedup_err_pct": ("%", "lower"),
    "frontend.compile_c_s": ("s", "lower"),
    "transforms.optimize_module_s": ("s", "lower"),
    "pipeline.cgpa_compile_s": ("s", "lower"),
    "pipeline.compiles": ("count", "lower"),
    "interp.setup_s": ("s", "lower"),
    "interp.checksum_s": ("s", "lower"),
    "interp.steps": ("count", "lower"),
    "interp.steps_per_s": ("1/s", "higher"),
    "hw.sim_s": ("s", "lower"),
    "hw.sim_cycles": ("cycles", "lower"),
    "hw.sim_cycles_per_s": ("cycles/s", "higher"),
    "hw.mips_s": ("s", "lower"),
    "hw.mips_instructions": ("count", "lower"),
    "hw.sim_digest": ("sha256-48bit", "lower"),
    "cost.s": ("s", "lower"),
    "fleet.interned_workload_s": ("s", "lower"),
    "dse.points": ("count", "higher"),
    "dse.points_per_compile": ("ratio", "higher"),
    "dse.ok_ratio": ("ratio", "higher"),
    "rtl.emit_s": ("s", "lower"),
    "rtl.verilog_bytes": ("bytes", "lower"),
    "vsim.parse_s": ("s", "lower"),
    "vsim.elaborate_s": ("s", "lower"),
    "vsim.cosim_s": ("s", "lower"),
    "vsim.rtl_cycles": ("cycles", "lower"),
    "vsim.cycles_per_s": ("cycles/s", "higher"),
    "service.exec_s": ("s", "lower"),
    "service.wait_s": ("s", "lower"),
    "service.warm_rtt_s": ("s", "lower"),
    "service.queue.executed": ("count", "lower"),
    "service.queue.cached": ("count", "higher"),
    "service.queue.coalesced": ("count", "higher"),
    "service.queue.failed": ("count", "lower"),
    "service.queue.crash_retries": ("count", "lower"),
    "service.store.hit_rate": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


#: Reference outputs of earlier runs in this checkout (see cached_oracle).
ORACLE_CACHE = os.path.join(ROOT, ".perfbench-work", "oracle")


class ChildFailed(RuntimeError):
    pass


def source_digest() -> str:
    """sha256 over every file of the program and the benchmark."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _oracle_path(workload: str) -> str:
    return os.path.join(ORACLE_CACHE, f"{workload}-{source_digest()[:24]}.json")


def cached_oracle(workload: str) -> dict | None:
    """The reference outputs an earlier run computed from identical sources.

    The references (kernel checksums at the shipped footprint, service
    artifact digests) depend on the source tree only, not on the seed,
    so an untraced run reuses them instead of recomputing them for 2-10 s.
    A traced run always recomputes, because it also reports the
    reference's own timings.
    """
    try:
        with open(_oracle_path(workload)) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def store_oracle(workload: str, oracle: dict | None) -> None:
    if oracle is None:
        return
    path = _oracle_path(workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(f"{path}.{os.getpid()}", "w") as handle:
        json.dump(oracle, handle)
    os.replace(f"{path}.{os.getpid()}", path)


def spawn(mode: str, workload: str, seed: int, trace: bool,
          deadline: float) -> tuple[float | None, dict | None]:
    """Run one child; returns (its set-up CPU seconds, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
           str(seed)] + (["--trace"] if trace else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready "):
                ready = float(line[len("@@ready "):])
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with {code}")
    return ready, result


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile by the Harrell-Davis estimator.

    A weighted mean of all order statistics, the weights being the
    Beta((n+1)q, (n+1)(1-q)) probability of each rank's slice of [0, 1]
    (q = p / 100).  Op latencies cluster by kernel, and a plain order
    statistic that sits on the edge between two clusters jumps from one
    to the other from run to run; the weighted mean moves with the
    values instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = p / 100.0
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    steps = 64  # midpoint rule within each rank's slice
    weights = [
        sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (p50 when there are too few samples for any)."""
    n = len(values)
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return percentile(values, best), best


def close(a, b, rel: float = 1e-9) -> bool:
    """The harness's own checksum tolerance (exact for integers)."""
    if isinstance(a, float) or isinstance(b, float):
        scale = max(abs(float(a)), abs(float(b)), 1.0)
        return abs(float(a) - float(b)) <= rel * scale
    return a == b


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_ops(ops: list[dict], oracle: dict | None) -> None:
    """Mark an op failed when its output differs from the reference."""
    if oracle is None:
        return
    refs = oracle.get("refs", oracle)
    for op in ops:
        if not op["ok"] or op["key"] is None:
            continue
        ref = refs.get(op["key"])
        if ref is None or op["check"] is None or not close(op["check"], ref):
            op["ok"] = False
            op["error"] = f"output {op['check']!r} != reference {ref!r}"


def compare_passes(untraced: list[dict], traced: list[dict]) -> int:
    """Ops whose cycles or outputs differ between untraced and traced runs."""
    first = {op["label"]: op for op in untraced[0]["ops"]}
    differ = 0
    for result in untraced[1:] + traced:
        for op in result["ops"]:
            base = first.get(op["label"])
            if base is None or base.get("cycles") != op.get("cycles") or \
                    (base["check"] is not None
                     and not close(base["check"], op["check"])):
                differ += 1
    return differ


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    latencies = [op["s"] for r in passes for op in r["ops"]]
    tail_s, _ = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / sum(r["window_s"] for r in passes),
        "op_p50_s": percentile(latencies, 50),
        "op_tail_s": tail_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
    }


def workload_extras(passes: list[dict]) -> dict:
    """Workload-specific latency and accuracy figures (0 where they do not
    apply), reported with the per-layer metrics."""
    ops = [op for r in passes for op in r["ops"]]
    latencies = [op["s"] for op in ops]
    cold = [op["s"] for op in ops if op.get("kind") == "cold"]
    warm = [op["s"] for op in ops if op.get("kind") == "warm"]
    errors = [r.get("paper_speedup_err_pct") for r in passes]
    return {
        "failed_ratio": sum(not op["ok"] for op in ops) / len(ops),
        "op_tail_pct": tail(latencies)[1],
        "op_samples": len(latencies),
        "cold_op_p50_s": percentile(cold, 50) if cold else 0.0,
        "cold_op_tail_s": tail(cold)[0] if cold else 0.0,
        "warm_op_p50_s": percentile(warm, 50) if warm else 0.0,
        "paper_speedup_err_pct": (statistics.median(errors)
                                  if None not in errors else 0.0),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(traced: list[dict], untraced: list[dict],
              oracle: dict | None) -> dict:
    """Per-pass layer totals from the traced passes."""
    n = len(traced)
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    digests: list[str] = []
    for result in traced:
        layers = result["layers"]
        for name, value in layers["times"].items():
            times[name] = times.get(name, 0.0) + value / n
        for name, value in layers["counts"].items():
            counts[name] = counts.get(name, 0.0) + value / n
        digests += layers["digests"]
    t = lambda name: times.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0.0)  # noqa: E731
    vsim_s = t("vsim.parse") + t("vsim.elaborate") + t("vsim.cosim")
    digest = hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()
    metrics = {
        "frontend.compile_c_s": t("frontend.compile_c"),
        "transforms.optimize_module_s": t("transforms.optimize_module"),
        "pipeline.cgpa_compile_s": t("pipeline.cgpa_compile"),
        "pipeline.compiles": c("pipeline.compiles"),
        "interp.setup_s": t("interp.setup"),
        "interp.checksum_s": t("interp.checksum"),
        "interp.steps": c("interp.steps"),
        "interp.steps_per_s": _ratio(
            c("interp.steps"), t("interp.setup") + t("interp.checksum")),
        "hw.sim_s": t("hw.sim"),
        "hw.sim_cycles": c("hw.sim_cycles"),
        "hw.sim_cycles_per_s": _ratio(c("hw.sim_cycles"), t("hw.sim")),
        "hw.mips_s": t("hw.mips"),
        "hw.mips_instructions": c("hw.mips_instructions"),
        # 48 bits of the digest: exact in a JSON number.
        "hw.sim_digest": int(digest[:12], 16) if digests else 0,
        "cost.s": t("cost"),
        "fleet.interned_workload_s": t("fleet.interned_workload"),
        "dse.points": c("dse.points"),
        "dse.points_per_compile": _ratio(
            c("dse.points"), c("pipeline.compiles")),
        "dse.ok_ratio": _ratio(c("dse.ok_points"), c("dse.points")),
        "rtl.emit_s": t("rtl.emit"),
        "rtl.verilog_bytes": c("rtl.verilog_bytes"),
        "vsim.parse_s": t("vsim.parse"),
        "vsim.elaborate_s": t("vsim.elaborate"),
        "vsim.cosim_s": t("vsim.cosim"),
        "vsim.rtl_cycles": c("vsim.rtl_cycles"),
        "vsim.cycles_per_s": _ratio(c("vsim.rtl_cycles"), vsim_s),
        "trace.overhead_s": (
            sum(r["window_s"] for r in traced)
            - sum(r["window_s"] for r in untraced)
        ) / n,
    }
    metrics.update(service_layer(traced, untraced, oracle))
    return metrics


def service_layer(traced, untraced, oracle) -> dict:
    names = ("executed", "cached", "coalesced", "failed", "crash_retries")
    out = {f"service.queue.{k}": 0.0 for k in names}
    out.update({"service.exec_s": 0.0, "service.wait_s": 0.0,
                "service.warm_rtt_s": 0.0, "service.store.hit_rate": 0.0})
    stats = [r["service_stats"] for r in traced if "service_stats" in r]
    if not stats or oracle is None:
        return out
    for name in names:
        out[f"service.queue.{name}"] = statistics.mean(
            s["queue"][name] for s in stats)
    out["service.store.hit_rate"] = statistics.mean(
        s["store"]["hit_rate"] for s in stats)
    exec_s = oracle["exec_s"]
    ops = [op for r in untraced for op in r["ops"]]
    cold = [op for op in ops if op["kind"] == "cold"]
    warm = [op["s"] for op in ops if op["kind"] == "warm"]
    out["service.exec_s"] = statistics.mean(exec_s.values())
    out["service.wait_s"] = statistics.mean(
        op["s"] - exec_s[op["key"]] for op in cold)
    out["service.warm_rtt_s"] = statistics.mean(warm)
    return out


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def layer_table(traced: list[dict]) -> list[str]:
    """Rows of the first traced pass with each row's dominant layer marked."""
    from tracing import TABLE_COLUMNS

    rows = traced[0]["rows"]
    used = [(col, name) for col, name in TABLE_COLUMNS
            if any(layers.get(name) for _, _, layers in rows)]
    header = f"{'row':28s} {'total':>7s} " + " ".join(
        f"{col:>9s}" for col, _ in used) + f" {'other':>8s}"
    lines = ["layer self time (s) per row; * marks the dominant layer", header]
    for label, total, layers in rows:
        values = [layers.get(name, 0.0) for _, name in used]
        other = total - sum(values)
        top = max(range(len(values)), key=values.__getitem__) if values else -1
        cells = " ".join(
            f"{v:8.3f}{'*' if i == top else ' '}" for i, v in enumerate(values))
        lines.append(f"{label[:28]:28s} {total:7.3f} {cells} {other:8.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    workload, seed, trace = args.workload, args.seed, bool(args.trace)

    n_passes = max(1, round(args.seconds / NOMINAL_PASS_S[workload]))
    try:
        setup, untraced, traced = [], [], []
        for _ in range(n_passes):
            ready, result = spawn("pass", workload, seed, False, deadline)
            setup.append(ready)
            untraced.append(result)
        for _ in range(0 if trace else MIN_SETUP_SAMPLES - n_passes):
            setup.append(spawn("probe", workload, seed, False, deadline)[0])
        for _ in range(n_passes if trace else 0):
            traced.append(spawn("pass", workload, seed, True, deadline)[1])
        oracle = None if trace else cached_oracle(workload)
        if oracle is None and workload in HAS_ORACLE:
            oracle = spawn("oracle", workload, seed, False, deadline)[1]
            store_oracle(workload, oracle)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for result in untraced + traced:
        check_ops(result["ops"], oracle)
    ops = [op for r in untraced for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    mismatched = sum(r.get("trace_mismatches", 0) for r in traced)
    if trace:
        mismatched += compare_passes(untraced, traced)
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['label']}: {op.get('error')}")

    e2e = end_to_end(untraced, setup)
    extras = workload_extras(untraced)
    print(f"workload {workload}  seed {seed}  passes {n_passes}  "
          f"ops {len(ops)}  failed {failed}")
    print(f"  timed passes: {sum(r['window_s'] for r in untraced):.3f} s "
          f"reference-speed CPU, {sum(r['cpu_s'] for r in untraced):.3f} s "
          f"CPU, {sum(r['wall_s'] for r in untraced):.3f} s wall-clock")
    for name, value in e2e.items():
        print(f"  {name:24s} {value:14.6g} {END_TO_END_UNITS[name]}")
    for name, value in extras.items():
        print(f"  {name:24s} {value:14.6g}")
    if trace:
        metrics = {**extras, **per_layer(traced, untraced, oracle)}
        for line in layer_table(traced):
            print(line)
        for name, value in metrics.items():
            print(f"  {name:32s} {value:16.6g}")
        print(f"  trace decomposition mismatches: {mismatched}")
        out = {k: {"value": v, "unit": PER_LAYER[k][0]}
               for k, v in metrics.items()}
    else:
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in e2e.items()}
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
