"""Spans around calls into the program's layers, recorded from outside it.

The benchmark does not instrument the program.  It replaces a layer's
public function (or method) with a wrapper that records a span — name,
start, end, parent (per thread) — and calls the original.  A function is
patched in every loaded ``repro`` module that holds it, so callers that
imported it by name are covered too.  Spans stay in memory; the pass
reduces them to per-layer totals when it ends.

A layer's time is the *self* time of its spans: a span's duration minus
the time its child spans cover.  Nested spans of the same layer (the
interpreter call inside a workload setup, say) take their parent's name,
so self times add up to the layer's total.

Every time the benchmark takes, spans and op latencies included, is read
from :func:`clock`: the CPU time of the whole benchmark process, all its
threads, in seconds at a reference host speed.  The program is one
CPU-bound process (the service workload's threads share one GIL), so on
an idle host its CPU time and its wall-clock agree.  On a shared virtual
machine neither is steady: the wall-clock also counts the time the
hypervisor gives the virtual CPU to other tenants, and the CPU itself
runs up to 1.4x slower for tens of seconds at a time while a neighbour
loads the core.  So :meth:`ReferenceClock.calibrate` times a fixed piece
of pure-Python work that uses none of the program's code, and until the
next calibration the clock runs at ``REFERENCE_S / that time`` (its
median over the latest calibrations) per CPU second; calibration time
itself is left out.  A thread of the benchmark process calibrates four
times a second (about 2% of a core).  The program's own speed does not
enter the factor, so a change to the program moves the clock's readings
as it moves its CPU time.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: CPU seconds one :func:`_calibration_work` takes at the reference
#: speed: about its time on a quiet 2-core x86 VM when the benchmark was
#: defined (1.4x that while a neighbour loaded the host).
REFERENCE_S = 0.001
#: Repetitions per calibration.
CALIBRATION_REPEATS = 3
#: The factor is the median over this many latest repetitions (five
#: calibrations): single ones jitter by +-25% from one to the next.
CALIBRATION_WINDOW = 15
_CALIBRATION_TABLE = [(i * 2654435761) & 0xFFFF for i in range(512)]


def _mix(acc: int, value: int, i: int) -> int:
    return (acc ^ (value * 31 + i)) & 0xFFFFF


def _calibration_work() -> int:
    """A fixed amount of interpreter work: calls, indexing, int arithmetic.

    Apart from one list it allocates no container objects, and it runs
    with the collector off, so its time never includes a garbage
    collection whose cost would depend on the program's heap.
    """
    table = _CALIBRATION_TABLE[:]
    acc = 0
    for i in range(4000):
        j = (acc + i) & 511
        acc = _mix(acc, table[j], i)
        table[j] = acc
    return acc


class ReferenceClock:
    """Process CPU time rescaled to the reference speed (module docstring).

    The state is one tuple, replaced whole, so a thread reading the clock
    while another calibrates sees either the old state or the new one.
    """

    def __init__(self) -> None:
        # (CPU seconds spent calibrating, raw reading at the last
        #  calibration, clock reading then, reference seconds per CPU second)
        self.state = (0.0, 0.0, 0.0, None)
        self.recent: deque[float] = deque(maxlen=CALIBRATION_WINDOW)
        self.lock = threading.Lock()

    def __call__(self) -> float:
        excluded, base_raw, base, factor = self.state
        return base + (time.process_time() - excluded - base_raw) * factor

    def calibrate(self) -> float:
        """Measure the host's current speed; returns the new factor.

        The calibration work is timed with its own thread's CPU time, so
        other threads may run meanwhile; their CPU time still counts.
        """
        with self.lock:
            excluded, base_raw, base, factor = self.state
            begin = time.thread_time()
            enabled = gc.isenabled()
            gc.disable()
            try:
                for _ in range(CALIBRATION_REPEATS):
                    start = time.thread_time()
                    _calibration_work()
                    self.recent.append(time.thread_time() - start)
            finally:
                if enabled:
                    gc.enable()
            excluded += time.thread_time() - begin
            after = time.process_time() - excluded
            measured = REFERENCE_S / statistics.median(self.recent)
            # The first calibration also scales the time before it.
            base += (after - base_raw) * (factor or measured)
            self.state = (excluded, after, base, measured)
            return measured

    def start(self, period: float = 0.25):
        """Calibrate now and then every ``period`` seconds from a daemon
        thread, so the clock follows the host through long ops; returns
        a function that stops the thread and waits for it."""
        self.calibrate()
        done = threading.Event()

        def loop() -> None:
            while not done.wait(period):
                self.calibrate()

        thread = threading.Thread(target=loop, name="calibrate", daemon=True)
        thread.start()

        def stop() -> None:
            done.set()
            thread.join()

        return stop


#: The benchmark's clock (see the module docstring).
clock = ReferenceClock()

#: Spans that group work without being a layer of their own; an
#: interpreter call directly under one of these is classified by the
#: function it runs rather than inheriting the parent's layer.
CONTAINERS = {"op", "dse.explore", "dse.evaluate", "service.execute"}

#: Layer columns of the traced tables, in pipeline order.
TABLE_COLUMNS = (
    ("compile", "frontend.compile_c"),
    ("optimize", "transforms.optimize_module"),
    ("cgpa", "pipeline.cgpa_compile"),
    ("setup", "interp.setup"),
    ("intern", "fleet.interned_workload"),
    ("sim", "hw.sim"),
    ("cost", "cost"),
    ("checksum", "interp.checksum"),
    ("mips", "hw.mips"),
    ("emit", "rtl.emit"),
    ("parse", "vsim.parse"),
    ("elab", "vsim.elaborate"),
    ("cosim", "vsim.cosim"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def sim_report_digest(report) -> str:
    """sha256 of one SimReport's cycles, stall breakdown and cache stats."""
    stats = report.cache_stats
    text = repr((
        report.cycles,
        sorted(
            (worker, sorted(breakdown.items()))
            for worker, breakdown in report.stall_breakdown.items()
        ),
        (stats.hits, stats.misses, stats.writebacks, stats.port_conflicts,
         stats.prefetches),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


class Tracer:
    """Collects spans from patched calls; one per pass process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return stack[-1].name if stack else None

    def span(self, name: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), stack[-1].id if stack else None, name,
            clock(), attrs=attrs,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._stack().pop()
        self.spans.append(span)

    # -- patching -------------------------------------------------------

    def wrap(self, original, name, on_call=None, on_return=None):
        """A wrapper recording one span per call of ``original``.

        ``name`` is a span name or ``f(tracer, args) -> name``;
        ``on_call(args) -> attrs`` and ``on_return(span, result, args)``
        attach attributes before and after the call.
        """
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(tracer, args) if callable(name) else name
            attrs = on_call(args) if on_call else {}
            span = tracer._open(span_name, attrs)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                tracer._close(span)
                raise
            if on_return is not None:
                on_return(span, result, args)
            tracer._close(span)
            return result

        traced.__wrapped__ = original
        return traced

    def patch_function(self, module: str, attr: str, name, **hooks) -> None:
        """Replace ``module.attr`` wherever a ``repro`` module holds it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(original, name, **hooks)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"tracing: {module}.{attr} not found")

    def patch_method(self, module: str, cls: str, attr: str, name,
                     **hooks) -> None:
        klass = getattr(importlib.import_module(module), cls)
        setattr(klass, attr, self.wrap(getattr(klass, attr), name, **hooks))

    # -- reduction ------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.end - span.start
                )
        return {
            span.id: span.end - span.start - child_time.get(span.id, 0.0)
            for span in self.spans
        }

    def layer_totals(self) -> dict[str, float]:
        """Span name -> summed self time."""
        self_time = self.self_times()
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + self_time[span.id]
        return totals

    def rows(self, anchor: str) -> list[tuple[str, float, dict[str, float]]]:
        """Per ``anchor`` span: (label, wall, layer -> self time inside it)."""
        by_id = {span.id: span for span in self.spans}
        self_time = self.self_times()
        out: dict[int, dict[str, float]] = {}
        for span in self.spans:
            node = span
            while node is not None and node.name != anchor:
                node = by_id.get(node.parent) if node.parent else None
            if node is None:
                continue
            row = out.setdefault(node.id, {})
            row[span.name] = row.get(span.name, 0.0) + self_time[span.id]
        anchors = sorted(
            (s for s in self.spans if s.name == anchor), key=lambda s: s.start
        )
        return [
            (s.attrs.get("label", "?"), s.end - s.start, out.get(s.id, {}))
            for s in anchors
        ]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> Span:
        self.span = self.tracer._open(self.name, self.attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.span)


# ---------------------------------------------------------------------------
# The layer map
# ---------------------------------------------------------------------------


def _interp_name(tracer: Tracer, args) -> str:
    """An interpreter call belongs to the layer that made it."""
    parent = tracer.parent_name()
    if parent is not None and parent not in CONTAINERS:
        return parent
    function = args[1]
    fname = function if isinstance(function, str) else function.name
    return {"setup": "interp.setup", "check": "interp.checksum"}.get(
        fname, "interp.run"
    )


def _interp_steps_before(args) -> dict:
    return {"steps0": args[0].steps}


def _interp_done(span: Span, result, args) -> None:
    span.attrs["steps"] = args[0].steps - span.attrs.pop("steps0")
    span.attrs["value"] = result


def _sim_done(span: Span, report, args) -> None:
    span.attrs["cycles"] = report.cycles
    span.attrs["digest"] = sim_report_digest(report)


def _mips_done(span: Span, result, args) -> None:
    span.attrs["cycles"] = result.cycles
    span.attrs["instructions"] = result.instructions


def _emit_done(span: Span, text, args) -> None:
    span.attrs["bytes"] = len(text)


def _cosim_done(span: Span, report, args) -> None:
    span.attrs["rtl_cycles"] = report.total_cycles


def _eval_done(span: Span, result, args) -> None:
    span.attrs["ok"] = result.status == "ok"


def install_layers(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark attributes time to."""
    import repro.dse.explore  # noqa: F401  (load every patched module)
    import repro.faults.sweep  # noqa: F401
    import repro.harness.runner  # noqa: F401
    import repro.service.jobs  # noqa: F401
    import repro.vsim.cosim  # noqa: F401

    fn = tracer.patch_function
    fn("repro.frontend", "compile_c", "frontend.compile_c")
    fn("repro.transforms", "optimize_module", "transforms.optimize_module")
    fn("repro.pipeline", "cgpa_compile", "pipeline.cgpa_compile")
    fn("repro.harness.runner", "setup_workload", "interp.setup")
    fn("repro.fleet", "interned_workload", "fleet.interned_workload")
    fn("repro.hw", "run_on_mips", "hw.mips", on_return=_mips_done)
    for attr in ("accelerator_area", "single_module_area", "function_aluts",
                 "power_report"):
        fn("repro.cost", attr, "cost")
    fn("repro.harness.runner", "cgpa_area", "cost")
    fn("repro.rtl.verilog", "generate_verilog_hierarchy", "rtl.emit",
       on_return=_emit_done)
    fn("repro.rtl.verilog", "generate_verilog", "rtl.emit",
       on_return=_emit_done)
    fn("repro.vsim.parser", "parse_verilog", "vsim.parse")
    fn("repro.vsim.elaborate", "elaborate", "vsim.elaborate")
    fn("repro.vsim.cosim", "run_rtl_cosim", "vsim.cosim",
       on_return=_cosim_done)
    fn("repro.service.jobs", "execute", "service.execute",
       on_call=lambda a: {"label": f"{a[0].kind}:{a[0].kernel}"})

    method = tracer.patch_method
    method("repro.interp", "Interpreter", "call", _interp_name,
           on_call=_interp_steps_before, on_return=_interp_done)
    method("repro.hw", "AcceleratorSystem", "run", "hw.sim",
           on_return=_sim_done)
    method("repro.dse", "Evaluator", "evaluate", "dse.evaluate",
           on_return=_eval_done)
    method("repro.dse.explore", "Explorer", "run", "dse.explore",
           on_call=lambda a: {"label": a[0].spec.name})


def layer_metrics(tracer: Tracer) -> dict:
    """Raw per-layer totals of one traced pass (summed across passes)."""
    names = {span.id: span.name for span in tracer.spans}
    counts = {
        "pipeline.compiles": 0, "interp.steps": 0, "hw.sim_cycles": 0,
        "hw.mips_instructions": 0, "rtl.verilog_bytes": 0,
        "vsim.rtl_cycles": 0, "dse.points": 0, "dse.ok_points": 0,
    }
    digests = []
    for span in tracer.spans:
        a = span.attrs
        if span.name == "pipeline.cgpa_compile":
            counts["pipeline.compiles"] += 1
        elif span.name == "hw.sim" and "digest" in a:
            counts["hw.sim_cycles"] += a["cycles"]
            digests.append(a["digest"])
        elif span.name == "hw.mips" and "instructions" in a:
            counts["hw.mips_instructions"] += a["instructions"]
        elif span.name == "rtl.emit" and names.get(span.parent) != "rtl.emit":
            # Only the outermost emit call: the hierarchy emits each module.
            counts["rtl.verilog_bytes"] += a.get("bytes", 0)
        elif span.name == "vsim.cosim" and "rtl_cycles" in a:
            counts["vsim.rtl_cycles"] += a["rtl_cycles"]
        elif span.name == "dse.evaluate":
            counts["dse.points"] += 1
            counts["dse.ok_points"] += bool(a.get("ok"))
        if span.name in ("interp.setup", "interp.checksum") and "steps" in a:
            counts["interp.steps"] += a["steps"]
    return {"times": tracer.layer_totals(), "counts": counts,
            "digests": digests}
