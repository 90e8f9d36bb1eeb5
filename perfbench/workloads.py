"""The four workloads: inputs from a seed, one pass of ops, a reference.

Each workload calls the program's entry points with their own defaults
(engine included), so a change of default shows up as what users get.
A pass runs in a fresh process (see ``child.py``), so no pass reuses
compile, setup or simulator state from an earlier one.

Inputs.  Every kernel runs its shipped workload at the shipped footprint
(``KernelSpec.with_workload(0)``: paper scale; ``rtl-cosim`` uses its
smoke scale, which is ``harness rtl``'s default).  The seed orders the
ops of a pass (seed 0 keeps the registry order) and picks the service's
repeated requests.  It does not change the kernels' data: their work
depends on it too strongly for runs on different seeds to be compared
(bfs from an isolated start vertex finishes in 94 cycles instead of
11063).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import threading
from collections import deque

from repro.dse import ConfigSpace, GridStrategy
from repro.dse.explore import Explorer
from repro.errors import CgpaError
from repro.frontend import compile_c
from repro.harness import runner
from repro.interp import Interpreter
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME, PAPER_KERNELS
from repro.service import JobRequest, ServiceClient
from repro.service import jobs
from repro.service.app import ServiceConfig, start_service
from repro.transforms import optimize_module
from repro.vsim import cosim
from run import close
from tracing import clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeded_order(specs, seed: int) -> list:
    """``specs`` at their shipped footprint, in an order drawn from ``seed``."""
    specs = [spec.with_workload(0) for spec in specs]
    if seed:
        random.Random(seed).shuffle(specs)
    return specs


def reference_checksum(spec) -> float:
    """Sequential interpreter checksum on the plain optimized module."""
    module = compile_c(spec.source, spec.name)
    optimize_module(module)
    memory, globals_, args = runner.setup_workload(module, spec)
    Interpreter(module, memory, global_addresses=globals_).call(
        spec.measure_entry, args
    )
    return float(
        Interpreter(module, memory, global_addresses=globals_).call(
            spec.check_function, []
        )
    )


def _op(label, seconds, ok, key=None, check=None, **extra) -> dict:
    return {"label": label, "s": seconds, "ok": ok, "key": key,
            "check": check, **extra}


class Workload:
    """One pass of ops; ``ops`` are dicts made by :func:`_op`."""

    #: Kernels whose oracle checksum the parent compares ``check`` with.
    oracle_kernels: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def timers(self, tracer) -> None:
        """Patch the call that marks one op, when the entry point hides it."""

    def start(self) -> None:
        """Set-up that belongs before the first op (service boot)."""

    def stop(self) -> None:
        pass

    def run_pass(self, tracer) -> dict:
        raise NotImplementedError

    def trace_mismatches(self, tracer, result: dict) -> int:
        """Ops whose traced layer calls disagree with the op's own result."""
        return 0

    def oracle(self) -> dict:
        return {
            name: reference_checksum(KERNELS_BY_NAME[name].with_workload(0))
            for name in self.oracle_kernels
        }


class PaperSuite(Workload):
    """All kernels x (mips, legup, cgpa-p1) through ``run_kernel``."""

    oracle_kernels = tuple(k.name for k in ALL_KERNELS)
    anchor = "op"

    def timers(self, tracer) -> None:
        tracer.patch_function(
            "repro.harness.runner", "run_backend", "op",
            on_call=lambda a: {"label": f"{a[0].name}/{a[1]}"},
        )

    def run_pass(self, tracer) -> dict:
        specs = seeded_order(ALL_KERNELS, self.seed)
        ops, runs = [], {}
        start = clock()
        for spec in specs:
            mark, error = len(tracer.spans), None
            try:
                run = runner.run_kernel(spec, validate=True)
            except CgpaError as exc:
                run, error = None, str(exc)
            spans = [s for s in tracer.spans[mark:] if s.name == "op"]
            for span in spans:
                backend = span.attrs["label"].split("/", 1)[1]
                result = run.results.get(backend) if run else None
                ops.append(_op(
                    span.attrs["label"], span.end - span.start,
                    result is not None, key=spec.name,
                    check=result.checksum if result else None,
                    cycles=result.cycles if result else None,
                    error=None if result else error,
                ))
            if run is not None:
                runs[spec.name] = run
        window = clock() - start
        return {"ops": ops, "window_s": window,
                "paper_speedup_err_pct": _paper_error(runs)}

    def trace_mismatches(self, tracer, result: dict) -> int:
        """The simulator (or MIPS model) span of each op must report the
        op's cycles, and its checksum span the op's checksum."""
        by_id = {span.id: span for span in tracer.spans}
        seen: dict[int, dict] = {}
        for span in tracer.spans:
            node = span
            while node.parent is not None and node.name != "op":
                node = by_id[node.parent]
            if node.name != "op" or node is span:
                continue
            found = seen.setdefault(node.id, {})
            if span.name in ("hw.sim", "hw.mips") and "cycles" in span.attrs:
                found["cycles"] = span.attrs["cycles"]
            elif span.name == "interp.checksum" and "value" in span.attrs:
                found["check"] = float(span.attrs["value"])
        op_spans = sorted((s for s in tracer.spans if s.name == "op"),
                          key=lambda s: s.start)
        bad = 0
        for span, op in zip(op_spans, result["ops"], strict=True):
            found = seen.get(span.id, {})
            if found.get("cycles") != op["cycles"] or op["check"] is None \
                    or not close(found.get("check", math.nan), op["check"]):
                bad += 1
        return bad


def _paper_error(runs) -> float | None:
    """Geomean |simulated / paper - 1| in %, legup and cgpa-p1 over mips."""
    errors = []
    for spec in PAPER_KERNELS:
        run = runs.get(spec.name)
        if run is None:
            return None
        for backend, paper in (("legup", spec.paper.speedup_legup),
                               ("cgpa-p1", spec.paper.speedup_cgpa)):
            errors.append(abs(run.speedup(backend) / paper - 1.0) * 100.0)
    return math.exp(sum(math.log(e) for e in errors) / len(errors))


class DseSweep(Workload):
    """A serial grid sweep (the ``harness dse`` defaults) over 4 kernels."""

    oracle_kernels = ("bfs", "spmv", "top-k", "1D-Gaussblur")
    anchor = "dse.explore"
    space = dict(n_workers=[1, 2, 4], fifo_depths=[4, 16],
                 cache_lines=[128, 512], cache_ports=[2, 8])

    def timers(self, tracer) -> None:
        tracer.patch_method(
            "repro.dse", "Evaluator", "evaluate", "op",
            on_call=lambda a: {"label": a[1].label},
        )

    def run_pass(self, tracer) -> dict:
        specs = seeded_order(
            [KERNELS_BY_NAME[n] for n in self.oracle_kernels], self.seed)
        ops = []
        start = clock()
        for spec in specs:
            mark = len(tracer.spans)
            with Explorer(spec, ConfigSpace(**self.space)) as explorer:
                sweep = explorer.run(GridStrategy())
            seconds = {
                s.attrs["label"]: s.end - s.start
                for s in tracer.spans[mark:] if s.name == "op"
            }
            for result in sweep.results:
                label = result.point.label
                ops.append(_op(
                    f"{spec.name}/{label}", seconds[label],
                    result.status == "ok", key=spec.name,
                    check=result.checksum, cycles=result.cycles,
                ))
        return {"ops": ops, "window_s": clock() - start}


class RtlCosim(Workload):
    """``run_rtl_cosim`` on every kernel at its smoke scale."""

    anchor = "op"

    def run_pass(self, tracer) -> dict:
        specs = seeded_order(ALL_KERNELS, self.seed)
        ops = []
        start = clock()
        for spec in specs:
            with tracer.span("op", label=spec.name) as span:
                try:
                    report = cosim.run_rtl_cosim(spec)
                    ok, cycles, error = report.ok, report.total_cycles, None
                except CgpaError as exc:
                    ok, cycles, error = False, None, str(exc)
            ops.append(_op(spec.name, span.end - span.start, ok,
                           cycles=cycles, error=error))
        return {"ops": ops, "window_s": clock() - start}


def artifact_digest(artifact: dict) -> str:
    return hashlib.sha256(
        json.dumps(artifact, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class ServiceMixed(Workload):
    """A closed loop of 2 clients against an in-process service.

    Every unique request runs cold first, in a fixed order; then a
    seeded sample of them is repeated and served from the store.  Fewer
    repeats than cold requests keep the median op a cold one.
    """

    anchor = "service.execute"
    clients = 2
    repeats = 4
    kernels = ("ks", "bfs", "spmv", "top-k")
    small = ("spmv",)
    #: The sweep leaves out the simulate job's default point, so whether
    #: that job finds it in the store never depends on thread timing.
    dse_options = {"n_workers": [1, 2], "fifo_depths": [4, 16]}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        jobs_ = [(kind, k, None) for kind in ("compile", "simulate", "rtl")
                 for k in self.kernels]
        jobs_ += [("dse", k, self.dse_options) for k in self.small]
        jobs_ += [("faults", k, None) for k in self.small]
        self.unique = [JobRequest.make(kind, k, opts)
                       for kind, k, opts in jobs_]
        self.warm = random.Random(seed).sample(self.unique, self.repeats)
        self.handle = None

    def start(self) -> None:
        self.store = os.path.join(ROOT, ".perfbench-work", f"store-{os.getpid()}")
        shutil.rmtree(self.store, ignore_errors=True)
        self.handle = start_service(ServiceConfig(
            port=0, workers=2, processes=1, store_root=self.store,
        ))
        with ServiceClient(port=self.handle.port) as client:
            if not client.health():
                raise RuntimeError("service did not come up healthy")

    def stop(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        shutil.rmtree(self.store, ignore_errors=True)

    def _phase(self, requests, kind: str, ops: list) -> float:
        pending = deque(requests)
        lock = threading.Lock()

        def client_loop(index: int) -> None:
            with ServiceClient(port=self.handle.port,
                               client_id=f"bench-{index}") as client:
                while True:
                    with lock:
                        if not pending:
                            return
                        request = pending.popleft()
                    label = f"{request.kind}:{request.kernel}"
                    t0 = clock()
                    try:
                        artifact = client.run(request, retries=4)
                        ok, check, error = True, artifact_digest(artifact), None
                    except Exception as exc:  # every failure is counted
                        ok, check, error = False, None, repr(exc)
                    ops.append(_op(label, clock() - t0, ok,
                                   key=request.key, check=check, kind=kind,
                                   error=error))

        start = clock()
        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return clock() - start

    def run_pass(self, tracer) -> dict:
        ops: list = []
        window = self._phase(self.unique, "cold", ops)
        window += self._phase(self.warm, "warm", ops)
        with ServiceClient(port=self.handle.port) as client:
            stats = client.stats()
        return {"ops": ops, "window_s": window, "service_stats": stats}

    def oracle(self) -> dict:
        """Direct ``jobs.execute`` of every unique request, timed."""
        refs, exec_s = {}, {}
        for request in self.unique:
            t0 = clock()
            artifact = jobs.execute(request)
            exec_s[request.key] = clock() - t0
            refs[request.key] = artifact_digest(artifact)
        return {"refs": refs, "exec_s": exec_s}


WORKLOADS = {
    "paper-suite": PaperSuite,
    "dse-sweep": DseSweep,
    "rtl-cosim": RtlCosim,
    "service-mixed": ServiceMixed,
}
