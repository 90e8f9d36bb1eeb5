"""Explicit-stack IR interpreter over compiled programs.

Functions run as pre-resolved closures (:mod:`repro.interp.program`),
compiled once per run.  Two drivers share one set of closures:

* :meth:`Interpreter.call` runs whole blocks at a time and charges
  ``steps`` once per segment;
* :meth:`Interpreter.step` runs one instruction.  It serves the
  ``on_execute``/``on_edge`` hooks (the MIPS baseline model, the
  profiler) and the cooperative schedulers that run many task
  interpreters round-robin, blocking individual machines on empty FIFO
  channels (:mod:`repro.pipeline.cosim`, :mod:`repro.vsim.cosim`).

Both count the same ``steps`` (phis excluded) and raise at the same step
when ``max_steps`` is exceeded.  The call stack is explicit, so deep IR
recursion never recurses in Python.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable

from ..errors import InterpError
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Call, Instruction
from ..ir.module import Module
from ..ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
)
from .memory import Memory
from .program import (
    MALLOC_NAMES,
    Blocked,
    Frame,
    ProgramCache,
    number_malloc_sites,
)

__all__ = ["MALLOC_NAMES", "Interpreter", "ChannelIO", "RecordingChannelIO",
           "Status", "BROADCAST_INDEX", "malloc_site_table"]


class Status(enum.Enum):
    """Result of one interpreter step."""

    RUNNING = "running"
    BLOCKED = "blocked"  # waiting on an empty FIFO channel
    DONE = "done"


class ChannelIO:
    """Unbounded in-order channels for *functional* pipeline execution.

    The hardware simulator has its own bounded FIFOs with cycle costs; this
    class exists so the pipeline transform can be validated for correctness
    independent of timing.
    """

    def __init__(self) -> None:
        # Deques, not lists: a deep queue (e.g. an unthrottled producer
        # ahead of a slow consumer) made ``pop(0)`` O(n) per token and
        # the whole functional run O(n^2).
        self._queues: dict[tuple[int, int], deque] = {}
        self.liveouts: dict[int, int | float] = {}

    def _queue(self, channel_id: int, index: int) -> deque:
        return self._queues.setdefault((channel_id, index), deque())

    def produce(self, channel, index: int, value) -> None:
        self._queue(channel.channel_id, index).append(value)

    def produce_broadcast(self, channel, value) -> None:
        for i in range(channel.n_channels):
            self._queue(channel.channel_id, i).append(value)

    def try_consume(self, channel, index: int):
        """Returns (True, value) or (False, None) when empty."""
        queue = self._queue(channel.channel_id, index)
        if not queue:
            return False, None
        return True, queue.popleft()

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def queue_sizes(self) -> dict[tuple[int, int], int]:
        """Tokens currently pending per ``(channel_id, index)`` queue."""
        return {key: len(q) for key, q in self._queues.items() if q}

    def queue_snapshot(self) -> dict[tuple[int, int], tuple]:
        """Pending token values per non-empty ``(channel_id, index)`` queue."""
        return {key: tuple(q) for key, q in self._queues.items() if q}


#: Index recorded for a broadcast push (one log entry covers all queues).
BROADCAST_INDEX = -1


class _LoggingLiveouts(dict):
    """Live-out store that records every write with its attribution tag."""

    def __init__(self, owner: "RecordingChannelIO") -> None:
        super().__init__()
        self._owner = owner

    def __setitem__(self, key: int, value) -> None:
        self._owner.liveout_log.append((self._owner.current_tag, key, value))
        super().__setitem__(key, value)


class RecordingChannelIO(ChannelIO):
    """A :class:`ChannelIO` that logs channel traffic and live-out writes.

    The RTL co-simulator (:mod:`repro.vsim.cosim`) replays an oracle run
    and needs, per worker instance, the exact in-order sequence of tokens
    produced/consumed and live-outs written.  ``current_tag`` identifies
    the machine currently executing (the caller sets it around each
    ``step()`` batch); every log entry carries that tag.

    Logs:

    * ``push_log`` — ``(tag, channel_id, index, value)``; a broadcast is
      one entry with ``index == BROADCAST_INDEX``.
    * ``pop_log`` — ``(tag, channel_id, index, value)``.
    * ``liveout_log`` — ``(tag, liveout_id, value)``.

    Indices are post-modulo, exactly what the channels were keyed by.
    """

    def __init__(self) -> None:
        super().__init__()
        self.current_tag: str = "parent"
        self.push_log: list[tuple[str, int, int, int | float]] = []
        self.pop_log: list[tuple[str, int, int, int | float]] = []
        self.liveout_log: list[tuple[str, int, int | float]] = []
        self.liveouts = _LoggingLiveouts(self)

    def produce(self, channel, index: int, value) -> None:
        super().produce(channel, index, value)
        self.push_log.append(
            (self.current_tag, channel.channel_id, index, value)
        )

    def produce_broadcast(self, channel, value) -> None:
        super().produce_broadcast(channel, value)
        self.push_log.append(
            (self.current_tag, channel.channel_id, BROADCAST_INDEX, value)
        )

    def try_consume(self, channel, index: int):
        ok, value = super().try_consume(channel, index)
        if ok:
            self.pop_log.append(
                (self.current_tag, channel.channel_id, index, value)
            )
        return ok, value


_BLOCKED_OUTSIDE_SCHEDULER = (
    "interpreter blocked on an empty channel outside a cooperative scheduler"
)


class Interpreter:
    """Executes IR functions against a shared :class:`Memory` image.

    ``programs`` shares compiled functions between interpreters of one
    run that have the same module and global placement (a fork handler
    and its task interpreters); by default each interpreter compiles its
    own, on first use of each function.
    """

    def __init__(
        self,
        module: Module,
        memory: Memory | None = None,
        channel_io: ChannelIO | None = None,
        worker_id: int = 0,
        max_steps: int = 200_000_000,
        on_execute: Callable[[Instruction], None] | None = None,
        on_edge: Callable[[BasicBlock, BasicBlock], None] | None = None,
        global_addresses: dict[str, int] | None = None,
        fork_handler=None,
        programs: ProgramCache | None = None,
    ) -> None:
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.channel_io = channel_io
        self.worker_id = worker_id
        self.max_steps = max_steps
        self.steps = 0
        self.on_execute = on_execute
        self.on_edge = on_edge
        self.fork_handler = fork_handler
        self._stack: list[Frame] = []
        self._return_value: int | float | None = None
        if global_addresses is not None:
            self.global_addresses = dict(global_addresses)
        else:
            self.global_addresses = _place_globals(module, self.memory)
        if programs is None:
            programs = ProgramCache(module, self.global_addresses)
        self._programs = programs

    # -- public driving --------------------------------------------------------

    def call(self, function: Function | str, args: list[int | float]):
        """Run ``function`` to completion and return its return value."""
        self.start(function, args)
        if self.on_execute is None and self.on_edge is None:
            self._run_segments()
        while self._stack:
            if self.step() is Status.BLOCKED:
                raise InterpError(_BLOCKED_OUTSIDE_SCHEDULER)
        return self._return_value

    def start(self, function: Function | str, args: list[int | float]) -> None:
        """Prepare a top-level call without running it (for step drivers)."""
        if isinstance(function, str):
            function = self.module.get_function(function)
        if self._stack:
            raise InterpError("interpreter is already running a call")
        if len(args) != len(function.args):
            raise InterpError(
                f"@{function.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        program = self._programs[function]
        regs = program.template[:]
        for slot, value in zip(program.arg_slots, args):
            regs[slot] = value
        self._stack.append(Frame(program, regs, None))
        self._return_value = None

    @property
    def done(self) -> bool:
        return not self._stack

    @property
    def return_value(self):
        return self._return_value

    def step(self) -> Status:
        """Execute one instruction (or block without advancing)."""
        stack = self._stack
        if not stack:
            return Status.DONE
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError(f"exceeded max_steps={self.max_steps}")
        frame = stack[-1]
        block, i = frame.block, frame.index
        frame.index = i + 1
        try:
            target = block.ops[i](frame.regs, self)
        except Blocked:
            frame.index = i
            return Status.BLOCKED
        on_execute = self.on_execute
        if target is not None:
            frame.block, frame.index = target, 0
            if self.on_edge is not None:
                self.on_edge(block.ir, target.ir)
            if on_execute is not None:
                for phi in target.phis:
                    on_execute(phi)
        if on_execute is not None:
            on_execute(block.insts[i])
        return Status.RUNNING if stack else Status.DONE

    def _run_segments(self) -> None:
        """Run whole segments until the call returns, or until the next
        segment would pass ``max_steps`` (the caller then steps)."""
        stack = self._stack
        limit = self.max_steps
        steps = self.steps
        frame = stack[-1]
        regs, block, i = frame.regs, frame.block, frame.index
        try:
            while True:
                body, tail, n = block.segments[i]
                if steps + n > limit:
                    frame.block, frame.index = block, i
                    return
                steps += n
                for op in body:
                    op(regs, self)
                target = tail(regs, self)
                if target is not None:
                    block, i = target, 0
                elif stack:
                    frame = stack[-1]
                    regs, block, i = frame.regs, frame.block, frame.index
                else:
                    return
        except Blocked:
            raise InterpError(_BLOCKED_OUTSIDE_SCHEDULER) from None
        finally:
            self.steps = steps


def malloc_site_table(module: Module) -> dict[int, Call]:
    """site id -> call instruction (the inverse of the site numbering)."""
    return {site: inst for inst, site in number_malloc_sites(module).items()}


def _place_globals(module: Module, memory: Memory) -> dict[str, int]:
    addresses: dict[str, int] = {}
    for g in module.globals.values():
        addr = memory.malloc(
            g.value_type.size(), site=-3, align=max(g.value_type.alignment(), 4)
        )
        addresses[g.name] = addr
        if g.initializer is not None:
            _write_initializer(memory, addr, g.value_type, list(g.initializer))
    return addresses


def _write_initializer(memory: Memory, addr: int, type_, flat: list) -> None:
    """Write a flat scalar list into memory following the type layout."""
    scalars = _scalar_layout(type_)
    if len(flat) != len(scalars):
        raise InterpError(
            f"initializer has {len(flat)} scalars, type needs {len(scalars)}"
        )
    for (offset, scalar_type), value in zip(scalars, flat):
        memory.store(addr + offset, scalar_type, value)


def _scalar_layout(type_, base: int = 0) -> list:
    if isinstance(type_, (IntType, FloatType, PointerType)):
        return [(base, type_)]
    if isinstance(type_, ArrayType):
        out = []
        for i in range(type_.count):
            out.extend(_scalar_layout(type_.element, base + i * type_.element.size()))
        return out
    if isinstance(type_, StructType):
        out = []
        for i, (_, ftype) in enumerate(type_.fields):
            out.extend(_scalar_layout(ftype, base + type_.field_offset(i)))
        return out
    raise InterpError(f"no scalar layout for {type_!r}")
