"""MIPS soft-core baseline cost model (the paper's CPU data point).

An in-order, single-issue 32-bit soft core with a hardware FPU: every IR
instruction charges a base cost, taken branches pay a pipeline-flush
penalty, and every data access goes through the same direct-mapped D-cache
model the accelerators use.  The instruction cache is assumed to always
hit (the kernels are small loops, and the paper's I-cache has 512 lines of
128 B — far larger than any kernel).

Values are computed by the functional interpreter; this module only adds
up cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.interpreter import Interpreter
from ..interp.memory import Memory
from ..ir.function import Function
from ..ir.instructions import (
    GEP,
    BinaryOp,
    Call,
    Cast,
    CondBranch,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Store,
)
from ..ir.module import Module
from .cache import DirectMappedCache

#: Base cycles per IR op on the soft core (excluding cache time).
#:
#: Calibrated against the paper's Fig. 4 baseline: the Tiger-MIPS-class
#: soft core LegUp systems use is single-issue, in-order, with no result
#: forwarding on multi-cycle units and a multi-cycle soft FPU, which is
#: why plain HLS already beats it by ~1.85x geomean.
_MIPS_BINOP_CYCLES = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1,
    "ashr": 1, "lshr": 1,
    "mul": 4, "sdiv": 24, "udiv": 24, "srem": 24, "urem": 24,
    "fadd": 7, "fsub": 7, "fmul": 9, "fdiv": 32,
}
_TAKEN_BRANCH_PENALTY = 3  # fetch bubble on every taken control transfer
_CALL_OVERHEAD = 5  # jal + argument moves + prologue


def _base_cost(inst: Instruction) -> int:
    if isinstance(inst, BinaryOp):
        return _MIPS_BINOP_CYCLES[inst.opcode]
    if isinstance(inst, (Load, Store)):
        return 2  # address generation + issue; cache time added separately
    if isinstance(inst, GEP):
        # Address arithmetic: shift/multiply plus add per index level
        # (the accelerator does the same in one fused address unit).
        return 1 + len(inst.indices)
    if isinstance(inst, (Jump, CondBranch)):
        return 1
    if isinstance(inst, Call):
        return _CALL_OVERHEAD
    if isinstance(inst, Ret):
        return 3
    if isinstance(inst, Phi):
        return 1  # the register moves the compiler places on the edges
    if isinstance(inst, Cast):
        return 3 if inst.opcode in ("sitofp", "fptosi") else 1
    return 1


@dataclass
class MipsResult:
    """Cycles, instruction count and result of one soft-core run."""

    cycles: int
    instructions: int
    return_value: int | float | None
    cache: DirectMappedCache


class _TracingMemory(Memory):
    """Memory that charges a cache model for every access."""

    def __init__(self, base: Memory, sink) -> None:
        # Share the underlying buffer: we *are* the same memory image.
        self.__dict__.update(base.__dict__)
        self._sink = sink

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._sink(addr, False)
        return Memory.read_bytes(self, addr, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._sink(addr, True)
        Memory.write_bytes(self, addr, data)

    def load_scalar(self, addr: int, codec):
        self._sink(addr, False)
        return Memory.load_scalar(self, addr, codec)

    def store_scalar(self, addr: int, codec, value) -> None:
        self._sink(addr, True)
        Memory.store_scalar(self, addr, codec, value)


def run_on_mips(
    module: Module,
    entry: str | Function,
    args: list[int | float],
    memory: Memory,
    cache: DirectMappedCache | None = None,
    global_addresses: dict[str, int] | None = None,
) -> MipsResult:
    """Execute ``entry`` on the soft-core model; returns cycles and result."""
    cache = cache if cache is not None else DirectMappedCache(ports=1)
    state = {"cycles": 0, "instructions": 0}

    def on_access(addr: int, is_write: bool) -> None:
        ready = cache.access(addr, is_write, state["cycles"])
        state["cycles"] = ready

    traced = _TracingMemory(memory, on_access)

    def on_execute(inst: Instruction) -> None:
        state["cycles"] += _base_cost(inst)
        state["instructions"] += 1

    def on_edge(src, dst) -> None:
        state["cycles"] += _TAKEN_BRANCH_PENALTY

    interp = Interpreter(
        module, traced, on_execute=on_execute, on_edge=on_edge,
        global_addresses=global_addresses,
    )
    value = interp.call(entry, args)
    return MipsResult(
        cycles=state["cycles"],
        instructions=state["instructions"],
        return_value=value,
        cache=cache,
    )
