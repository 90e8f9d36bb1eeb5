"""Operation semantics: the one table every IR execution engine uses.

Each builder resolves an instruction's opcode, width, signed or unsigned
handling and f32 narrowing once and returns a plain function of operand
*values*.  The interpreter's compiled core (:mod:`repro.interp.program`)
and the specialized FSM engine (:mod:`repro.hw.specialize`) bind these
functions into their closures; the ``eval_*`` helpers apply them for the
instruction-walking hardware worker.  Engines can therefore disagree on
timing, never on values.  Integer values are Python ints in the signed
``bits``-wide range; results are wrapped back into it.
"""

from __future__ import annotations

from functools import cache

from ..errors import InterpError
from ..ir.instructions import (
    FCMP_FUNCS,
    FLOAT_BINOP_FUNCS,
    ICMP_FUNCS,
    INT_BINOP_FUNCS,
    GEP,
    BinaryOp,
    Cast,
    FCmp,
    ICmp,
)
from ..ir.types import ArrayType, FloatType, StructType
from .memory import round_f32

#: Integer binops whose operands are reinterpreted as unsigned.
UNSIGNED_BINOPS = frozenset(("udiv", "urem", "lshr"))

_ADDR_MASK = 0xFFFFFFFF


def binop_fn(inst: BinaryOp):
    """``fn(a, b)`` computing ``inst`` with machine semantics."""
    return _binop(inst.opcode, inst.type.bits)  # type: ignore[union-attr]


def icmp_fn(inst: ICmp):
    """``fn(a, b) -> 0 | 1`` for an integer or pointer comparison."""
    lhs_type = inst.lhs.type
    if lhs_type.is_pointer:
        return _icmp(inst.pred, 32)
    if inst.pred.startswith("u"):
        return _icmp(inst.pred, lhs_type.bits)  # type: ignore[union-attr]
    return _icmp(inst.pred, 0)


def fcmp_fn(inst: FCmp):
    """``fn(a, b) -> 0 | 1`` for a floating-point comparison."""
    return _fcmp(inst.pred)


def cast_fn(inst: Cast):
    """``fn(value)`` converting ``inst.value`` to ``inst.type``."""
    op = inst.opcode
    if op in ("trunc", "fptosi"):
        return _cast(op, inst.type.bits)  # type: ignore[union-attr]
    if op == "zext":
        return _cast(op, inst.value.type.bits)  # type: ignore[union-attr]
    if op == "sitofp":
        narrow = isinstance(inst.type, FloatType) and inst.type.bits == 32
        return _cast(op, 32 if narrow else 64)
    if op in ("bitcast", "ptrtoint", "inttoptr"):
        return _cast(op, int(inst.type.is_pointer or op == "ptrtoint"))
    return _cast(op, 0)


def gep_terms(inst: GEP) -> tuple[int, list[tuple[int, int]]]:
    """The address of ``inst`` as ``base + offset + Σ coef·indices[k]``.

    Returns ``(offset, [(coef, k), ...])``.  Struct field indices are
    constants (checked when the GEP is built), so their offsets fold
    into ``offset``; every other index contributes one term.
    """
    pointee = inst.base.type.pointee  # type: ignore[union-attr]
    indices = inst.indices
    offset = 0
    terms = [(pointee.size(), 0)]
    current = pointee
    for k in range(1, len(indices)):
        if isinstance(current, StructType):
            field = int(indices[k].value)  # type: ignore[attr-defined]
            offset += current.field_offset(field)
            current = current.field_type(field)
        elif isinstance(current, ArrayType):
            terms.append((current.element.size(), k))
            current = current.element
        else:
            raise InterpError(f"gep through non-aggregate {current!r}")
    return offset, terms


# -- value-level helpers (the instruction-walking worker) ------------------------


def eval_binop(inst: BinaryOp, a, b):
    """Evaluate a binary operation with machine semantics."""
    return binop_fn(inst)(a, b)


def eval_icmp(inst: ICmp, a, b) -> int:
    """Evaluate an integer/pointer comparison to 0 or 1."""
    return icmp_fn(inst)(a, b)


def eval_fcmp(inst: FCmp, a, b) -> int:
    """Evaluate a floating-point comparison to 0 or 1."""
    return fcmp_fn(inst)(a, b)


def eval_gep(inst: GEP, base_addr: int, index_values: list) -> int:
    """Compute a GEP address given the base and evaluated indices."""
    offset, terms = gep_terms(inst)
    addr = base_addr + offset
    for coef, k in terms:
        addr += coef * index_values[k]
    return addr & _ADDR_MASK


def eval_cast(inst: Cast, value):
    """Evaluate a type conversion with machine semantics."""
    return cast_fn(inst)(value)


# -- the table: (opcode, width) -> function, built once per process ------------


@cache
def _binop(opcode: str, bits: int):
    if opcode in FLOAT_BINOP_FUNCS:
        raw = FLOAT_BINOP_FUNCS[opcode]
        narrow = bits == 32

        def fn(a, b):
            try:
                result = raw(a, b)
            except ZeroDivisionError:
                raise InterpError("float division by zero") from None
            return round_f32(result) if narrow else result

        return fn
    raw = INT_BINOP_FUNCS[opcode]
    mask = (1 << bits) - 1
    half = 0 if bits == 1 else 1 << (bits - 1)
    if opcode in UNSIGNED_BINOPS:

        def fn(a, b):
            try:
                return ((raw(a & mask, b & mask) + half) & mask) - half
            except ZeroDivisionError:
                raise InterpError("integer division by zero") from None

        return fn

    def fn(a, b):
        try:
            return ((raw(a, b) + half) & mask) - half
        except ZeroDivisionError:
            raise InterpError("integer division by zero") from None

    return fn


@cache
def _icmp(pred: str, unsigned_bits: int):
    raw = ICMP_FUNCS[pred]
    if unsigned_bits:
        mask = (1 << unsigned_bits) - 1
        return lambda a, b: 1 if raw(a & mask, b & mask) else 0
    return lambda a, b: 1 if raw(a, b) else 0


@cache
def _fcmp(pred: str):
    raw = FCMP_FUNCS[pred]
    return lambda a, b: 1 if raw(a, b) else 0


@cache
def _cast(op: str, bits: int):
    if op in ("trunc", "fptosi"):
        mask = (1 << bits) - 1
        half = 0 if bits == 1 else 1 << (bits - 1)
        return lambda v: ((int(v) + half) & mask) - half
    if op == "zext":
        mask = (1 << bits) - 1
        return lambda v: int(v) & mask
    if op == "sext":
        return int
    if op == "sitofp":
        if bits == 32:
            return lambda v: round_f32(float(v))
        return float
    if op == "fpext":
        return float
    if op == "fptrunc":
        return lambda v: round_f32(float(v))
    if op in ("bitcast", "ptrtoint", "inttoptr"):
        if bits:
            return lambda v: int(v) & _ADDR_MASK
        return lambda v: v
    raise InterpError(f"cannot evaluate cast {op}")
