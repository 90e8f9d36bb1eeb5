"""Byte-addressable memory image for interpretation and simulation.

One :class:`Memory` instance is shared by the software interpreter, the
MIPS baseline cost model and the hardware accelerator simulator, so the
"accelerator output equals software output" verification compares like
with like.

Addresses are 32-bit (the paper's target).  A bump allocator serves
``malloc``; every allocation records its *site id* (the IR call site), the
runtime counterpart of the allocation-site abstraction the points-to
analysis uses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import InterpError
from ..ir.types import (
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
)

#: Allocations start here so that address 0 stays an unmapped null page.
HEAP_BASE = 0x1000
#: Top of the 32-bit address space we allow.
ADDRESS_LIMIT = 1 << 31

_F32 = struct.Struct("<f")


@dataclass
class Allocation:
    """One heap allocation: [addr, addr+size), tagged with its site."""

    addr: int
    size: int
    site: int

    @property
    def end(self) -> int:
        return self.addr + self.size


class Memory:
    """Flat little-endian memory with typed accessors and bounds checks."""

    def __init__(self, size: int = 1 << 24) -> None:
        self._data = bytearray(size)
        self._brk = HEAP_BASE
        self.allocations: list[Allocation] = []
        #: Total bytes read/written, used by the energy model.
        self.bytes_read = 0
        self.bytes_written = 0

    # -- allocation ----------------------------------------------------------

    def malloc(self, size: int, site: int = -1, align: int = 8) -> int:
        """Bump-allocate ``size`` bytes; returns the address."""
        if size < 0:
            raise InterpError(f"malloc of negative size {size}")
        addr = (self._brk + align - 1) // align * align
        if addr + size > len(self._data):
            self._grow(addr + size)
        self._brk = addr + max(size, 1)
        self.allocations.append(Allocation(addr, size, site))
        return addr

    def alloc_object(self, type_: Type, site: int = -1) -> int:
        """Allocate one object of an IR type."""
        return self.malloc(type_.size(), site, align=max(type_.alignment(), 4))

    def _grow(self, needed: int) -> None:
        if needed > ADDRESS_LIMIT:
            raise InterpError("out of simulated memory")
        new_size = len(self._data)
        while new_size < needed:
            new_size *= 2
        self._data.extend(bytes(new_size - len(self._data)))

    def allocation_containing(self, addr: int) -> Allocation | None:
        for alloc in self.allocations:
            if alloc.addr <= addr < alloc.end:
                return alloc
        return None

    # -- raw access ----------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr <= 0:
            raise InterpError(f"access to null/negative address {addr:#x}")
        if addr + size > len(self._data):
            self._grow(addr + size)

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        self.bytes_read += size
        return bytes(self._data[addr : addr + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.bytes_written += len(data)
        self._data[addr : addr + len(data)] = data

    # -- typed access ----------------------------------------------------------

    def load(self, addr: int, type_: Type) -> int | float:
        return self.load_scalar(addr, scalar_codec(type_))

    def store(self, addr: int, type_: Type, value: int | float) -> None:
        self.store_scalar(addr, scalar_codec(type_), value)

    def load_scalar(self, addr: int, codec: "ScalarCodec") -> int | float:
        """Typed load with a pre-resolved :func:`scalar_codec`."""
        size = codec.size
        data = self._data
        if addr <= 0 or addr + size > len(data):
            self._check(addr, size)
            data = self._data
        self.bytes_read += size
        value = codec.unpack_from(data, addr)[0]
        return value & 1 if codec.is_bit else value

    def store_scalar(self, addr: int, codec: "ScalarCodec", value) -> None:
        """Typed store with a pre-resolved :func:`scalar_codec`."""
        size = codec.size
        data = self._data
        if addr <= 0 or addr + size > len(data):
            self._check(addr, size)
            data = self._data
        self.bytes_written += size
        if codec.mask:
            codec.pack_into(data, addr, int(value) & codec.mask)
        else:
            codec.pack_into(data, addr, float(value))

    # -- structured helpers (used by workload builders and tests) -----------------

    def field_addr(self, base: int, struct_type: StructType, field: str) -> int:
        return base + struct_type.field_offset(struct_type.field_index(field))

    def load_field(self, base: int, struct_type: StructType, field: str):
        index = struct_type.field_index(field)
        return self.load(
            base + struct_type.field_offset(index), struct_type.field_type(index)
        )

    def store_field(self, base: int, struct_type: StructType, field: str, value) -> None:
        index = struct_type.field_index(field)
        self.store(
            base + struct_type.field_offset(index),
            struct_type.field_type(index),
            value,
        )

    def elem_addr(self, base: int, elem_type: Type, index: int) -> int:
        return base + elem_type.size() * index

    def load_array(self, base: int, elem_type: Type, count: int) -> list:
        return [
            self.load(self.elem_addr(base, elem_type, i), elem_type)
            for i in range(count)
        ]

    def store_array(self, base: int, elem_type: Type, values) -> None:
        for i, v in enumerate(values):
            self.store(self.elem_addr(base, elem_type, i), elem_type, v)

    def snapshot(self) -> bytes:
        """Copy of the used portion of memory, for output comparison."""
        return bytes(self._data[: self._brk])

    def clone(self) -> "Memory":
        """Deep copy sharing nothing, for running two backends on one image.

        Also carries the access counters, so a clone of an interned
        post-setup image (:mod:`repro.fleet`) is bit-identical to a
        freshly set-up one.
        """
        copy = Memory(len(self._data))
        copy._data[:] = self._data
        copy._brk = self._brk
        copy.allocations = [Allocation(a.addr, a.size, a.site) for a in self.allocations]
        copy.bytes_read = self.bytes_read
        copy.bytes_written = self.bytes_written
        return copy


class ScalarCodec:
    """How one scalar IR type sits in memory: width, struct format and
    the store-side truncation (``mask`` 0 for floats)."""

    __slots__ = ("size", "unpack_from", "pack_into", "mask", "is_bit")

    def __init__(self, load_fmt: str, store_fmt: str, mask: int,
                 is_bit: bool = False) -> None:
        self.size = struct.calcsize(load_fmt)
        self.unpack_from = struct.Struct(load_fmt).unpack_from
        self.pack_into = struct.Struct(store_fmt).pack_into
        self.mask = mask
        self.is_bit = is_bit


_INT_CODECS = {
    1: ScalarCodec("<B", "<B", 0xFF, is_bit=True),
    8: ScalarCodec("<b", "<B", 0xFF),
    16: ScalarCodec("<h", "<H", 0xFFFF),
    32: ScalarCodec("<i", "<I", 0xFFFFFFFF),
    64: ScalarCodec("<q", "<Q", 0xFFFFFFFFFFFFFFFF),
}
_FLOAT_CODECS = {32: ScalarCodec("<f", "<f", 0), 64: ScalarCodec("<d", "<d", 0)}
_POINTER_CODEC = ScalarCodec("<I", "<I", 0xFFFFFFFF)


def scalar_codec(type_: Type) -> ScalarCodec:
    """The load/store codec of a scalar IR type.

    Integers load sign-extended (``i1`` as its low bit) and store their
    low ``max(bits, 8)`` bits; pointers are unsigned 32-bit.
    """
    if isinstance(type_, IntType):
        return _INT_CODECS[type_.bits]
    if isinstance(type_, FloatType):
        return _FLOAT_CODECS[type_.bits]
    if isinstance(type_, PointerType):
        return _POINTER_CODEC
    raise InterpError(f"no scalar load/store for type {type_!r}")


def _to_signed(raw: int, bits: int) -> int:
    if raw >= 1 << (bits - 1):
        return raw - (1 << bits)
    return raw


def wrap_int(value: int, bits: int) -> int:
    """Wrap a Python int to a signed ``bits``-wide machine integer."""
    if bits == 1:
        return value & 1
    mask = (1 << bits) - 1
    return _to_signed(value & mask, bits)


def to_unsigned(value: int, bits: int) -> int:
    """Reinterpret a signed machine integer as unsigned."""

    return value & ((1 << bits) - 1)


def round_f32(value: float) -> float:
    """Round a Python float to IEEE single precision.

    Values beyond the f32 range overflow to infinity, exactly as the
    hardware's single-precision units would.
    """
    try:
        return _F32.unpack(_F32.pack(value))[0]
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")
