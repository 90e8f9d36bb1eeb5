"""Compiled execution core of the functional interpreter.

Each IR function is compiled once per run into a :class:`Program`:

* every argument, instruction result, constant and global gets a slot in
  a flat register list; a frame starts as a copy of the program's
  template (constants and this run's global addresses filled in, all
  else :data:`UNDEF`);
* every non-phi instruction becomes ``op(regs, vm)``, its operand slots
  and its semantics (from :mod:`repro.interp.ops`) resolved here; ``vm``
  is the running interpreter (memory, channels, fork handler, stack);
* every CFG edge is one closure that latches the target's phis, all
  reads before any write, and returns the target :class:`Block`.

An op returns ``None`` to fall through or the target block of a taken
branch; ``call`` and ``ret`` switch frames on ``vm._stack`` themselves;
a consume on an empty channel raises :class:`Blocked` having changed
nothing.  Blocks are cut into *segments* ending at a branch, return or
call, so a driver can charge ``steps`` once per segment.  A use whose
definition does not dominate it is wrapped in an undefined-value check.

A :class:`ProgramCache` lives as long as its owner (one interpreter, or
a fork handler and its task interpreters), so a new run always compiles
the IR as it is now.
"""

from __future__ import annotations

from operator import itemgetter

from ..errors import InterpError
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CondBranch,
    Consume,
    FCmp,
    ICmp,
    Instruction,
    Jump,
    Load,
    ParallelFork,
    ParallelJoin,
    Produce,
    ProduceBroadcast,
    Ret,
    RetrieveLiveout,
    Select,
    Store,
    StoreLiveout,
)
from ..ir.module import Module
from ..ir.values import Constant, GlobalVariable, Value
from .memory import scalar_codec
from .ops import binop_fn, cast_fn, fcmp_fn, gep_terms, icmp_fn

#: Names treated as heap-allocation builtins when declared without a body.
MALLOC_NAMES = {"malloc"}

_ADDR_MASK = 0xFFFFFFFF


class Blocked(Exception):
    """A consume found its channel empty; nothing was changed."""


#: Initial contents of every argument and instruction slot.
UNDEF = object()


class Block:
    """One basic block: its non-phi instructions as closures.

    ``ops[i]`` executes ``insts[i]``.  ``segments[i]`` is set where a
    segment starts (index 0 and after every call): ``(body, tail, n)``,
    the fall-through ops, the op that ends the segment, and ``n`` steps.
    """

    __slots__ = ("ir", "ops", "insts", "phis", "segments")

    def __init__(self, ir: BasicBlock, insts: list) -> None:
        self.ir = ir
        self.insts = tuple(insts)
        self.phis = tuple(ir.phis())
        self.ops: tuple = ()
        self.segments: list = []

    def seal(self, ops: list) -> None:
        self.ops = tuple(ops)
        self.segments = [None] * len(ops)
        start = 0
        for i, inst in enumerate(self.insts):
            if i == len(ops) - 1 or _ends_segment(inst):
                self.segments[start] = (self.ops[start:i], self.ops[i], i + 1 - start)
                start = i + 1


def _ends_segment(inst) -> bool:
    if isinstance(inst, Call):
        return not inst.callee.is_declaration
    return inst is not None and inst.is_terminator


class Frame:
    """One activation: a position in a program and its registers."""

    __slots__ = ("block", "index", "regs", "ret_slot")

    def __init__(self, program: "Program", regs: list, ret_slot: int | None) -> None:
        self.block = program.start
        self.index = 0
        self.regs = regs
        self.ret_slot = ret_slot  # caller slot awaiting our return value


class ProgramCache(dict):
    """Function -> :class:`Program` for one run's module and global
    placement.  Keys are the function objects themselves, so an entry
    can never alias a later function that reuses a freed ``id()``."""

    def __init__(self, module: Module, global_addresses: dict[str, int]) -> None:
        super().__init__()
        self.module = module
        self.global_addresses = global_addresses
        self._malloc_sites: dict | None = None

    def __missing__(self, function: Function) -> "Program":
        program = self[function] = Program(function, self)
        return program

    def malloc_site(self, inst: Call) -> int:
        if self._malloc_sites is None:
            self._malloc_sites = number_malloc_sites(self.module)
        return self._malloc_sites.get(inst, -1)


class Program:
    """One function compiled to closures over a flat register list."""

    __slots__ = ("function", "template", "arg_slots", "start")

    def __init__(self, function: Function, cache: ProgramCache) -> None:
        compiler = _Compiler(function, cache)
        self.function = function
        self.template = compiler.template
        self.arg_slots = compiler.arg_slots
        self.start = compiler.start


class _Compiler:
    """The transient state of compiling one :class:`Program`."""

    def __init__(self, function: Function, cache: ProgramCache) -> None:
        self.function = function
        self.template: list = []
        self._cache = cache
        self._slots: dict[int, int] = {}  # id(arg/inst) -> slot
        self._globals: dict[str, int] = {}
        self.arg_slots = [self._new_slot(arg) for arg in function.args]
        self._position: dict[int, tuple[BasicBlock, int]] = {}
        for block in function.blocks:
            # A block's phis get adjacent slots: an edge latches them as
            # one slice assignment.
            for inst in block.phis() + block.non_phis():
                self._new_slot(inst)
            for i, inst in enumerate(block.instructions):
                self._position[id(inst)] = (block, i)
        self._dominance = None
        self.blocks = {block: Block(block, block.non_phis())
                       for block in function.blocks}
        for block in function.blocks:
            self._compile_block(block)
        self.start = self.blocks[function.entry]
        if self.start.phis:
            # Entered without an edge, a leading phi has no value.
            entry = Block(function.entry, [self.start.phis[0]])
            entry.seal([_fail("phi encountered outside a block entry")])
            self.start = entry

    # -- slots -------------------------------------------------------------------

    def _new_slot(self, value=None, initial=UNDEF) -> int:
        slot = len(self.template)
        self.template.append(initial)
        if value is not None:
            self._slots[id(value)] = slot
        return slot

    def _slot(self, value: Value) -> int:
        if isinstance(value, Constant):
            return self._new_slot(initial=value.value)
        if isinstance(value, GlobalVariable):
            slot = self._globals.get(value.name)
            if slot is None:
                address = self._cache.global_addresses[value.name]
                slot = self._globals[value.name] = self._new_slot(initial=address)
            return slot
        slot = self._slots.get(id(value))
        if slot is None:  # a value of another function: never defined here
            slot = self._new_slot(value)
        return slot

    def _defined_at(self, value, block: BasicBlock, index: int) -> bool:
        """Is ``value`` certainly defined before ``block``'s instruction
        ``index`` runs (``index`` -1: at the end of ``block``)?"""
        if not isinstance(value, Instruction):
            return True  # arguments, constants, globals, branch targets
        where = self._position.get(id(value))
        if where is None:
            return False
        def_block, def_index = where
        if def_block is block and index >= 0:
            return def_index < index
        if self._dominance is None:
            from ..analysis.dominators import DominatorTree

            self._dominance = DominatorTree(self.function)
        return self._dominance.dominates(def_block, block)

    def _guard(self, op, values, block: BasicBlock, index: int):
        """Wrap ``op`` with an undefined-value check for every operand in
        ``values`` whose definition may not have run."""
        checks = [(self._slot(v), v) for v in values
                  if not self._defined_at(v, block, index)]
        if not checks:
            return op
        fname = self.function.name

        def guarded(regs, vm):
            for slot, value in checks:
                if regs[slot] is UNDEF:
                    raise InterpError(
                        f"use of undefined value {value.short_name()} in @{fname}"
                    )
            return op(regs, vm)

        return guarded

    # -- blocks and edges ---------------------------------------------------------

    def _compile_block(self, block: BasicBlock) -> None:
        compiled = self.blocks[block]
        ops = []
        for inst in compiled.insts:
            index = self._position[id(inst)][1]
            op = self._compile_inst(inst, block, compiled, len(ops))
            ops.append(self._guard(op, inst.operands, block, index))
        if not ops or not compiled.insts[-1].is_terminator:
            compiled.insts += (None,)
            ops.append(_fail(f"block {block.short_name()} falls through "
                             f"without a terminator"))
        compiled.seal(ops)

    def _edge(self, source: BasicBlock, target: BasicBlock):
        """``edge(regs, vm) -> target block``, latching its phis."""
        to = self.blocks[target]
        if not to.phis:
            return lambda regs, vm: to
        incoming = [phi.incoming_for(source) for phi in to.phis]
        srcs = [self._slot(v) for v in incoming]
        dsts = [self._slots[id(phi)] for phi in to.phis]
        if len(dsts) == 1:
            src, dst = srcs[0], dsts[0]

            def edge(regs, vm):
                regs[dst] = regs[src]
                return to

        else:
            get, lo, hi = itemgetter(*srcs), dsts[0], dsts[-1] + 1

            def edge(regs, vm):
                regs[lo:hi] = get(regs)
                return to

        return self._guard(edge, incoming, source, -1)

    # -- instructions -------------------------------------------------------------

    def _compile_inst(self, inst: Instruction, block: BasicBlock,
                      compiled: Block, index: int):
        slot = self._slot
        dst = self._slots[id(inst)]
        semantics = _BINARY_SEMANTICS.get(type(inst))
        if semantics is not None:
            fn, a, b = semantics(inst), slot(inst.operands[0]), slot(inst.operands[1])

            def op(regs, vm):
                regs[dst] = fn(regs[a], regs[b])

            return op
        if isinstance(inst, GEP):
            return self._compile_gep(inst, dst)
        if isinstance(inst, Load):
            p, codec = slot(inst.pointer), scalar_codec(inst.type)

            def op(regs, vm):
                regs[dst] = vm.memory.load_scalar(regs[p], codec)

            return op
        if isinstance(inst, Store):
            p, v = slot(inst.pointer), slot(inst.value)
            codec = scalar_codec(inst.value.type)

            def op(regs, vm):
                vm.memory.store_scalar(regs[p], codec, regs[v])

            return op
        if isinstance(inst, Cast):
            fn, v = cast_fn(inst), slot(inst.value)

            def op(regs, vm):
                regs[dst] = fn(regs[v])

            return op
        if isinstance(inst, Select):
            c, t, f = (slot(v) for v in inst.operands)

            def op(regs, vm):
                regs[dst] = regs[t] if regs[c] else regs[f]

            return op
        if isinstance(inst, Jump):
            return self._edge(block, inst.target)
        if isinstance(inst, CondBranch):
            c = slot(inst.cond)
            to_true, to_false = self.blocks[inst.if_true], self.blocks[inst.if_false]
            if not to_true.phis and not to_false.phis:
                return lambda regs, vm: to_true if regs[c] else to_false
            if_true = self._edge(block, inst.if_true)
            if_false = self._edge(block, inst.if_false)
            return lambda regs, vm: (if_true if regs[c] else if_false)(regs, vm)
        if isinstance(inst, Call):
            return self._compile_call(inst, dst, compiled, index + 1)
        if isinstance(inst, Ret):
            v = None if inst.value is None else slot(inst.value)

            def op(regs, vm):
                value = None if v is None else regs[v]
                stack = vm._stack
                frame = stack.pop()
                if not stack:
                    vm._return_value = value
                elif value is not None:
                    stack[-1].regs[frame.ret_slot] = value

            return op
        if isinstance(inst, Alloca):
            allocated = inst.allocated_type

            def op(regs, vm):
                regs[dst] = vm.memory.alloc_object(allocated, site=-2)

            return op
        return self._compile_cgpa(inst, dst)

    def _compile_gep(self, inst: GEP, dst: int):
        offset, terms = gep_terms(inst)
        live = []
        for coef, k in terms:
            index = inst.indices[k]
            if isinstance(index, Constant):
                offset += coef * int(index.value)
            else:
                live.append((coef, self._slot(index)))
        base = self._slot(inst.base)
        if not live:

            def op(regs, vm):
                regs[dst] = (regs[base] + offset) & _ADDR_MASK

        elif len(live) == 1:
            ((c0, s0),) = live

            def op(regs, vm):
                regs[dst] = (regs[base] + offset + c0 * regs[s0]) & _ADDR_MASK

        else:

            def op(regs, vm):
                addr = regs[base] + offset
                for coef, s in live:
                    addr += coef * regs[s]
                regs[dst] = addr & _ADDR_MASK

        return op

    def _compile_call(self, inst: Call, dst: int, compiled: Block, resume: int):
        callee = inst.callee
        if callee.is_declaration:
            if callee.name not in MALLOC_NAMES:
                return _fail(f"call to undefined function @{callee.name}")
            size, site = self._slot(inst.args[0]), self._cache.malloc_site(inst)

            def op(regs, vm):
                regs[dst] = vm.memory.malloc(int(regs[size]), site)

            return op
        programs = self._cache
        srcs = [self._slot(a) for a in inst.args]

        def op(regs, vm):
            program = programs[callee]
            new = program.template[:]
            for to, src in zip(program.arg_slots, srcs):
                new[to] = regs[src]
            stack = vm._stack
            caller = stack[-1]
            caller.block = compiled
            caller.index = resume
            stack.append(Frame(program, new, dst))

        return op

    def _compile_cgpa(self, inst: Instruction, dst: int):
        """The pipeline primitives: channels, live-outs, fork and join."""
        slot = self._slot
        if isinstance(inst, (Produce, ProduceBroadcast)):
            channel, v = inst.channel, slot(inst.value)
            if isinstance(inst, ProduceBroadcast):

                def op(regs, vm):
                    _io(vm).produce_broadcast(channel, regs[v])

                return op
            sel, n = slot(inst.worker_select), channel.n_channels

            def op(regs, vm):
                _io(vm).produce(channel, int(regs[sel]) % n, regs[v])

            return op
        if isinstance(inst, Consume):
            channel = inst.channel
            sel = None if inst.worker_select is None else slot(inst.worker_select)
            n = channel.n_channels

            def op(regs, vm):
                index = vm.worker_id if sel is None else int(regs[sel]) % n
                ok, value = _io(vm).try_consume(channel, index)
                if not ok:
                    raise Blocked
                regs[dst] = value

            return op
        if isinstance(inst, StoreLiveout):
            lid, v = inst.liveout_id, slot(inst.value)

            def op(regs, vm):
                _io(vm).liveouts[lid] = regs[v]

            return op
        if isinstance(inst, RetrieveLiveout):
            lid = inst.liveout_id

            def op(regs, vm):
                liveouts = _io(vm).liveouts
                if lid not in liveouts:
                    raise InterpError(f"liveout #{lid} never stored")
                regs[dst] = liveouts[lid]

            return op
        if isinstance(inst, ParallelFork):
            srcs = [slot(v) for v in inst.liveins]

            def op(regs, vm):
                _handler(vm, "parallel_fork").fork(inst, [regs[s] for s in srcs])

            return op
        if isinstance(inst, ParallelJoin):
            loop_id = inst.loop_id

            def op(regs, vm):
                _handler(vm, "parallel_join").join(loop_id)

            return op
        return _fail(f"cannot interpret opcode {inst.opcode}")


_BINARY_SEMANTICS = {BinaryOp: binop_fn, ICmp: icmp_fn, FCmp: fcmp_fn}


def _fail(message: str):
    def op(regs, vm):
        raise InterpError(message)

    return op


def _io(vm):
    if vm.channel_io is None:
        raise InterpError("CGPA primitive executed without a ChannelIO")
    return vm.channel_io


def _handler(vm, what: str):
    if vm.fork_handler is None:
        raise InterpError(f"{what} executed without a fork handler installed")
    return vm.fork_handler


def number_malloc_sites(module: Module) -> dict[Call, int]:
    """Deterministically number malloc call sites across the module.

    The same numbering is used by the points-to analysis
    (:mod:`repro.analysis.pointsto`), so static abstract objects and
    runtime allocations correspond one-to-one.
    """
    sites: dict[Call, int] = {}
    for function in module.functions.values():
        for inst in function.instructions():
            if isinstance(inst, Call) and inst.callee.name in MALLOC_NAMES:
                sites[inst] = len(sites)
    return sites
