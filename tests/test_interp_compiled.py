"""Golden pins for the interpreter's compiled execution core.

Every literal below was computed by the previous, instruction-at-a-time
interpreter; the compiled core must reproduce them exactly:

* per kernel at its shipped footprint: the post-setup memory image
  (sha256 of ``Memory.snapshot()``), setup/measure/check step counts,
  byte counters, kernel arguments and the checksum;
* ``run_on_mips`` cycles and instructions and ``profile_call`` counts on
  two kernels (the hook-driven stepping path);
* the ``max_steps`` boundary for ``call()`` and ``step()``, including the
  memory image at the instant the limit trips.

Regenerate (only when a semantic change is intended) with
``PYTHONPATH=src python tests/test_interp_compiled.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.errors import InterpError
from repro.frontend import compile_c
from repro.harness.runner import setup_workload
from repro.hw import run_on_mips
from repro.interp import ChannelIO, Interpreter, Memory, Status, profile_call
from repro.ir import (
    BinaryOp,
    Constant,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    ParallelJoin,
    RetrieveLiveout,
    StoreLiveout,
)
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.transforms import optimize_module

#: kernel -> setup image/counters, measure and check results.
KERNEL_PINS = {'1D-Gaussblur': {'args': [4160, 12480, 10, 96],
                  'check_steps': 14804,
                  'checksum': 1347.6305624999968,
                  'final_bytes': [23852, 28220],
                  'final_image': 'b2a72e556fb49712303c3c5c4aa76208fadfdae591ee404279982bb930eb72a5',
                  'measure_steps': 17894,
                  'measure_value': None,
                  'setup_bytes': [8320, 20860],
                  'setup_image': '6abcd4fb08e3f3f2dd8d95632861bdba5bc20a932cc94c3fd02ec2d9e8ab9d2d',
                  'setup_steps': 22925},
 'Hash-indexing': {'args': [12296, 12312, 64],
                   'check_steps': 8779,
                   'checksum': 267495.25,
                   'final_bytes': [14600, 16656],
                   'final_image': '86da0bd921d6b2f716b8f094ade57fe206a6e7050f08dce93044ff4befdbb6ad',
                   'measure_steps': 14852,
                   'measure_value': None,
                   'setup_bytes': [4096, 10512],
                   'setup_image': 'dc86d433bcdfc91d918bcecf4168de0fa07cbba667224453a37e5caeb6edf3e7',
                   'setup_steps': 13205},
 'K-means': {'args': [4136, 10280, 10600, 10984, 11304, 96, 5, 8],
             'check_steps': 1446,
             'checksum': 1176.7179999999998,
             'final_bytes': [81708, 17368],
             'final_image': '8a8e7ac62704d97e0ade515bde2b90a96ea787cb2480bd2e13d3c384783c5d58',
             'measure_steps': 61088,
             'measure_value': 96,
             'setup_bytes': [6464, 10456],
             'setup_image': 'ac6bba098bb1b99e04e7791ae246babb39df8f3dc1a4d96772578fdff5fff4ba',
             'setup_steps': 16300},
 'bfs': {'args': [4136, 4528, 5680, 6064, 96],
         'check_steps': 1574,
         'checksum': 90721.0,
         'final_bytes': [8376, 4176],
         'final_image': '0a8aad41ba6b44bd2941be25b087f0274e6d14f393a7d101f5fafd747a9e4dbf',
         'measure_steps': 7917,
         'measure_value': 450428634,
         'setup_bytes': [3056, 3480],
         'setup_image': '9c5449c420e88afbee5073d1c88caec70b6751b852f0db7f8c7130b0ffff3cc5',
         'setup_steps': 7124},
 'em3d': {'args': [30112],
          'check_steps': 1544,
          'checksum': 105.69360199999994,
          'final_bytes': [492168, 51976],
          'final_image': 'eb7503f070756aaae4df266e7d7b9e6a435cbabf419f76624a5605c9c26d4f0d',
          'measure_steps': 33988,
          'measure_value': None,
          'setup_bytes': [426884, 39688],
          'setup_image': 'f17f851e188fe7fa518d2b97cc2ac5a309ac0d3ebca786d447e962b3d0554434',
          'setup_steps': 940856},
 'hash-join': {'args': [6744, 4136, 16],
               'check_steps': 78005,
               'checksum': 55584.0,
               'final_bytes': [86188, 4308],
               'final_image': '2271f20fb6b4920a4e094f08ab00b5c2e2990caf42a1e3f3d86e240f2a78c3f0',
               'measure_steps': 5459,
               'measure_value': 7002624,
               'setup_bytes': [3328, 4308],
               'setup_image': '2271f20fb6b4920a4e094f08ab00b5c2e2990caf42a1e3f3d86e240f2a78c3f0',
               'setup_steps': 6907},
 'ks': {'args': [4760, 5400, 5416, 40],
        'check_steps': 35504,
        'checksum': 4.64,
        'final_bytes': [128976, 20820],
        'final_image': 'b252b8553e3781fc2f281f5df541ea2a68a89b97d1b67535759d8309fb3eb68f',
        'measure_steps': 35708,
        'measure_value': 4.64,
        'setup_bytes': [13440, 20820],
        'setup_image': 'b252b8553e3781fc2f281f5df541ea2a68a89b97d1b67535759d8309fb3eb68f',
        'setup_steps': 32514},
 'spmv': {'args': [4136, 4336, 4904, 6032, 6288, 48],
          'check_steps': 539,
          'checksum': -0.2845416599999997,
          'final_bytes': [6492, 4392],
          'final_image': '0f14e7e2901c4683831121bd30fd4bc6f0e6d673dd986b199129a8b7e17efb78',
          'measure_steps': 2416,
          'measure_value': -0.29179000000000055,
          'setup_bytes': [2896, 4008],
          'setup_image': 'c653d71ddd3b97a54010dd9dc540ec3fe37f35f571c3480c5b0bce4f25945552',
          'setup_steps': 6332},
 'top-k': {'args': [6168, 6184, 8],
           'check_steps': 107,
           'checksum': 500323.5,
           'final_bytes': [5072, 2980],
           'final_image': '0a2e685cbe8fea56f2a8d27cc60df8e5e9fb67744300aee5facaa441094af14f',
           'measure_steps': 4556,
           'measure_value': 20,
           'setup_bytes': [2048, 2612],
           'setup_image': 'be0f0f2b9355dd37293120d7d41d4114d61c468650f572b85a2b60aa0de86def',
           'setup_steps': 4040}}

#: kernel -> run_on_mips cycles/instructions and profile_call counts.
HOOK_PINS = {'hash-join': {'mips_cycles': 19759,
               'mips_image': '2271f20fb6b4920a4e094f08ab00b5c2e2990caf42a1e3f3d86e240f2a78c3f0',
               'mips_instructions': 7720,
               'profile_blocks': [1515,
                                  '538034df6b84ac29beacf646e1531a9f7be89444ad3fa2dd822737ad504e9853'],
               'profile_edges': [1514,
                                 '56de7cc2c292bb82f65f70d23356a3b0b873f003d8fe23b12d98db3f86072d24'],
               'profile_insts': [7720,
                                 '4ff50e2a9d9e147f0c3a1430bb0538b17a61c130dd43f768b38dec632274d30f'],
               'profile_value': 7002624},
 'ks': {'mips_cycles': 141872,
        'mips_image': 'b252b8553e3781fc2f281f5df541ea2a68a89b97d1b67535759d8309fb3eb68f',
        'mips_instructions': 40710,
        'profile_blocks': [5107,
                           'e52e488209faf17cf3a7cff9ba94e1e58210a4f290e9cac6d5f73f158f54cde8'],
        'profile_edges': [5106,
                          'bafbf65e65f353582b73a30a5a0fd15347a8cf25c731d263a4c5e0445b6f597c'],
        'profile_insts': [40710,
                          '5ce554508deb51fe288856eeadcea3811a126111d3a708d13ed1f4b060b53a57'],
        'profile_value': 4.64}}

#: Limit that trips mid-setup, and the image at that instant.
BOUNDARY_PINS = {'image': '3dab5a5c2e03367a2fb3ed135ca9189994ef15085110df9cdf1a28102a32e1bc',
 'steps': 5001}

HOOK_KERNELS = ("ks", "hash-join")
BOUNDARY_KERNEL = "Hash-indexing"
BOUNDARY_LIMIT = 5000


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _module(spec):
    module = compile_c(spec.source, spec.name)
    optimize_module(module)
    return module


def kernel_pin(spec) -> dict:
    module = _module(spec)
    setup = Interpreter(module)
    setup.call(spec.setup_function, list(spec.setup_args))
    memory, globals_ = setup.memory, setup.global_addresses
    pin = {
        "setup_image": _sha(memory.snapshot()),
        "setup_steps": setup.steps,
        "setup_bytes": [memory.bytes_read, memory.bytes_written],
    }
    _, _, args = setup_workload(module, spec)
    pin["args"] = args
    run = Interpreter(module, memory, global_addresses=globals_)
    pin["measure_value"] = run.call(spec.measure_entry, args)
    pin["measure_steps"] = run.steps
    check = Interpreter(module, memory, global_addresses=globals_)
    pin["checksum"] = check.call(spec.check_function, [])
    pin["check_steps"] = check.steps
    pin["final_image"] = _sha(memory.snapshot())
    pin["final_bytes"] = [memory.bytes_read, memory.bytes_written]
    return pin


def hook_pin(spec) -> dict:
    module = _module(spec)
    memory, globals_, args = setup_workload(module, spec)
    profiled = memory.clone()
    mips = run_on_mips(module, spec.measure_entry, args, memory,
                       global_addresses=globals_)
    profile = profile_call(module, spec.measure_entry, args, profiled)
    # Counts in IR order (the profile is keyed by object identity).
    insts, blocks, edges = [], [], []
    for function in module.functions.values():
        for block in function.blocks:
            blocks.append(profile.block_count(block))
            insts.extend(profile.count(inst) for inst in block.instructions)
            for succ in function.blocks:
                edges.append(profile.edge_count(block, succ))
    return {
        "mips_cycles": mips.cycles,
        "mips_instructions": mips.instructions,
        "mips_image": _sha(memory.snapshot()),
        "profile_insts": [sum(insts), _sha(json.dumps(insts).encode())],
        "profile_blocks": [sum(blocks), _sha(json.dumps(blocks).encode())],
        "profile_edges": [sum(edges), _sha(json.dumps(edges).encode())],
        "profile_value": profile.return_value,
    }


def boundary_pin(spec) -> dict:
    module = _module(spec)
    interp = Interpreter(module, max_steps=BOUNDARY_LIMIT)
    try:
        interp.call(spec.setup_function, list(spec.setup_args))
    except InterpError:
        pass
    return {"steps": interp.steps,
            "image": _sha(interp.memory.snapshot())}


def _sum_module():
    module = compile_c(
        "int a[8];\n"
        "int f(int n) { int s = 0; for (int i = 0; i < n; i++) "
        "{ a[i & 7] = s; s += i; } return s; }"
    )
    optimize_module(module)
    return module


def _stepped(interp: Interpreter, args) -> int:
    interp.start("f", args)
    while interp.step() is not Status.DONE:
        pass
    return interp.return_value


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNEL_PINS))
def test_kernel_setup_measure_check_pins(name):
    assert kernel_pin(KERNELS_BY_NAME[name]) == KERNEL_PINS[name]


def test_every_kernel_is_pinned():
    assert sorted(KERNEL_PINS) == sorted(spec.name for spec in ALL_KERNELS)


@pytest.mark.parametrize("name", HOOK_KERNELS)
def test_mips_and_profile_pins(name):
    assert hook_pin(KERNELS_BY_NAME[name]) == HOOK_PINS[name]


def test_max_steps_trips_mid_setup_at_the_pinned_image():
    assert boundary_pin(KERNELS_BY_NAME[BOUNDARY_KERNEL]) == BOUNDARY_PINS


class TestMaxStepsBoundary:
    """A run needing N steps succeeds at ``max_steps=N`` and raises at
    N-1 exactly when the N-th step is attempted, on both drivers."""

    def _needed(self) -> int:
        interp = Interpreter(_sum_module())
        interp.call("f", [25])
        return interp.steps

    def test_call_succeeds_at_n(self):
        n = self._needed()
        interp = Interpreter(_sum_module(), max_steps=n)
        assert interp.call("f", [25]) == sum(range(25))
        assert interp.steps == n

    def test_call_raises_at_n_plus_one(self):
        n = self._needed()
        interp = Interpreter(_sum_module(), max_steps=n - 1)
        with pytest.raises(InterpError, match="max_steps"):
            interp.call("f", [25])
        assert interp.steps == n

    def test_step_succeeds_at_n(self):
        n = self._needed()
        interp = Interpreter(_sum_module(), max_steps=n)
        assert _stepped(interp, [25]) == sum(range(25))
        assert interp.steps == n

    def test_step_raises_at_n_plus_one(self):
        n = self._needed()
        interp = Interpreter(_sum_module(), max_steps=n - 1)
        with pytest.raises(InterpError, match="max_steps"):
            _stepped(interp, [25])
        assert interp.steps == n

    def test_both_drivers_leave_the_same_image(self):
        images = []
        for drive in (lambda i: i.call("f", [25]),
                      lambda i: _stepped(i, [25])):
            interp = Interpreter(_sum_module(), max_steps=60)
            with pytest.raises(InterpError):
                drive(interp)
            images.append((interp.steps, interp.memory.snapshot()))
        assert images[0] == images[1]


class TestCacheScoping:
    def test_new_run_sees_in_place_mutation(self):
        module = compile_c("int f(int a) { return a + 1; }")
        optimize_module(module)
        assert Interpreter(module).call("f", [41]) == 42
        # Mutate the IR in place, as the pipeline driver does after
        # profiling: turn the add into a sub.
        add = next(inst for inst in module.get_function("f").instructions()
                   if isinstance(inst, BinaryOp))
        sub = BinaryOp("sub", add.lhs, add.rhs)
        block = add.parent
        block.insert(block.instructions.index(add), sub)
        add.replace_all_uses_with(sub)
        add.erase()
        assert Interpreter(module).call("f", [41]) == 40

    def test_globals_bound_per_run(self):
        module = compile_c("int g; int f(void) { g = 5; return g; }")
        first = Interpreter(module)
        assert first.call("f", []) == 5
        other = Memory()
        other.malloc(4096)  # shifts where the second run places ``g``
        second = Interpreter(module, other)
        assert second.global_addresses != first.global_addresses
        assert second.call("f", []) == 5
        assert other.load(second.global_addresses["g"],
                          module.globals["g"].value_type) == 5


class TestErrorPaths:
    """Malformed or hand-built IR fails with a typed error when (and
    only when) the offending instruction runs."""

    def _diamond(self):
        """``x`` is defined on one arm only and used after the join."""
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, [I32]), ["c"])
        entry, left, right, join = (f.new_block(n) for n in
                                    ("entry", "left", "right", "join"))
        b = IRBuilder(entry)
        b.cond_branch(b.icmp("ne", f.args[0], b.const_int(0)), left, right)
        b.set_block(left)
        x = b.add(f.args[0], b.const_int(1), "x")
        b.jump(join)
        b.set_block(right)
        b.jump(join)
        b.set_block(join)
        b.ret(x)
        return m

    def test_undefined_value_raises_only_on_the_undefined_path(self):
        m = self._diamond()
        assert Interpreter(m).call("f", [4]) == 5
        with pytest.raises(InterpError, match="undefined value %x"):
            Interpreter(m).call("f", [0])

    def test_undefined_value_on_the_stepping_driver(self):
        interp = Interpreter(self._diamond())
        interp.start("f", [0])
        with pytest.raises(InterpError, match="undefined value"):
            while interp.step() is not Status.DONE:
                pass

    def test_phi_at_function_entry(self):
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, []), [])
        entry = f.new_block("entry")
        b = IRBuilder(entry)
        p = b.phi(I32, "p")
        p.add_incoming(b.const_int(1), entry)
        b.ret(p)
        with pytest.raises(InterpError, match="outside a block entry"):
            Interpreter(m).call("f", [])

    def test_block_without_terminator(self):
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, []), [])
        b = IRBuilder(f.new_block("entry"))
        b.add(b.const_int(1), b.const_int(2))
        with pytest.raises(InterpError, match="without a terminator"):
            Interpreter(m).call("f", [])

    def test_call_to_undefined_function(self):
        m = Module("m")
        ext = m.new_function("ext", FunctionType(I32, []), [])
        f = m.new_function("f", FunctionType(I32, []), [])
        b = IRBuilder(f.new_block("entry"))
        b.ret(b.call(ext, []))
        with pytest.raises(InterpError, match="undefined function @ext"):
            Interpreter(m).call("f", [])

    @pytest.mark.parametrize("inst, message", [
        (lambda: StoreLiveout(0, Constant(I32, 1)), "without a ChannelIO"),
        (lambda: ParallelJoin(0), "without a fork handler"),
    ])
    def test_primitives_without_their_runtime(self, inst, message):
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, []), [])
        b = IRBuilder(f.new_block("entry"))
        b.block.append(inst())
        b.ret(b.const_int(0))
        with pytest.raises(InterpError, match=message):
            Interpreter(m).call("f", [])

    def test_liveout_never_stored(self):
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, []), [])
        b = IRBuilder(f.new_block("entry"))
        b.ret(b.block.append(RetrieveLiveout(3, I32)))
        with pytest.raises(InterpError, match="liveout #3 never stored"):
            Interpreter(m, channel_io=ChannelIO()).call("f", [])

    def test_deep_recursion_uses_no_python_stack(self):
        module = compile_c(
            "int f(int n) { if (n == 0) return 0; return 1 + f(n - 1); }"
        )
        optimize_module(module)
        assert Interpreter(module).call("f", [5000]) == 5000


if __name__ == "__main__":
    pins = {
        "KERNEL_PINS": {s.name: kernel_pin(s) for s in ALL_KERNELS},
        "HOOK_PINS": {k: hook_pin(KERNELS_BY_NAME[k]) for k in HOOK_KERNELS},
        "BOUNDARY_PINS": boundary_pin(KERNELS_BY_NAME[BOUNDARY_KERNEL]),
    }
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    print()
