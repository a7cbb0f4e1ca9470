"""Edge cases where every simulation tier must match the interpreter.

Each case runs on the tree-walking interpreter (the semantic reference),
the treadle JIT, verilator, essent, the native ``c`` tier and ``swarm``
(lane 0 under broadcast pokes), and pins the interpreter's answer:

* a memory write whose data is wider than the memory word keeps only
  the word's bits;
* an address port wider than the memory: a write past the depth is
  dropped and a read past it returns 0;
* two writes on one edge: a write whose data reads a memory written
  earlier on that edge stores the old word;
* a signed register reset from a narrower signed init sign-extends it;
* covers that share one canonical name merge into one count;
* of two stops firing on one edge, the first one declared is reported;
* ``step(0)`` on a stopped simulation is a plain ``StepResult(0)``.
"""

import pytest

from repro.backends import (
    CBackend,
    EssentBackend,
    StepResult,
    SwarmBackend,
    TreadleBackend,
    VerilatorBackend,
)
from repro.backends.cbackend import find_compiler
from repro.hcl import Module, elaborate
from repro.ir import (
    CLOCK,
    Circuit,
    Connect,
    DefMemory,
    DefRegister,
    MemRead,
    MemWrite,
    Port,
    Ref,
    SIntLiteral,
    SIntType,
    UIntLiteral,
    UIntType,
    prim,
)
from repro.ir import Module as IRModule
from repro.passes import lower
from repro.passes.base import CompileState

needs_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler on PATH")

TIERS = {
    "interpreter": lambda: TreadleBackend(jit=False),
    "treadle-jit": lambda: TreadleBackend(),
    "verilator": VerilatorBackend,
    "essent": EssentBackend,
    "c": CBackend,
    "swarm": lambda: SwarmBackend(lanes=2),
}

tiers = pytest.mark.parametrize(
    "tier",
    [pytest.param(name, marks=needs_cc) if name == "c" else name for name in TIERS],
)


def _compile(tier, circuit_or_state):
    state = circuit_or_state
    if not isinstance(state, CompileState):
        state = lower(circuit_or_state, flatten=True)
    return TIERS[tier]().compile_state(state)


def _circuit(ports, body):
    clock = Port("clock", "input", CLOCK)
    return Circuit("Top", [IRModule("Top", [clock, *ports], body)])


def _wide_write_memory():
    """A 4-bit, depth-4 memory written with 12-bit data."""
    clock = Ref("clock", CLOCK)
    en = Ref("en", UIntType(1))
    data = Ref("data", UIntType(12))
    addr = UIntLiteral(0, 2)
    return _circuit(
        [
            Port("en", "input", UIntType(1)),
            Port("data", "input", UIntType(12)),
            Port("out", "output", UIntType(4)),
        ],
        [
            DefMemory("m", UIntType(4), 4),
            MemWrite("m", addr, data, en, clock),
            Connect(Ref("out", UIntType(4)), MemRead("m", addr, UIntType(4))),
        ],
    )


def _wide_address_memory():
    """A 4-bit, depth-4 memory whose ports carry 8-bit addresses."""
    clock = Ref("clock", CLOCK)
    addr = UIntType(8)
    return _circuit(
        [
            Port("en", "input", UIntType(1)),
            Port("waddr", "input", addr),
            Port("data", "input", UIntType(4)),
            Port("raddr", "input", addr),
            Port("out", "output", UIntType(4)),
        ],
        [
            DefMemory("m", UIntType(4), 4),
            MemWrite(
                "m", Ref("waddr", addr), Ref("data", UIntType(4)),
                Ref("en", UIntType(1)), clock,
            ),
            Connect(
                Ref("out", UIntType(4)),
                MemRead("m", Ref("raddr", addr), UIntType(4)),
            ),
        ],
    )


def _same_edge_writes(source: str):
    """One edge writes 5 to ``source[0]`` and ``source[0]`` to ``m[1]``."""
    clock = Ref("clock", CLOCK)
    en = Ref("en", UIntType(1))
    word = UIntType(4)
    memories = [DefMemory(name, word, 4) for name in sorted({source, "m"})]
    return _circuit(
        [
            Port("en", "input", UIntType(1)),
            Port("out", "output", word),
        ],
        [
            *memories,
            MemWrite(source, UIntLiteral(0, 2), UIntLiteral(5, 4), en, clock),
            MemWrite(
                "m", UIntLiteral(1, 2),
                MemRead(source, UIntLiteral(0, 2), word), en, clock,
            ),
            Connect(Ref("out", word), MemRead("m", UIntLiteral(1, 2), word)),
        ],
    )


def _narrow_signed_init():
    """An SInt<8> register reset to SInt<4>(-1)."""
    reg = Ref("r", SIntType(8))
    return _circuit(
        [
            Port("reset", "input", UIntType(1)),
            Port("out", "output", UIntType(8)),
        ],
        [
            DefRegister(
                "r", SIntType(8), Ref("clock", CLOCK),
                Ref("reset", UIntType(1)), SIntLiteral(-1, 4),
            ),
            Connect(reg, reg),
            Connect(Ref("out", UIntType(8)), prim("asUInt", reg)),
        ],
    )


class _Readout(Module):
    def build(self, m):
        en = m.input("en")
        cnt = m.reg("cnt", 8, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        m.cover(en, "on")
        m.cover(cnt[0] == 1, "odd")
        m.cover(cnt == 200, "never")


class _Counter(Module):
    def build(self, m):
        en = m.input("en")
        out = m.output("count", 8)
        cnt = m.reg("cnt", 8, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        out <<= cnt
        m.stop(cnt == 20, 7, "too_far")
        m.stop(cnt == 20, 9, "also_too_far")


@tiers
def test_memory_write_masks_data_wider_than_the_word(tier):
    sim = _compile(tier, _wide_write_memory())
    sim.poke("en", 1)
    sim.poke("data", 0xABC)
    sim.step()
    sim.poke("en", 0)
    assert sim.peek("out") == 0xC


@tiers
def test_memory_write_past_the_depth_is_dropped(tier):
    sim = _compile(tier, _wide_address_memory())
    sim.poke("en", 1)
    sim.poke("waddr", 200)
    sim.poke("data", 9)
    sim.step()
    sim.poke("en", 0)
    for addr in (0, 200):
        sim.poke("raddr", addr)
        assert sim.peek("out") == 0


@tiers
def test_memory_read_past_the_depth_is_zero(tier):
    sim = _compile(tier, _wide_address_memory())
    sim.poke("en", 1)
    sim.poke("waddr", 0)
    sim.poke("data", 9)
    sim.step()
    sim.poke("en", 0)
    sim.poke("raddr", 200)
    assert sim.peek("out") == 0
    sim.poke("raddr", 0)
    assert sim.peek("out") == 9


@tiers
@pytest.mark.parametrize("source", ["m", "a"])
def test_same_edge_write_reads_the_old_word(tier, source):
    sim = _compile(tier, _same_edge_writes(source))
    sim.poke("en", 1)
    sim.step()
    sim.poke("en", 0)
    assert sim.peek("out") == 0
    sim.poke("en", 1)
    sim.step()
    assert sim.peek("out") == 5


@tiers
def test_signed_register_init_sign_extends(tier):
    sim = _compile(tier, _narrow_signed_init())
    sim.poke("reset", 1)
    sim.step()
    assert sim.peek("out") == 0xFF


@tiers
def test_covers_sharing_a_name_merge(tier):
    flat = lower(elaborate(_Readout()), flatten=True)
    state = CompileState(flat.circuit, {"on": "twice", "odd": "twice"}, flat.metadata)
    sim = _compile(tier, state)
    sim.poke("reset", 1)
    sim.step()
    sim.poke("reset", 0)
    sim.poke("en", 1)
    sim.step(40)
    assert sim.cover_counts() == {"twice": 60, "never": 0}


@tiers
def test_step_zero_after_the_first_stop(tier):
    sim = _compile(tier, elaborate(_Counter()))
    sim.poke("reset", 1)
    sim.step()
    sim.poke("reset", 0)
    sim.poke("en", 1)
    assert sim.step(400) == StepResult(21, True, "too_far", 7)
    assert sim.step(0) == StepResult(0)
    assert sim.step(5) == StepResult(0, True, "too_far", 7)
