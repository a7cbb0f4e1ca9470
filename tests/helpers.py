"""Shared test helpers: hypothesis strategies for random IR and circuits."""

from __future__ import annotations

import random as _random

from hypothesis import strategies as st

from repro.ir import (
    BOOL,
    CLOCK,
    Circuit,
    Connect,
    Cover,
    DefMemory,
    DefNode,
    DefRegister,
    Expr,
    MemRead,
    MemWrite,
    Module,
    Port,
    PrimOp,
    Ref,
    SIntLiteral,
    SIntType,
    UIntLiteral,
    UIntType,
    bit_width,
    is_signed,
    mask,
    prim,
    u,
)

# ops usable in random generation (and their arity category)
BIN_ARITH = ["add", "sub", "mul", "div", "rem"]
BIN_CMP = ["lt", "leq", "gt", "geq", "eq", "neq"]
BIN_BITS = ["and", "or", "xor"]
UNARY = ["not", "neg", "andr", "orr", "xorr", "asUInt", "asSInt"]


@st.composite
def widths(draw, lo: int = 1, hi: int = 16):
    return draw(st.integers(lo, hi))


@st.composite
def literals(draw, width=None, signed=None):
    if width is None:
        width = draw(st.integers(1, 12))
    if signed is None:
        signed = draw(st.booleans())
    if signed:
        value = draw(st.integers(-(1 << (width - 1)), (1 << (width - 1)) - 1))
        return SIntLiteral(value, width)
    value = draw(st.integers(0, mask(width)))
    return UIntLiteral(value, width)


@st.composite
def expressions(draw, leaves: list[Expr], depth: int = 3) -> Expr:
    """A random expression over the given leaf expressions."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if leaves and draw(st.booleans()):
            return draw(st.sampled_from(leaves))
        return draw(literals())
    kind = draw(st.integers(0, 5))
    if kind == 0:  # binary same-sign op
        op = draw(st.sampled_from(BIN_ARITH + BIN_CMP + BIN_BITS))
        a = draw(expressions(leaves, depth - 1))
        b = draw(expressions(leaves, depth - 1))
        if is_signed(a.tpe) != is_signed(b.tpe):
            b = prim("asSInt", b) if is_signed(a.tpe) else prim("asUInt", b)
        return prim(op, a, b)
    if kind == 1:  # unary
        op = draw(st.sampled_from(UNARY))
        a = draw(expressions(leaves, depth - 1))
        return prim(op, a)
    if kind == 2:  # bits
        a = draw(expressions(leaves, depth - 1))
        width = bit_width(a.tpe)
        lo = draw(st.integers(0, width - 1))
        hi = draw(st.integers(lo, width - 1))
        return prim("bits", a, consts=[hi, lo])
    if kind == 3:  # shifts/pad
        a = draw(expressions(leaves, depth - 1))
        op = draw(st.sampled_from(["shl", "shr", "pad", "head", "tail"]))
        width = bit_width(a.tpe)
        if op == "shl":
            n = draw(st.integers(0, 4))
        elif op == "shr":
            n = draw(st.integers(0, width + 2))
        elif op == "pad":
            n = draw(st.integers(0, width + 4))
        elif op == "head":
            n = draw(st.integers(1, width))
        else:  # tail
            n = draw(st.integers(0, width - 1))
        return prim(op, a, consts=[n])
    if kind == 4:  # cat
        a = draw(expressions(leaves, depth - 1))
        b = draw(expressions(leaves, depth - 1))
        return prim("cat", a, b)
    # mux
    from repro.ir import Mux

    cond = draw(expressions(leaves, depth - 1))
    if bit_width(cond.tpe) != 1 or is_signed(cond.tpe):
        cond = prim("orr", cond)
    a = draw(expressions(leaves, depth - 1))
    b = draw(expressions(leaves, depth - 1))
    if is_signed(a.tpe) != is_signed(b.tpe):
        b = prim("asSInt", b) if is_signed(a.tpe) else prim("asUInt", b)
    return Mux.make(cond, a, b)


@st.composite
def random_circuits(draw, n_nodes: int = 6, n_regs: int = 2):
    """A random single-module sequential circuit with covers.

    Inputs: in_a (8), in_b (4), in_c (1).  Output: out.  UInt and SInt
    registers (signed ones reset from narrower signed inits) and one
    memory (see below).  Low-form by construction (no whens) so it can
    feed any backend directly.
    """
    ports = [
        Port("clock", "input", CLOCK),
        Port("reset", "input", UIntType(1)),
        Port("in_a", "input", UIntType(8)),
        Port("in_b", "input", UIntType(4)),
        Port("in_c", "input", UIntType(1)),
    ]
    leaves: list[Expr] = [
        Ref("in_a", UIntType(8)),
        Ref("in_b", UIntType(4)),
        Ref("in_c", UIntType(1)),
    ]
    body = []
    clock = Ref("clock", CLOCK)
    reset = Ref("reset", UIntType(1))

    regs = []
    for i in range(n_regs):
        width = draw(st.integers(1, 10))
        name = f"r{i}"
        if draw(st.booleans()):
            # signed, reset from a (possibly narrower) signed init
            tpe = SIntType(width)
            init = draw(literals(width=draw(st.integers(1, width)), signed=True))
        else:
            tpe = UIntType(width)
            init = UIntLiteral(0, width)
        body.append(DefRegister(name, tpe, clock, reset, init))
        regs.append((name, tpe))
        leaves.append(Ref(name, tpe))

    # one memory of non-power-of-two depth: its address width reaches past
    # the depth (by up to 3 bits past the padded store), and writes carry
    # data up to 2 bits wider than the word
    depth = draw(st.sampled_from([3, 5, 6, 7]))
    word = draw(st.integers(1, 8))
    addr_width = (depth - 1).bit_length() + draw(st.integers(0, 3))
    body.append(DefMemory("mem", UIntType(word), depth))
    read_addr = _fit_uint(draw(st.sampled_from(leaves)), addr_width)
    body.append(DefNode("mem_rd", MemRead("mem", read_addr, UIntType(word))))
    leaves.append(Ref("mem_rd", UIntType(word)))

    for i in range(n_nodes):
        expr = draw(expressions(leaves, depth=3))
        name = f"n{i}"
        body.append(DefNode(name, expr))
        leaves.append(Ref(name, expr.tpe))

    # register next values: truncate a random leaf into the reg width
    for name, tpe in regs:
        value = _fit_uint(draw(st.sampled_from(leaves)), bit_width(tpe))
        if is_signed(tpe):
            value = prim("asSInt", value)
        body.append(Connect(Ref(name, tpe), value))

    write_addr = _fit_uint(draw(st.sampled_from(leaves)), addr_width)
    body.append(
        MemWrite(
            "mem",
            draw(st.sampled_from([read_addr, write_addr])),
            _fit_uint(draw(st.sampled_from(leaves)), word + draw(st.integers(0, 2))),
            prim("orr", draw(st.sampled_from(leaves))),
            clock,
        )
    )

    # covers over random 1-bit predicates
    n_covers = draw(st.integers(1, 3))
    for i in range(n_covers):
        pred_src = draw(st.sampled_from(leaves))
        pred = prim("orr", pred_src)
        body.append(Cover(f"c{i}", clock, pred, UIntLiteral(1, 1)))

    # `out` shows a random leaf next to every register and the memory
    # read, so a wrong register or memory state is observed, not masked
    out_u = prim("asUInt", draw(st.sampled_from(leaves)))
    for state in [Ref(name, tpe) for name, tpe in regs] + [Ref("mem_rd", UIntType(word))]:
        out_u = prim("cat", out_u, prim("asUInt", state))
    out_width = bit_width(out_u.tpe)
    ports.append(Port("out", "output", UIntType(out_width)))
    body.append(Connect(Ref("out", UIntType(out_width)), out_u))

    module = Module("RandTop", ports, body)
    return Circuit("RandTop", [module])


def _fit_uint(src: Expr, width: int) -> Expr:
    """``src`` as a ``width``-bit UInt (truncated or zero-padded)."""
    raw = prim("asUInt", src)
    if bit_width(raw.tpe) > width:
        return prim("bits", raw, consts=[width - 1, 0])
    if bit_width(raw.tpe) < width:
        return prim("pad", raw, consts=[width])
    return raw


def random_stimulus(seed: int, cycles: int):
    """Deterministic random input vectors for the random_circuits ports."""
    rng = _random.Random(seed)
    return [
        {
            "in_a": rng.randint(0, 255),
            "in_b": rng.randint(0, 15),
            "in_c": rng.randint(0, 1),
            "reset": 1 if cycle < 1 else 0,
        }
        for cycle in range(cycles)
    ]


def run_with_stimulus(sim, stimulus):
    """Apply stimulus, collecting the output each cycle."""
    outputs = []
    for frame in stimulus:
        for name, value in frame.items():
            sim.poke(name, value)
        outputs.append(sim.peek("out"))
        sim.step(1)
    return outputs
