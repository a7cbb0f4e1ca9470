"""The fuzz execution fast paths equal the plain loops they replace.

Each fast path (columnar ``pack_matrix`` and ``decode_rows``, the
memoized ``metric_filter``, the table-driven ``bitmap_of``, and reset
rows inside the stimulus matrix) is checked against a test-local copy of
the straightforward loop it replaced.  A fixed-seed I2C fuzz run on
``c`` and ``verilator`` pins the search itself.
"""

import hashlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    CBackend,
    EssentBackend,
    InputMatrix,
    TreadleBackend,
    VerilatorBackend,
)
from repro.backends.api import run_inputs
from repro.backends.cbackend import find_compiler, pack_matrix
from repro.coverage import instrument
from repro.coverage.common import InstanceTree
from repro.designs.i2c import I2cPeripheral
from repro.fuzz import AflFuzzer, FuzzHarness, bitmap_of, bucket, metric_filter
from repro.hcl import Module, elaborate
from repro.ir.types import mask

needs_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler on PATH")

SCALAR_TIERS = {
    "interpreter": lambda: TreadleBackend(jit=False),
    "treadle-jit": lambda: TreadleBackend(),
    "verilator": VerilatorBackend,
    "essent": EssentBackend,
    "c": CBackend,
}

scalar_tiers = pytest.mark.parametrize(
    "tier",
    [pytest.param(n, marks=needs_cc) if n == "c" else n for n in SCALAR_TIERS],
)


# -- reference loops ------------------------------------------------------------


def reference_pack(matrix, layout, held):
    """The row-by-row packer: mask each value, split wide ports in two."""
    columns = {port: i for i, port in enumerate(matrix.ports)}
    held_values = iter(held)
    slots = []
    for name, width, words in layout:
        column = columns.get(name)
        fixed = next(held_values) if column is None else 0
        slots.append((column, fixed, mask(width), words == 2))
    flat = []
    for row in matrix.rows:
        for column, fixed, port_mask, wide in slots:
            value = (fixed if column is None else row[column]) & port_mask
            if wide:
                flat.append(value & ((1 << 64) - 1))
                flat.append(value >> 64)
            else:
                flat.append(value)
    return array("Q", flat)


def reference_decode(harness, data):
    """The chunk-by-chunk decoder: one padded slice and shift loop per cycle."""
    step = harness.bytes_per_cycle
    n_cycles = min(max(-(-len(data) // step), 1), harness.max_cycles)
    rows = []
    for cycle in range(n_cycles):
        chunk = data[cycle * step : (cycle + 1) * step]
        value = int.from_bytes(chunk.ljust(step, b"\0"), "little")
        row = []
        for port in harness.ports:
            row.append(value & ((1 << port.width) - 1))
            value >>= port.width
        rows.append(tuple(row))
    return rows


def reference_filter(db, state, metric):
    """The unmemoized filter: resolve every key on every call."""
    tree = InstanceTree(state.circuit)
    wanted = {f"{module}\x00{name}" for module, name, _ in db.covers_of(metric)}

    def filter_counts(counts):
        out = {}
        for key, count in counts.items():
            module, local = tree.resolve(key)
            if f"{module}\x00{local}" in wanted:
                out[key] = count
        return out

    return filter_counts


def reference_execute(harness, data):
    """Reset by poke + step + poke, then the decoded rows: (counts, cycles)."""
    sim = harness._fresh_sim()
    if harness.reset_cycles and "reset" in harness._input_names:
        sim.poke("reset", 1)
        sim.step(harness.reset_cycles)
        sim.poke("reset", 0)
    result = run_inputs(sim, InputMatrix(harness._columns, harness.decode_rows(data)))
    return sim.cover_counts(), max(result.cycles, 1)


# -- pack_matrix ----------------------------------------------------------------

WIDTHS = (1, 63, 64, 65, 128)


@st.composite
def packing_cases(draw):
    widths = draw(st.lists(st.sampled_from(WIDTHS), min_size=1, max_size=5))
    layout = tuple(
        (f"p{i}", width, 2 if width > 64 else 1) for i, width in enumerate(widths)
    )
    driven = draw(st.lists(st.sampled_from([name for name, _, _ in layout]), unique=True))
    values = st.integers(-(1 << 130), 1 << 130) | st.integers(0, 3)
    rows = draw(
        st.lists(st.tuples(*[values] * len(driven)), max_size=6)
    )
    held = [draw(values) for name, _, _ in layout if name not in driven]
    return InputMatrix(driven, rows), layout, held


@settings(max_examples=200, deadline=None)
@given(packing_cases())
def test_pack_matrix_equals_the_row_loop(case):
    matrix, layout, held = case
    assert pack_matrix(matrix, layout, held) == reference_pack(matrix, layout, held)


def test_pack_matrix_zero_rows():
    layout = (("a", 65, 2), ("b", 1, 1))
    matrix = InputMatrix(("a",), [])
    assert len(pack_matrix(matrix, layout, [1])) == 0


# -- decode_rows ----------------------------------------------------------------


class _Ports(Module):
    """Ports of 1, 7, 9 and 64 bits: 81 bits, so 11 bytes per cycle."""

    def build(self, m):
        out = m.output("o", 64)
        total = m.reg("total", 64, init=0)
        mixed = total
        for name, width in (("a", 1), ("b", 7), ("c", 9), ("d", 64)):
            mixed = mixed ^ m.input(name, width)
        total <<= mixed
        out <<= total
        m.cover(total == 3, "three")


class _Wide(Module):
    """One 12-bit port: 2 bytes per cycle with 4 spare bits."""

    def build(self, m):
        acc = m.reg("acc", 12, init=0)
        acc <<= acc ^ m.input("a", 12)
        m.cover(acc == 0xFFF, "all_ones")


class _NoPorts(Module):
    """No data ports at all: every decoded row is empty."""

    def build(self, m):
        cnt = m.reg("cnt", 4, init=0)
        cnt <<= cnt + 1
        m.cover(cnt == 2, "two")


class _NoResetPort(Module):
    def build(self, m):
        a = m.input("a", 4)
        total = m.reg("total", 4)
        total <<= total + a
        m.cover(total == 9, "niner")


class _ResetStop(Module):
    """Stops on the first edge that sees reset high."""

    def build(self, m):
        en = m.input("en")
        cnt = m.reg("cnt", 4, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        m.cover(cnt == 2, "two")
        m.stop(m.reset == 1, 4, "in_reset")


class _Stopper(Module):
    """Stops after 5 enabled cycles."""

    def build(self, m):
        en = m.input("en")
        cnt = m.reg("cnt", 4, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        m.cover(cnt == 3, "at_three")
        m.stop(cnt == 5, 3, "enough")


def _state(module, metrics=("line",)):
    state, _db = instrument(elaborate(module), metrics=list(metrics))
    return state


_DECODERS = {
    name: FuzzHarness(_state(module()), backend=TreadleBackend())
    for name, module in (("ports", _Ports), ("wide", _Wide), ("none", _NoPorts))
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_DECODERS)),
    st.binary(max_size=80),
    st.integers(1, 9),
)
def test_decode_rows_equals_the_chunk_loop(name, data, max_cycles):
    harness = _DECODERS[name]
    harness.max_cycles = max_cycles
    assert harness.decode_rows(data) == reference_decode(harness, data)


def test_decode_rows_edges():
    harness = _DECODERS["ports"]
    harness.max_cycles = 4
    assert harness.bytes_per_cycle == 11
    for data in (b"", b"\x01", bytes(range(23)), bytes(range(200))):
        assert harness.decode_rows(data) == reference_decode(harness, data)
    assert len(harness.decode_rows(bytes(range(200)))) == 4  # capped
    assert _DECODERS["none"].decode_rows(b"\x05\x06") == reference_decode(
        _DECODERS["none"], b"\x05\x06"
    )


# -- metric_filter and bitmap_of ------------------------------------------------


class _Leaf(Module):
    def build(self, m):
        x = m.input("x", 2)
        out = m.output("o", 2)
        with m.when(x == 1):
            out <<= 1
        with m.otherwise():
            out <<= x


class _Tree(Module):
    """Two instances of one child, so cover keys carry instance paths."""

    def build(self, m):
        x = m.input("x", 2)
        out = m.output("o", 4)
        left, right = m.instance("left", _Leaf()), m.instance("right", _Leaf())
        left.x <<= x
        right.x <<= x ^ 3
        with m.when(x == 2):
            out <<= left.o
        with m.otherwise():
            out <<= right.o


_TREE_STATE, _TREE_DB = instrument(elaborate(_Tree()), metrics=["line", "mux_toggle"])
_TREE_KEYS = sorted(TreadleBackend().compile_state(_TREE_STATE).cover_counts())


@pytest.mark.parametrize("metric", ["line", "mux_toggle"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoized_filter_equals_the_plain_filter(metric, data):
    fast = metric_filter(_TREE_DB, _TREE_STATE, metric)
    slow = reference_filter(_TREE_DB, _TREE_STATE, metric)
    for _ in range(3):  # later calls hit the cached verdicts
        keys = data.draw(st.lists(st.sampled_from(_TREE_KEYS), unique=True))
        counts = {key: data.draw(st.integers(0, 500)) for key in keys}
        assert fast(counts) == slow(counts)


def test_filter_keys_span_instances():
    assert any(key.startswith("left.") for key in _TREE_KEYS)
    assert metric_filter(_TREE_DB, _TREE_STATE, "line")({k: 1 for k in _TREE_KEYS})


def test_unknown_key_raises_on_every_sight():
    fast = metric_filter(_TREE_DB, _TREE_STATE, "line")
    for _ in range(2):
        with pytest.raises(KeyError):
            fast({"nowhere.line_0": 1})


def test_bitmap_of_equals_bucket():
    counts = {f"c{n}": n for n in [*range(301), 2**40]}
    want = frozenset((name, bucket(n)) for name, n in counts.items() if n > 0)
    assert bitmap_of(counts) == want


# -- reset rows in the stimulus matrix -------------------------------------------

_INPUTS = [b"", b"\x01", b"\x03\x00\x01\x01", bytes(range(1, 40)), b"\xff" * 9]


@scalar_tiers
@pytest.mark.parametrize("reset_cycles", [0, 1, 2])
@pytest.mark.parametrize("module", [_Stopper, _NoResetPort, _ResetStop])
def test_execute_equals_the_poke_step_reset(tier, reset_cycles, module):
    state = _state(module())
    fast = FuzzHarness(
        state, backend=SCALAR_TIERS[tier](), max_cycles=16, reset_cycles=reset_cycles
    )
    slow = FuzzHarness(
        state, backend=SCALAR_TIERS[tier](), max_cycles=16, reset_cycles=reset_cycles
    )
    cycles = 0
    for data in _INPUTS:
        counts, spent = reference_execute(slow, data)
        cycles += spent
        assert fast.execute(data) == counts
    assert fast.cycles_executed == cycles
    assert fast.executions == len(_INPUTS)


@scalar_tiers
def test_stop_on_the_reset_edge_costs_one_cycle(tier):
    harness = FuzzHarness(
        _state(_ResetStop()), backend=SCALAR_TIERS[tier](), reset_cycles=2
    )
    harness.execute(bytes(range(10)))
    assert harness.cycles_executed == 1


# -- the search itself ------------------------------------------------------------

#: a 300-execution line-feedback run on I2C (corpus bytes(range(8)) * 4,
#: AFL seed 7), as recorded before the fast paths
PINNED_I2C = {
    "covered": 11,
    "queue": 22,
    "curve": [(1, 4), (2, 10), (5, 11)],
    "cycles": 9592,
    "queue_sha256": "b05229414f1c692b",
}


@pytest.mark.parametrize(
    "backend", [pytest.param(CBackend, marks=needs_cc), VerilatorBackend]
)
def test_pinned_i2c_fuzz_run(backend):
    state, db = instrument(elaborate(I2cPeripheral()), metrics=["line"])
    line = metric_filter(db, state, "line")
    harness = FuzzHarness(state, backend=backend(), max_cycles=64)
    fuzzer = AflFuzzer(
        harness.execute, feedback=line, track=line,
        seeds=(bytes(range(8)) * 4,), seed=7,
    )
    stats = fuzzer.run(300)
    digest = hashlib.sha256(b"|".join(q.data for q in fuzzer.queue)).hexdigest()
    assert {
        "covered": len(stats.covered),
        "queue": len(fuzzer.queue),
        "curve": stats.coverage_curve,
        "cycles": harness.cycles_executed,
        "queue_sha256": digest[:16],
    } == PINNED_I2C
    assert harness.executions == stats.executions == 300
