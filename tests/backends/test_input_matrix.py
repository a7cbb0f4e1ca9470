"""Batched input-matrix stimulus must equal poke + ``step(1)`` exactly.

:func:`repro.backends.api.run_inputs` hands the ``c`` backend a whole
stimulus matrix in one native ``repro_step`` call and every other
backend a generic poke/step loop.  Both are pinned here against the
per-cycle reference — poke every row, ``step(1)`` every row, as the
replay harness used to — on every observable: cover counts (with
``counter_width`` saturation), ``cycle``, the aggregate stop result,
input and output peeks afterwards, value histograms, and the fuzz
harness's execution/cycle accounting.  The degraded paths (no compiler,
a stale ABI-v1 artifact) must leave counts unchanged.
"""

import random
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.conftest import BENCH_DESIGNS, recorded_replay
from repro.backends import (
    BACKENDS,
    InputMatrix,
    ModelCache,
    StepResult,
    TreadleBackend,
    poke_and_step,
    run_inputs,
)
from repro.backends.cbackend import (
    C_ABI_VERSION,
    CBackend,
    CSimulation,
    artifact_ok,
    build_shared_object,
    find_compiler,
    generate_c_source,
)
from repro.backends.model import build_model
from repro.backends.treadle import TreadleSimulation
from repro.coverage import instrument
from repro.fuzz import FuzzHarness
from repro.hcl import Module, elaborate
from repro.ir.types import mask
from repro.runtime.telemetry import obs

needs_cc = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler on PATH"
)


class _Narrow(Module):
    """64-bit word model: ports of width 1, 63 and 64, a signed port, a
    port the stimulus never drives, and a stop the stimulus can fire."""

    def build(self, m):
        a1 = m.input("a1")
        a63 = m.input("a63", 63)
        a64 = m.input("a64", 64)
        s8 = m.input("s8", 8, signed=True)
        held = m.input("held", 8)
        halt = m.input("halt")
        out = m.output("out", 64)
        cnt = m.reg("cnt", 4, init=0)
        acc = m.reg("acc", 64, init=0)
        with m.when(a1):
            cnt <<= cnt + 1
        acc <<= acc ^ a64 ^ a63
        out <<= acc
        m.cover(a1, "a1_high")
        m.cover(s8 < 0, "s8_negative")
        m.cover(a64[63], "a64_top")
        m.cover(a63[62], "a63_top")
        m.cover(held == 0x5A, "held_magic")
        m.cover(cnt[0], "cnt_odd")
        m.stop(halt & (cnt > 2), 3, "halted")


class _Wide(Module):
    """128-bit word model: two-word columns for the 65- and 128-bit ports."""

    def build(self, m):
        w65 = m.input("w65", 65)
        w128 = m.input("w128", 128)
        n1 = m.input("n1")
        out = m.output("out", 128)
        acc = m.reg("acc", 128, init=0)
        acc <<= acc ^ w128 ^ w65
        out <<= acc
        m.cover(w65[64], "w65_top")
        m.cover(w128[127], "w128_top")
        m.cover(n1, "n1")
        m.stop(n1 & w128[0] & w65[0], 9, "both_odd")


_NARROW = elaborate(_Narrow())
_WIDE = elaborate(_Wide())

#: driven columns; "held" (and clock/reset) stay unrecorded
_NARROW_PORTS = {"reset": 1, "a1": 1, "a63": 63, "a64": 64, "s8": 8, "halt": 1}
_WIDE_PORTS = {"reset": 1, "w65": 65, "w128": 128, "n1": 1}


def _values(width):
    """Raw values biased to the edges, plus out-of-range and negative
    ones that every path must mask to the port width."""
    return st.one_of(
        st.integers(0, mask(width)),
        st.sampled_from([0, 1, mask(width), 1 << (width - 1)]),
        st.integers(-(1 << width), 1 << (width + 3)),
    )


@st.composite
def _matrices(draw, ports):
    n = draw(st.integers(0, 24))
    rows = [
        tuple(draw(_values(width)) for width in ports.values())
        for _ in range(n)
    ]
    return InputMatrix(list(ports), rows)


def _per_cycle(sim, matrix):
    """The reference: poke every row, ``step(1)`` every row."""
    results = []
    for row in matrix.rows:
        for port, value in zip(matrix.ports, row):
            sim.poke(port, value)
        results.append(sim.step(1))
    stop = next((r for r in results if r.stopped), None)
    done = sum(r.cycles for r in results)
    if stop is None:
        return StepResult(done)
    return StepResult(done, True, stop.stop_name, stop.exit_code)


def _observe(sim, circuit, probe):
    ports = [p.name for p in circuit.modules[0].ports]
    return {
        "counts": sim.cover_counts(),
        "cycle": sim.cycle,
        "ports": {port: sim.peek(port) for port in ports},
        "histogram": sim.value_histogram(probe) if probe else None,
    }


def _assert_parity(circuit, matrices, held, counter_width, probe):
    backend = CBackend()
    batched = backend.compile(circuit, counter_width=counter_width)
    single = backend.compile(circuit, counter_width=counter_width)
    assert isinstance(batched, CSimulation)
    for sim in (batched, single):
        for port, value in held.items():
            sim.poke(port, value)
        if probe:
            sim.watch_values(probe)
    for matrix in matrices:
        got = run_inputs(batched, matrix)
        want = _per_cycle(single, matrix)
        assert got == want
    assert _observe(batched, circuit, probe) == _observe(single, circuit, probe)


@needs_cc
@settings(max_examples=40, deadline=None)
@given(
    st.lists(_matrices(_NARROW_PORTS), min_size=1, max_size=3),
    st.integers(0, 255),
    st.sampled_from([None, 2, 3]),
    st.sampled_from([None, "cnt", "a63"]),
)
def test_narrow_matrix_matches_poke_and_step(matrices, held, width, probe):
    """Several matrices in a row: later ones may start already stopped,
    and a repeated held value reuses the cached packing."""
    _assert_parity(_NARROW, matrices, {"held": held}, width, probe)


@needs_cc
@settings(max_examples=30, deadline=None)
@given(
    st.lists(_matrices(_WIDE_PORTS), min_size=1, max_size=3),
    st.sampled_from([None, 1, 4]),
    st.sampled_from([None, "acc"]),
)
def test_wide_matrix_matches_poke_and_step(matrices, width, probe):
    _assert_parity(_WIDE, matrices, {}, width, probe)


@needs_cc
class TestNativeEntryPoint:
    def test_stop_mid_matrix_ends_at_last_row(self):
        sim = CBackend().compile(_NARROW)
        rows = [(0, 1, 0, 0, 0, 0)] * 3 + [(0, 0, 7, 0, 0, 1)] + [(0, 0, 9, 0, 5, 0)] * 4
        result = run_inputs(sim, InputMatrix(list(_NARROW_PORTS), rows))
        assert result == StepResult(4, True, "halted", 3)
        assert sim.cycle == 4
        assert (sim.peek("a63"), sim.peek("s8"), sim.peek("halt")) == (9, 5, 0)
        # an already-stopped simulation steps nothing, and still ends
        # at the new matrix's last row
        again = run_inputs(sim, InputMatrix(["a63"], [(1,), (2,)]))
        assert again == StepResult(0, True, "halted", 3)
        assert sim.peek("a63") == 2 and sim.cycle == 4

    def test_held_ports_are_read_at_call_time(self):
        matrix = InputMatrix(["a1"], [(0,)] * 3)
        sim = CBackend().compile(_NARROW)
        run_inputs(sim, matrix)
        sim.poke("held", 0x5A)
        run_inputs(sim, matrix)
        assert sim.cover_counts()["held_magic"] == 3
        assert len(matrix.packed) == 2  # one packing per held value
        fresh = CBackend().compile(_NARROW)
        run_inputs(fresh, matrix)
        assert len(matrix.packed) == 2  # same layout and held value: reused

    def test_unknown_column_raises_before_stepping(self):
        sim = CBackend().compile(_NARROW)
        for column in ("nope", "out"):
            with pytest.raises(KeyError):
                run_inputs(sim, InputMatrix(["a1", column], [(1, 0)]))
        assert sim.cycle == 0

    def test_one_native_call_per_matrix(self, monkeypatch):
        sim = CBackend().compile(_NARROW)
        calls = []
        native = sim._clib.step
        monkeypatch.setattr(
            sim._clib, "step", lambda *a: calls.append(a) or native(*a)
        )
        replay_rows = [(0, i & 1, i, i, i, 0) for i in range(50)]
        result = run_inputs(sim, InputMatrix(list(_NARROW_PORTS), replay_rows))
        assert result == StepResult(50) and len(calls) == 1

    def test_emitted_step_has_one_cycle_loop(self):
        source = generate_c_source(build_model(_NARROW))
        step = source[source.index("uint64_t repro_step"):]
        step = step[: step.index("\n}\n")]
        assert step.count("for (") == 1
        assert f"return {C_ABI_VERSION}u;" in source


# -- the §5.1 designs and the fuzz harness -------------------------------------------

#: every scalar backend of the registry (swarm is the lane-batched one)
SCALAR_BACKENDS = [name for name in BACKENDS if name != "swarm"]


@pytest.mark.parametrize("design", list(BENCH_DESIGNS))
def test_bench_design_replays_agree_on_every_scalar_backend(design):
    factory = BENCH_DESIGNS[design][0]
    state, _db = instrument(
        elaborate(factory()), metrics=["line", "toggle"], flatten=True
    )
    replay = recorded_replay(design)
    reference = TreadleBackend().compile_state(state)
    want = poke_and_step(reference, replay.matrix)
    for name in SCALAR_BACKENDS:
        sim = BACKENDS[name]().compile_state(state)
        assert replay.run(sim) == want, name
        assert sim.cover_counts() == reference.cover_counts(), name


class _HiddenBatch:
    """A simulation proxy without ``run_inputs``: forces the generic path."""

    def __init__(self, sim):
        self._sim = sim

    def fork(self):
        return _HiddenBatch(self._sim.fork())

    def __getattr__(self, name):
        if name == "run_inputs":
            raise AttributeError(name)
        return getattr(self._sim, name)


class _GenericOnly:
    name = "c"

    def __init__(self, backend):
        self._backend = backend

    def compile_state(self, state, counter_width=None):
        return _HiddenBatch(self._backend.compile_state(state, counter_width))


class _Stopper(Module):
    """Stops after five enabled cycles, or at once when ``early`` rises
    before the count starts."""

    def build(self, m):
        en = m.input("en")
        early = m.input("early")
        data = m.input("data", 7)
        out = m.output("count", 4)
        cnt = m.reg("cnt", 4, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        out <<= cnt
        m.cover(cnt == 3, "at_three")
        m.cover(data == 0x55, "magic")
        m.stop(cnt == 5, 3, "enough")
        m.stop(early & (cnt == 0), 4, "early")


class _StopsOnResetEdge(Module):
    """Halts on the very first edge: the reset cycle of every execution."""

    def build(self, m):
        a = m.input("a", 3)
        seen = m.reg("seen", 1, init=0)
        seen <<= 1
        m.cover(a == 5, "five")
        m.stop(seen == 0, 1, "first_edge")


def _fuzz_inputs():
    rng = random.Random(7)
    return [rng.randbytes(rng.randint(0, 20)) for _ in range(40)]


def _run_fuzz(backend, module):
    state, _db = instrument(elaborate(module), metrics=["line"])
    harness = FuzzHarness(state, backend=backend, max_cycles=12)
    counts = [harness.execute(data) for data in _fuzz_inputs()]
    return counts, harness.cycles_executed, harness.executions


@needs_cc
@pytest.mark.parametrize("module", [_Stopper(), _StopsOnResetEdge()])
def test_fuzz_execute_agrees_on_batched_and_generic_paths(module):
    native = _run_fuzz(CBackend(), module)
    generic = _run_fuzz(_GenericOnly(CBackend()), module)
    interpreted = _run_fuzz(TreadleBackend(jit=False), module)
    assert native == generic == interpreted
    assert native[2] == len(_fuzz_inputs())
    if isinstance(module, _StopsOnResetEdge):
        # each execution spends exactly the row that found the stop
        assert native[1] == len(_fuzz_inputs())


# -- degraded paths ------------------------------------------------------------------


def _serv_state():
    state, _db = instrument(elaborate(BENCH_DESIGNS["serv-chisel"][0]()), metrics=["line"])
    return state


def _replay_and_fuzz(backend):
    state = _serv_state()
    sim = backend.compile_state(state)
    recorded_replay("serv-chisel").run(sim)
    harness = FuzzHarness(state, backend=backend, max_cycles=16)
    fuzz = [harness.execute(data) for data in _fuzz_inputs()[:10]]
    return sim, sim.cover_counts(), fuzz, harness.cycles_executed


@needs_cc
def test_no_compiler_fallback_replays_and_fuzzes_identically(monkeypatch):
    native_sim, *native = _replay_and_fuzz(CBackend())
    assert isinstance(native_sim, CSimulation)
    monkeypatch.setattr(shutil, "which", lambda name, *a, **kw: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fallback_sim, *fallback = _replay_and_fuzz(CBackend())
    assert isinstance(fallback_sim, TreadleSimulation)
    assert fallback == native


@needs_cc
def test_stale_abi_v1_artifact_is_rebuilt_not_loaded(tmp_path):
    """A cache slot holding an intact artifact of the previous ABI (same
    key, valid sidecar) must fail the load-time handshake and be rebuilt.
    The slot lives in a directory this process never loaded from, as on
    another machine sharing the cache."""
    replay = recorded_replay("serv-chisel")
    state = _serv_state()
    want = CBackend().compile_state(state)
    replay.run(want)

    seeded = tmp_path / "seed"
    CBackend(cache=ModelCache(seeded)).compile_state(state)
    (so_path,) = seeded.glob("*.so")
    shared = tmp_path / "shared"
    shared.mkdir()
    for entry in seeded.glob("*.model.pkl"):
        shutil.copy(entry, shared / entry.name)
    current = generate_c_source(build_model(state))
    stale = current.replace(
        f"repro_abi_version(void) {{ return {C_ABI_VERSION}u; }}",
        "repro_abi_version(void) { return 1u; }",
    )
    assert stale != current
    stale_path = shared / so_path.name
    build_shared_object(stale, find_compiler(), stale_path)
    assert artifact_ok(stale_path)  # intact bytes: only the handshake can tell
    stale_bytes = stale_path.read_bytes()

    sim = CBackend(cache=ModelCache(shared)).compile_state(state)
    assert isinstance(sim, CSimulation)
    assert stale_path.read_bytes() != stale_bytes  # rebuilt in place
    assert sim._clib._lib.repro_abi_version() == C_ABI_VERSION
    assert replay.run(sim) == StepResult(replay.cycles)
    assert sim.cover_counts() == want.cover_counts()


# -- observability -------------------------------------------------------------------


@needs_cc
def test_replayed_cycles_are_credited_to_the_c_meter():
    state = _serv_state()
    replay = recorded_replay("serv-chisel")
    sim = CBackend().compile_state(state)
    obs.reset()
    obs.enable()
    try:
        replay.run(sim)
        sim._meter.flush()
        total = obs.metrics.get("repro_backend_cycles_total")
        assert total.value(backend="c") == replay.cycles
        rate = obs.metrics.get("repro_backend_cycles_per_second")
        assert rate.value(backend="c") > 0
    finally:
        obs.disable()
        obs.reset()
