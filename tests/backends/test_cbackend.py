"""The native C backend must be indistinguishable from the interpreter.

Same contract the treadle JIT is held to (``test_treadle_jit.py``): the
tree-walking interpreter is the executable-semantics reference and the
cc-compiled artifact is an optimization that may never change observable
behaviour — outputs, cover counts, stop behaviour, value probes, and the
wide/signed arithmetic edge cases where C's fixed-width integers (and
their undefined behaviours) diverge most easily from Python's
arbitrary-precision semantics.

Also pins the operational contract: content-addressed ``.so`` reuse,
compiler-identity cache invalidation, truncated-artifact recovery, and
the graceful no-compiler fallback to the JIT tier.
"""

import shutil
import warnings

import pytest
from hypothesis import given, settings

from repro.backends import ModelCache, TreadleBackend
from repro.backends.cbackend import (
    CBackend,
    CSimulation,
    artifact_ok,
    compiler_id,
    find_compiler,
    generate_c_source,
    word_width,
)
from repro.backends.model import build_model
from repro.backends.pysim import PySimulation
from repro.backends.treadle import TreadleSimulation
from repro.hcl import Module, elaborate
from repro.passes import lower
from repro.passes.base import CompileState
from repro.runtime.telemetry import obs

from ..helpers import random_circuits, random_stimulus, run_with_stimulus

HAVE_CC = find_compiler() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


class _Counter(Module):
    def build(self, m):
        en = m.input("en")
        out = m.output("count", 8)
        cnt = m.reg("cnt", 8, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        out <<= cnt
        m.cover(cnt == 3, "at_three")
        m.stop(cnt == 20, 7, "too_far")


class _WideSigned(Module):
    """Every C-hostile operation in one design: 128-bit intermediates,
    signed division/remainder (including the INT_MIN / -1 shape), and
    signed dynamic shifts whose counts can exceed the word width."""

    def build(self, m):
        a = m.input("a", 64)
        b = m.input("b", 64)
        mul_lo = m.output("mul_lo", 64)
        sdiv = m.output("sdiv", 64)
        srem = m.output("srem", 64)
        sshr = m.output("sshr", 64)
        mul_lo <<= a * b  # 128-bit product, truncated
        sa, sb = a.as_sint(), b.as_sint()
        sdiv <<= (sa // sb).as_uint()[63:0]
        srem <<= (sa % sb).as_uint()[63:0]
        sshr <<= (sa >> b[6:0]).as_uint()[63:0]


def _pair(circuit_or_state, compiled=False):
    if compiled:
        c = CBackend().compile_state(circuit_or_state)
        ref = TreadleBackend(jit=False).compile_state(circuit_or_state)
    else:
        c = CBackend().compile(circuit_or_state)
        ref = TreadleBackend(jit=False).compile(circuit_or_state)
    assert isinstance(ref, TreadleSimulation)
    return c, ref


@needs_cc
@settings(max_examples=25, deadline=None)
@given(random_circuits())
def test_c_matches_interpreter_on_random_circuits(circuit):
    stim = random_stimulus(97, 50)
    state = lower(circuit, flatten=True)
    # Random circuits can exceed the 128-bit emitter limit; the backend
    # then degrades to the JIT tier, which must *also* match exactly.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sim, ref = _pair(state, compiled=True)
    assert run_with_stimulus(sim, stim) == run_with_stimulus(ref, stim)
    assert sim.cover_counts() == ref.cover_counts()


@needs_cc
@settings(max_examples=10, deadline=None)
@given(random_circuits(n_nodes=4, n_regs=1))
def test_c_batched_equals_single_stepping(circuit):
    state = lower(circuit, flatten=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batched, single = _pair(state, compiled=True)
    for sim in (batched, single):
        sim.poke("reset", 1)
        sim.step()
        sim.poke("reset", 0)
        sim.poke("in_a", 0xA5)
        sim.poke("in_b", 0x5)
        sim.poke("in_c", 1)
    batched.step(48)
    for _ in range(48):
        single.step(1)
    assert batched.peek("out") == single.peek("out")
    assert batched.cover_counts() == single.cover_counts()
    assert batched.cycle == single.cycle


@needs_cc
class TestWideAndSigned:
    """Deterministically pin the 128-bit word path (hypothesis circuits
    mostly stay narrow, and >128-bit ones fall back entirely)."""

    CASES = [
        (0, 0),  # division and remainder by zero
        (5, 0),
        (0, 5),
        (2**64 - 1, 2**64 - 1),  # -1 / -1 signed
        (2**63, 2**64 - 1),  # INT_MIN / -1: UB in C if computed naively
        (2**63, 1),
        (1, 2**63),
        (2**63 - 1, 2**63),
        (0xDEADBEEFCAFEBABE, 0x123456789ABCDEF0),
        (2**63, 2**63),
    ]

    def _sims(self):
        circuit = elaborate(_WideSigned())
        assert word_width(build_model(circuit)) == 128
        sim = CBackend().compile(circuit)
        assert isinstance(sim, CSimulation)  # must not have fallen back
        return sim, TreadleBackend(jit=False).compile(circuit)

    def test_wide_signed_edge_cases(self):
        sim, ref = self._sims()
        for a, b in self.CASES:
            for s in (sim, ref):
                s.poke("a", a)
                s.poke("b", b)
            for port in ("mul_lo", "sdiv", "srem", "sshr"):
                assert sim.peek(port) == ref.peek(port), (port, a, b)

    def test_wide_signed_random_sweep(self):
        import random

        sim, ref = self._sims()
        rng = random.Random(1337)
        for _ in range(300):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            for s in (sim, ref):
                s.poke("a", a)
                s.poke("b", b)
            for port in ("mul_lo", "sdiv", "srem", "sshr"):
                assert sim.peek(port) == ref.peek(port), (port, a, b)


@needs_cc
class TestStops:
    def test_stop_parity_batched(self):
        sim, ref = _pair(elaborate(_Counter()))
        for s in (sim, ref):
            s.poke("reset", 1)
            s.step()
            s.poke("reset", 0)
            s.poke("en", 1)
        sim_result = sim.step(400)
        ref_result = ref.step(400)
        assert sim_result == ref_result
        assert sim_result.stopped and sim_result.stop_name == "too_far"
        assert sim_result.exit_code == 7
        # halted sims refuse further cycles identically
        assert sim.step(5) == ref.step(5)
        assert sim.stopped and ref.stopped

    def test_stop_parity_with_probes(self):
        # value probes force the per-cycle path; stops must still fire
        sim, ref = _pair(elaborate(_Counter()))
        for s in (sim, ref):
            s.watch_values("cnt")
            s.poke("reset", 1)
            s.step()
            s.poke("reset", 0)
            s.poke("en", 1)
        assert sim.step(400) == ref.step(400)
        assert sim.value_histogram("cnt") == ref.value_histogram("cnt")

    def test_zero_cycle_step(self):
        sim, ref = _pair(elaborate(_Counter()))
        assert sim.step(0) == ref.step(0)


@needs_cc
class TestProbes:
    def test_value_histogram_parity(self):
        sim, ref = _pair(elaborate(_Counter()))
        for s in (sim, ref):
            s.watch_values("cnt")
            s.poke("reset", 1)
            s.step()
            s.poke("reset", 0)
            s.poke("en", 1)
            s.step(6)
        assert sim.value_histogram("cnt") == ref.value_histogram("cnt")
        assert sim.peek_internal("cnt") == ref.peek_internal("cnt")

    def test_unknown_names_raise_keyerror(self):
        sim = CBackend().compile(elaborate(_Counter()))
        with pytest.raises(KeyError):
            sim.poke("count", 1)  # outputs are not pokeable
        with pytest.raises(KeyError):
            sim.peek("cnt")  # internals need peek_internal
        with pytest.raises(KeyError):
            sim.peek_internal("nonexistent")
        with pytest.raises(KeyError):
            sim.watch_values("nonexistent")


@needs_cc
class TestArtifactSharing:
    def test_cache_shares_one_library_across_sims(self):
        cache = ModelCache(directory=None)
        backend = CBackend(cache=cache)
        circuit = elaborate(_Counter())
        first = backend.compile(circuit)
        second = backend.compile(circuit)
        assert first._clib is second._clib  # dlopen'd exactly once
        assert cache.misses == 1 and cache.hits == 1

    def test_fork_shares_the_library(self):
        sim = CBackend().compile(elaborate(_Counter()))
        clone = sim.fork()
        assert clone._clib is sim._clib
        clone.poke("reset", 1)
        clone.step()
        clone.poke("reset", 0)
        clone.poke("en", 1)
        clone.step(3)
        assert clone.peek("count") == 3
        assert sim.cycle == 0  # parent untouched

    def test_so_artifact_survives_to_a_second_process(self, tmp_path):
        """A fresh backend over the same cache dir reuses the .so."""
        circuit = elaborate(_Counter())
        CBackend(cache=ModelCache(tmp_path)).compile(circuit)
        artifacts = list(tmp_path.glob("*.so"))
        assert len(artifacts) == 1
        mtime = artifacts[0].stat().st_mtime_ns
        # new backend + new cache instance = a second process's view
        sim = CBackend(cache=ModelCache(tmp_path)).compile(circuit)
        sim.poke("en", 1)
        sim.step(3)
        assert sim.peek("count") == 3
        assert artifacts[0].stat().st_mtime_ns == mtime  # not rebuilt


@needs_cc
class TestCompilerIdentityInKey:
    def test_compiler_version_change_invalidates_entries(self, tmp_path, monkeypatch):
        import repro.backends.cbackend as cbackend

        circuit = elaborate(_Counter())
        monkeypatch.setattr(cbackend, "compiler_id", lambda cc: "cc 1.0")
        cache = ModelCache(tmp_path)
        CBackend(cache=cache).compile(circuit)
        assert (cache.misses, cache.hits) == (1, 0)
        # same toolchain: disk entry + .so are reused by a fresh process
        cache_same = ModelCache(tmp_path)
        CBackend(cache=cache_same).compile(circuit)
        assert (cache_same.misses, cache_same.hits) == (0, 1)
        # upgraded toolchain: the old entry must not be reused
        monkeypatch.setattr(cbackend, "compiler_id", lambda cc: "cc 2.0")
        cache_new = ModelCache(tmp_path)
        CBackend(cache=cache_new).compile(circuit)
        assert cache_new.misses == 1

    def test_compiler_id_reads_version_banner(self):
        cc = find_compiler()
        banner = compiler_id(cc)
        assert banner and "\n" not in banner


@needs_cc
class TestCorruption:
    def test_truncated_so_is_rebuilt_not_dlopened(self, tmp_path):
        """A torn .so must cost a recompile, never a SIGBUS.

        dlopen of a truncated ELF can kill the process outright, so the
        loader verifies the sha256 sidecar first.  Simulates a writer
        that crashed mid-write on another machine: same cache entry and
        sidecar, half the artifact bytes.
        """
        circuit = elaborate(_Counter())
        CBackend(cache=ModelCache(tmp_path)).compile(circuit)
        (so_path,) = tmp_path.glob("*.so")
        intact = so_path.read_bytes()

        other = tmp_path / "other-machine"
        other.mkdir()
        for entry in tmp_path.glob("*.model.pkl"):
            shutil.copy(entry, other / entry.name)
        shutil.copy(
            so_path.with_name(so_path.name + ".sha256"),
            other / (so_path.name + ".sha256"),
        )
        (other / so_path.name).write_bytes(intact[: len(intact) // 2])
        assert not artifact_ok(other / so_path.name)

        sim = CBackend(cache=ModelCache(other)).compile(circuit)
        sim.poke("en", 1)
        sim.step(4)
        assert sim.peek("count") == 4
        # the torn artifact was replaced by a fresh, verifiable build
        assert artifact_ok(other / so_path.name)

    def test_missing_sidecar_triggers_rebuild(self, tmp_path):
        circuit = elaborate(_Counter())
        CBackend(cache=ModelCache(tmp_path)).compile(circuit)
        (so_path,) = tmp_path.glob("*.so")
        so_path.with_name(so_path.name + ".sha256").unlink()
        assert not artifact_ok(so_path)
        sim = CBackend(cache=ModelCache(tmp_path)).compile(circuit)
        sim.poke("en", 1)
        sim.step(2)
        assert sim.peek("count") == 2


class TestFallback:
    def test_no_compiler_degrades_to_jit_with_one_warning(self, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name, *a, **kw: None)
        circuit = elaborate(_Counter())
        backend = CBackend()
        obs.enable()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = backend.compile(circuit)
                second = backend.compile(circuit)
            fallbacks = obs.metrics.get("repro_backend_fallback_total")
            assert fallbacks.value(backend="c", reason="no-compiler") == 2
        finally:
            obs.disable()
            obs.reset()
        # degraded but fully functional: the JIT tier takes over
        assert isinstance(first, PySimulation)
        assert isinstance(second, PySimulation)
        # exactly one warning per backend instance, not one per compile
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "no-compiler" in str(relevant[0].message)
        first.poke("en", 1)
        first.step(3)
        assert first.peek("count") == 3

    @needs_cc
    def test_unsupported_width_degrades_to_jit(self):
        class Huge(Module):
            def build(self, m):
                a = m.input("a", 100)
                b = m.input("b", 100)
                o = m.output("o", 100)
                o <<= a * b  # 200-bit intermediate

        circuit = elaborate(Huge())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim = CBackend().compile(circuit)
        assert isinstance(sim, PySimulation)
        assert any("unsupported-width" in str(w.message) for w in caught)
        ref = TreadleBackend(jit=False).compile(circuit)
        for s in (sim, ref):
            s.poke("a", 2**99 + 12345)
            s.poke("b", 3)
        assert sim.peek("o") == ref.peek("o")


class _Readout(Module):
    def build(self, m):
        en = m.input("en")
        cnt = m.reg("cnt", 8, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        m.cover(en, "on")
        m.cover(cnt[0] == 1, "odd")
        m.cover(cnt == 200, "never")


@needs_cc
class TestCoverReadout:
    """``cover_counts`` equals the interpreter's on both readout paths:
    the one-step readout (unique names, unbounded counters) and the
    merge-then-saturate fallback."""

    @staticmethod
    def _counts(state, counter_width=None):
        c = CBackend().compile_state(state, counter_width=counter_width)
        ref = TreadleBackend(jit=False).compile_state(
            state, counter_width=counter_width)
        for sim in (c, ref):
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("en", 1)
            sim.step(40)
        return c, c.cover_counts(), ref.cover_counts()

    def test_unique_names_unbounded_counters(self):
        sim, counts, reference = self._counts(
            lower(elaborate(_Readout()), flatten=True))
        assert sim._clib.unique_covers
        assert counts == reference == {"on": 40, "odd": 20, "never": 0}

    def test_duplicate_cover_names_merge(self):
        flat = lower(elaborate(_Readout()), flatten=True)
        state = CompileState(
            flat.circuit, {"on": "twice", "odd": "twice"}, flat.metadata)
        sim, counts, reference = self._counts(state)
        assert not sim._clib.unique_covers
        assert counts == reference == {"twice": 60, "never": 0}

    def test_counter_width_saturates(self):
        _, counts, reference = self._counts(
            lower(elaborate(_Readout()), flatten=True), counter_width=4)
        assert counts == reference == {"on": 15, "odd": 15, "never": 0}


@needs_cc
class TestGeneratedSource:
    def test_source_is_c99_with_stable_abi_symbols(self):
        model = build_model(elaborate(_Counter()))
        source = generate_c_source(model)
        for symbol in (
            "repro_create", "repro_destroy", "repro_reset", "repro_settle",
            "repro_step", "repro_halted", "repro_set_halted", "repro_poke",
            "repro_peek", "repro_read_covers", "repro_abi_version",
        ):
            assert symbol in source
        assert "__uint128_t" not in source  # 8-bit counter stays on u64

    def test_word_width_escalates_to_128(self):
        model = build_model(elaborate(_WideSigned()))
        assert word_width(model) == 128
        assert "__uint128_t" in generate_c_source(model)
