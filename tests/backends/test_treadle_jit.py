"""The treadle JIT fast path must be indistinguishable from the interpreter.

The tree-walking interpreter (``TreadleBackend(jit=False)``) is the
executable-semantics reference; the generated closure path is an
optimization and may never change observable behaviour.  These property
tests pin outputs, cover counts, stop behaviour, and value probes.
"""

from hypothesis import given, settings

from repro.backends import ModelCache, PySimulation, TreadleBackend, TreadleSimulation
from repro.hcl import Module, elaborate
from repro.passes import lower

from ..helpers import random_circuits, random_stimulus, run_with_stimulus


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


def _pair(circuit_or_state, compiled=False):
    if compiled:
        jit = TreadleBackend(jit=True).compile_state(circuit_or_state)
        ref = TreadleBackend(jit=False).compile_state(circuit_or_state)
    else:
        jit = TreadleBackend(jit=True).compile(circuit_or_state)
        ref = TreadleBackend(jit=False).compile(circuit_or_state)
    assert isinstance(jit, PySimulation)
    assert isinstance(ref, TreadleSimulation)
    return jit, ref


@settings(max_examples=25, deadline=None)
@given(random_circuits())
def test_jit_matches_interpreter_on_random_circuits(circuit):
    stim = random_stimulus(97, 50)
    state = lower(circuit, flatten=True)
    jit, ref = _pair(state, compiled=True)
    assert run_with_stimulus(jit, stim) == run_with_stimulus(ref, stim)
    assert jit.cover_counts() == ref.cover_counts()


@settings(max_examples=10, deadline=None)
@given(random_circuits(n_nodes=4, n_regs=1))
def test_jit_batched_equals_single_stepping(circuit):
    state = lower(circuit, flatten=True)
    batched, single = _pair(state, compiled=True)
    stim = random_stimulus(5, 0)
    # identical pokes, different step granularity
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


class TestStops:
    def test_stop_parity_batched(self):
        jit, ref = _pair(elaborate(_Counter()))
        for sim in (jit, ref):
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("en", 1)
        jit_result = jit.step(400)
        ref_result = ref.step(400)
        assert jit_result == ref_result
        assert jit_result.stopped and jit_result.stop_name == "too_far"
        assert jit_result.exit_code == 7
        # halted sims refuse further cycles identically
        assert jit.step(5) == ref.step(5)

    def test_stop_parity_with_probes(self):
        # value probes force the per-cycle JIT path; stops must still fire
        jit, ref = _pair(elaborate(_Counter()))
        for sim in (jit, ref):
            sim.watch_values("cnt")
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("en", 1)
        assert jit.step(400) == ref.step(400)
        assert jit.value_histogram("cnt") == ref.value_histogram("cnt")


class TestProbes:
    def test_value_histogram_parity(self):
        jit, ref = _pair(elaborate(_Counter()))
        for sim in (jit, ref):
            sim.watch_values("cnt")
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("en", 1)
            sim.step(6)
        assert jit.value_histogram("cnt") == ref.value_histogram("cnt")
        assert jit.peek_internal("cnt") == ref.peek_internal("cnt")


class TestPlanSharing:
    def test_cache_shares_one_plan_across_sims(self):
        cache = ModelCache(directory=None)
        backend = TreadleBackend(cache=cache)
        circuit = elaborate(_Counter())
        first = backend.compile(circuit)
        second = backend.compile(circuit)
        assert first._cls is second._cls  # compiled exactly once
        assert cache.misses == 1 and cache.hits == 1

    def test_fork_shares_the_plan(self):
        sim = TreadleBackend().compile(elaborate(_Counter()))
        clone = sim.fork()
        assert clone._cls is sim._cls
        clone.poke("reset", 1)
        clone.step()
        clone.poke("reset", 0)
        clone.poke("en", 1)
        clone.step(3)
        assert clone.peek("count") == 3
        assert sim.cycle == 0  # parent untouched
