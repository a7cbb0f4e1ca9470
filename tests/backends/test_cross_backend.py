"""The paper's central property: all backends agree on cover counts.

Random circuits are simulated on the interpreting (treadle), compiled
(verilator, c), activity-gated (essent) and scan-chain (firesim) backends.
Outputs must match cycle by cycle and the final cover-count maps must be
identical — the invariant that makes cross-backend merging sound.
"""

import warnings

from hypothesis import given, settings

from repro.backends import (
    CBackend,
    EssentBackend,
    FireSimBackend,
    TreadleBackend,
    VerilatorBackend,
)
from repro.passes import lower

from ..helpers import random_circuits, random_stimulus, run_with_stimulus


@settings(max_examples=20, deadline=None)
@given(random_circuits())
def test_three_software_backends_agree(circuit):
    stim = random_stimulus(23, 40)
    state = lower(circuit, flatten=True)
    with warnings.catch_warnings():
        # without a compiler (or past 128 bits) c degrades to the JIT tier
        warnings.simplefilter("ignore", RuntimeWarning)
        sims = [
            TreadleBackend(jit=False).compile_state(state),
            VerilatorBackend().compile_state(state),
            EssentBackend().compile_state(state),
            CBackend().compile_state(state),
        ]
    outputs = [run_with_stimulus(sim, stim) for sim in sims]
    assert outputs[1:] == [outputs[0]] * 3
    counts = [sim.cover_counts() for sim in sims]
    assert counts[1:] == [counts[0]] * 3


@settings(max_examples=8, deadline=None)
@given(random_circuits(n_nodes=4, n_regs=1))
def test_firesim_scan_chain_matches_software(circuit):
    stim = random_stimulus(5, 25)
    state = lower(circuit, flatten=True)
    reference = TreadleBackend().compile_state(state)
    firesim = FireSimBackend(counter_width=16).compile_state(state)
    for frame in stim:
        for name, value in frame.items():
            reference.poke(name, value)
            firesim.poke(name, value)
        reference.step(1)
        firesim.step(1)
    assert firesim.cover_counts() == reference.cover_counts()
    # scanning is non-destructive (recirculation restores the counters)
    assert firesim.cover_counts() == reference.cover_counts()


@settings(max_examples=10, deadline=None)
@given(random_circuits(n_nodes=4, n_regs=1))
def test_saturating_counters_respect_width(circuit):
    stim = random_stimulus(9, 40)
    state = lower(circuit, flatten=True)
    narrow = VerilatorBackend().compile_state(state, counter_width=2)
    wide = VerilatorBackend().compile_state(state)
    run_with_stimulus(narrow, stim)
    run_with_stimulus(wide, stim)
    wide_counts = wide.cover_counts()
    for name, count in narrow.cover_counts().items():
        assert count == min(wide_counts[name], 3)
