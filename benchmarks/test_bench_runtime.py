"""Runtime observability benchmark: the BENCH_runtime.json datapoint.

Measures what the ROADMAP's perf trajectory needs before any optimization
PR can claim a win: sustained cycles/second per backend on a real design,
wall time for each compile phase (elaborate / instrument / backend build),
the compile-once-run-many model cache (cold vs warm), and the cost of the
telemetry layer itself — both the enabled overhead and the disabled-mode
jitter (the acceptance bar is that instrumentation with telemetry *off*
is unmeasurable against run-to-run noise).

Six hard perf gates ride along (bench-smoke CI fails if they regress):

* the treadle JIT fast path must sustain >= 10x the tree-walking
  interpreter's cycles/second,
* the native C backend must sustain >= 3x the treadle JIT on the same
  replay (recorded as ``speedup_vs_jit``),
* replay on the native C backend, whose stimulus loop runs inside one
  native call, must reach >= 50% of the same simulation's one-call
  free-running ``step(n)`` rate (recorded as ``replay_vs_free_run``),
* the bit-parallel swarm backend must sustain >= 8x the treadle JIT in
  *aggregate* lanes x cycles/second on the same replay broadcast across
  all lanes (recorded as ``aggregate_lane_cycles_per_second``),
* a warm in-memory model-cache hit (what forked shards see after the
  parent's compile-before-fork) must be >= 5x faster than a cold compile,
  and
* minimal-basis instrumentation (DESIGN.md §15) must elide >= 25% of
  the line-metric cover counters, with the reconstructed counts checked
  bit-identical against full instrumentation inline (the cycles/second
  delta of counting fewer covers is recorded as ``speedup_vs_full``).

Uses the suite's smallest design (serv-chisel's SerialGcd analog, the
bit-serial core) so the bench-smoke CI job stays fast, and the recorded
VCD replay methodology from §5.1 so stimulus generation is excluded.
"""

from __future__ import annotations

import time

from repro.backends import (
    CBackend,
    EssentBackend,
    ModelCache,
    SwarmBackend,
    TreadleBackend,
    VerilatorBackend,
)
from repro.coverage import InstanceTree, all_cover_names, instrument
from repro.hcl import elaborate
from repro.runtime.telemetry import obs

from .conftest import BENCH_DESIGNS, record_runtime, recorded_replay

SMALLEST = "serv-chisel"

#: "treadle" is pinned to the tree-walking interpreter (the executable
#: semantics reference, CLI ``--no-jit``); "treadle-jit" is the default
#: compiled-closure fast path the 10x gate compares against it.
BACKENDS = {
    "treadle": lambda: TreadleBackend(jit=False),
    "treadle-jit": lambda: TreadleBackend(),
    "verilator": lambda: VerilatorBackend(),
    "essent": lambda: EssentBackend(),
    "c": lambda: CBackend(),
}

#: the bench-smoke perf gates (see module docstring)
JIT_MIN_SPEEDUP = 10.0
WARM_CACHE_MIN_SPEEDUP = 5.0
C_MIN_SPEEDUP_VS_JIT = 3.0
SWARM_MIN_SPEEDUP_VS_JIT = 8.0
C_MIN_REPLAY_VS_FREE_RUN = 0.5
MIN_INSTRUMENT_MIN_REDUCTION_PCT = 25.0

#: swarm pack width for the aggregate-throughput gate — wide enough to
#: amortize Python dispatch over the packed ops, well under MAX_LANES
SWARM_LANES = 512

#: timed repetitions per measurement (min is reported)
REPS = 3

#: repetitions for the replay-vs-free-run ratio: a native replay of the
#: smallest design takes about a millisecond, so take the min of more
FREE_RUN_REPS = 10


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _replay_seconds(sim_factory, replay, reps: int = REPS) -> list[float]:
    """Wall time of ``reps`` full replays, each on a fresh simulation."""
    seconds = []
    for _ in range(reps):
        sim = sim_factory()
        _, elapsed = _timed(lambda: replay.run(sim))
        seconds.append(elapsed)
    return seconds


def _model_cache_section(state, tmp_path) -> dict:
    """Cold / warm-memory / warm-disk compile times, min over REPS.

    Each rep uses a fresh cache directory so "cold" is honestly cold;
    warm-memory is the in-process LRU hit forked shards inherit, and
    warm-disk is a second process's pickle-load path (which still pays
    the codegen exec, so it is recorded but not gated).
    """
    colds, warm_memory, warm_disk = [], [], []
    for rep in range(REPS):
        cache = ModelCache(tmp_path / f"cache-{rep}")
        backend = TreadleBackend(cache=cache)
        _, cold_s = _timed(lambda: backend.compile_state(state))
        _, mem_s = _timed(lambda: backend.compile_state(state))
        cache.clear_memory()
        _, disk_s = _timed(lambda: backend.compile_state(state))
        assert (cache.misses, cache.hits) == (1, 2)
        colds.append(cold_s)
        warm_memory.append(mem_s)
        warm_disk.append(disk_s)
    cold, mem, disk = min(colds), min(warm_memory), min(warm_disk)
    return {
        "cold_compile_s": cold,
        "warm_memory_compile_s": mem,
        "warm_disk_compile_s": disk,
        "warm_memory_speedup": cold / mem if mem > 0 else float("inf"),
        "warm_disk_speedup": cold / disk if disk > 0 else float("inf"),
    }


def test_bench_runtime_smallest_design(tmp_path):
    factory, _driver, _cycles, _widths = BENCH_DESIGNS[SMALLEST]
    replay = recorded_replay(SMALLEST)

    circuit, elaborate_s = _timed(lambda: elaborate(factory()))
    (state, _db), instrument_s = _timed(
        lambda: instrument(circuit, metrics=["line", "toggle"])
    )

    phases = {"elaborate_s": elaborate_s, "instrument_s": instrument_s}
    backends = {}
    templates = {}
    for name, make_backend in BACKENDS.items():
        backend = make_backend()
        compiled, compile_s = _timed(lambda: backend.compile_state(state))
        templates[name] = compiled
        runs = _replay_seconds(compiled.fork, replay)
        best = min(runs)
        backends[name] = {
            "compile_s": compile_s,
            "run_s": best,
            "cycles": replay.cycles,
            "cycles_per_second": replay.cycles / best if best > 0 else 0.0,
        }
        assert backends[name]["cycles_per_second"] > 0

    # Gate: the JIT fast path must beat the interpreter by >= 10x.
    jit_speedup = (
        backends["treadle-jit"]["cycles_per_second"]
        / backends["treadle"]["cycles_per_second"]
    )
    backends["treadle-jit"]["speedup_vs_interpreter"] = jit_speedup
    assert jit_speedup >= JIT_MIN_SPEEDUP, (
        f"treadle-jit only {jit_speedup:.1f}x the interpreter "
        f"(gate: >= {JIT_MIN_SPEEDUP}x)"
    )

    # Gate: native code must beat the JIT by >= 3x on the same replay.
    c_speedup = (
        backends["c"]["cycles_per_second"]
        / backends["treadle-jit"]["cycles_per_second"]
    )
    backends["c"]["speedup_vs_jit"] = c_speedup
    assert c_speedup >= C_MIN_SPEEDUP_VS_JIT, (
        f"c backend only {c_speedup:.1f}x the treadle JIT "
        f"(gate: >= {C_MIN_SPEEDUP_VS_JIT}x)"
    )

    # Gate: with the stimulus loop inside the native call, replay on c
    # must reach >= 50% of the same simulation's free-running rate: one
    # step(n) with reset low and no stimulus, an upper bound.
    c_template = templates["c"]
    replay_best = min(_replay_seconds(c_template.fork, replay, FREE_RUN_REPS))
    free_runs = []
    for _ in range(FREE_RUN_REPS):
        sim = c_template.fork()
        _, elapsed = _timed(lambda: sim.step(replay.cycles))
        free_runs.append(elapsed)
    replay_vs_free_run = min(free_runs) / replay_best
    backends["c"]["free_run_cycles_per_second"] = replay.cycles / min(free_runs)
    backends["c"]["replay_vs_free_run"] = replay_vs_free_run
    assert replay_vs_free_run >= C_MIN_REPLAY_VS_FREE_RUN, (
        f"c replay only {replay_vs_free_run:.0%} of its free-running "
        f"step(n) rate (gate: >= {C_MIN_REPLAY_VS_FREE_RUN:.0%})"
    )

    # Gate: swarm lanes must multiply throughput: with the same replay
    # broadcast to every lane, aggregate lanes x cycles/second must be
    # >= 8x what the scalar JIT sustains.
    swarm_sim, swarm_compile_s = _timed(
        lambda: SwarmBackend(lanes=SWARM_LANES).compile_state(state)
    )
    swarm_best = min(_replay_seconds(swarm_sim.fork, replay))
    lane_cps = SWARM_LANES * replay.cycles / swarm_best
    swarm_speedup = lane_cps / backends["treadle-jit"]["cycles_per_second"]
    backends["swarm"] = {
        "compile_s": swarm_compile_s,
        "run_s": swarm_best,
        "cycles": replay.cycles,
        "lanes": SWARM_LANES,
        "cycles_per_second": replay.cycles / swarm_best,
        "aggregate_lane_cycles_per_second": lane_cps,
        "speedup_vs_jit": swarm_speedup,
    }
    assert swarm_speedup >= SWARM_MIN_SPEEDUP_VS_JIT, (
        f"swarm only {swarm_speedup:.1f}x the treadle JIT in aggregate "
        f"lane-cycles/s at {SWARM_LANES} lanes "
        f"(gate: >= {SWARM_MIN_SPEEDUP_VS_JIT}x)"
    )

    # Gate: a warm cache hit must make recompilation negligible.
    model_cache = _model_cache_section(state, tmp_path)
    assert model_cache["warm_memory_speedup"] >= WARM_CACHE_MIN_SPEEDUP, (
        f"warm cache hit only {model_cache['warm_memory_speedup']:.1f}x "
        f"faster than cold compile (gate: >= {WARM_CACHE_MIN_SPEEDUP}x)"
    )

    # Telemetry cost on the fastest backend: enabled overhead vs the
    # disabled mode's own run-to-run jitter.  Min-of-REPS on both sides;
    # when the enabled minimum lands below the disabled one (pure timing
    # noise) the reported overhead clamps at zero and the signed raw
    # value is kept alongside so the artifact never claims telemetry
    # *speeds runs up*.
    probe = TreadleBackend().compile_state(state)
    was_enabled = obs.enabled
    obs.disable()
    disabled = _replay_seconds(probe.fork, replay)
    obs.enable()
    try:
        enabled = _replay_seconds(probe.fork, replay)
    finally:
        obs.enabled = was_enabled
        obs.reset()
    base = min(disabled)
    raw_overhead = 100.0 * (min(enabled) - base) / base
    telemetry = {
        "disabled_run_s": base,
        "enabled_run_s": min(enabled),
        "disabled_jitter_pct": 100.0 * (max(disabled) - base) / base,
        "enabled_overhead_pct": max(0.0, raw_overhead),
        "enabled_overhead_raw_pct": raw_overhead,
        "reps": REPS,
    }

    # Gate: minimal-basis instrumentation must elide >= 25% of the
    # line-metric counters, and reconstruction must be bit-identical.
    # Uses the line metric alone: toggle covers are per-bit and carry no
    # implication structure, so they are irreducible by construction.
    (full_state, _full_db), _ = _timed(
        lambda: instrument(circuit, metrics=["line"])
    )
    (min_state, min_db), minimize_s = _timed(
        lambda: instrument(circuit, metrics=["line"], minimize=True)
    )
    counters_full = len(all_cover_names(full_state.circuit))
    counters_min = len(all_cover_names(min_state.circuit))
    reduction_pct = 100.0 * (counters_full - counters_min) / counters_full
    assert reduction_pct >= MIN_INSTRUMENT_MIN_REDUCTION_PCT, (
        f"minimal basis elided only {reduction_pct:.1f}% of "
        f"{counters_full} line counters "
        f"(gate: >= {MIN_INSTRUMENT_MIN_REDUCTION_PCT}%)"
    )

    jit_full = TreadleBackend().compile_state(full_state)
    jit_min = TreadleBackend().compile_state(min_state)
    full_best = min(_replay_seconds(jit_full.fork, replay))
    min_best = min(_replay_seconds(jit_min.fork, replay))

    sim_full, sim_min = jit_full.fork(), jit_min.fork()
    replay.run(sim_full)
    replay.run(sim_min)
    reconstructed = min_db.reconstruct_counts(
        sim_min.cover_counts(), InstanceTree(min_state.circuit)
    )
    assert reconstructed == sim_full.cover_counts(), (
        "minimal-basis reconstruction diverged from full instrumentation"
    )

    min_instrument = {
        "counters_full": counters_full,
        "counters_min": counters_min,
        "counter_reduction_pct": reduction_pct,
        "minimize_instrument_s": minimize_s,
        "full_cycles_per_second": replay.cycles / full_best,
        "min_cycles_per_second": replay.cycles / min_best,
        "speedup_vs_full": full_best / min_best if min_best > 0 else 0.0,
    }

    record_runtime(
        SMALLEST,
        {
            "phases": phases,
            "backends": backends,
            "model_cache": model_cache,
            "telemetry": telemetry,
            "min_instrument": min_instrument,
        },
    )

    # Sanity, not a perf assertion: every phase took measurable-but-sane time.
    assert all(v >= 0 for v in phases.values())
    assert telemetry["disabled_run_s"] > 0
    assert telemetry["enabled_overhead_pct"] >= 0.0
