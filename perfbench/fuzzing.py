"""``fuzz``: AFL-style fuzzing with line feedback (the Fig. 11 setup).

Targets the I2C peripheral and serv-chisel.  Each round runs, per
design, one fuzz campaign of ``BUDGET`` executions (inputs of at most
``MAX_CYCLES`` cycles, from a seeded corpus of 32-cycle inputs) on every
scalar backend -- the ``repro fuzz`` default ``verilator`` among them --
and one on ``FuzzHarness`` over 64 swarm lanes.  Executions are short, so
the fixed cost per execution dominates: fork and reset, decoding,
cover readout, feedback filtering and mutation.  Neither other workload
exercises this.

Every round draws a fresh corpus and AFL seed (the same for every leg of
the round), so a run averages over many fuzzing trajectories.

Checks: in every round the scalar legs produce identical covered sets,
queues and coverage curves; a seeded sample of the lane-batched inputs, re-executed
one by one on the scalar ``c`` harness, give identical counts input by
input.
"""

from __future__ import annotations

from time import perf_counter

from repro.fuzz import AflFuzzer, FuzzHarness, metric_filter

from .harness import SCALAR_BACKENDS, SWARM_LANES, geomean, make_backend
from .probe import ProbeBackend, timing
from .stimulus import FUZZ_DESIGNS, design_rng, fuzz_corpus

BUDGET = 120
MAX_CYCLES = 64
LANE_SAMPLE = 8
LEGS = SCALAR_BACKENDS + ("lanes",)


def _backend_of(leg: str) -> str:
    return "swarm" if leg == "lanes" else leg


class _Leg:
    """One fuzzed (design, backend): its harness, and the probed twin the
    traced rounds use."""

    def __init__(self, design: str, leg: str, harness: FuzzHarness) -> None:
        self.design = design
        self.leg = leg
        self.harness = harness
        self.traced = None


class Fuzz:
    name = "fuzz"

    def __init__(self, designs=tuple(FUZZ_DESIGNS), legs=LEGS) -> None:
        self.designs = tuple(designs)
        self.legs = tuple(legs)

    def make_inputs(self, seed: int) -> int:
        """Corpora and AFL seeds are drawn per round, from the workload seed."""
        return seed

    def setup(self, seed, setup):
        setup.seed = seed
        setup.legs = {}
        setup.feedback = {}
        setup.reference = {}
        setup.first_round = {}
        for design in self.designs:
            setup.instrument(design, FUZZ_DESIGNS[design](), ("line",))
            state, db = setup.states[design], setup.dbs[design]
            with setup.segment():
                setup.feedback[design] = metric_filter(db, state, "line")
            for leg in self.legs:
                backend = make_backend(_backend_of(leg), setup.cache)
                with setup.segment(f"compile.{_backend_of(leg)}"):
                    harness = FuzzHarness(state, backend=backend, max_cycles=MAX_CYCLES)
                setup.legs[(design, leg)] = _Leg(design, leg, harness)
        return setup

    def prepare_trace(self, setup, tracer) -> None:
        """Build a probed twin of every harness (model-cache hits).

        The twin's ``decode`` is shadowed by a timed wrapper, so the
        harness's own calls to it are timed too.
        """
        for (design, leg), entry in setup.legs.items():
            backend = make_backend(_backend_of(leg), setup.cache)
            harness = FuzzHarness(
                setup.states[design],
                backend=ProbeBackend(backend, tracer.stats(design, _backend_of(leg))),
                max_cycles=MAX_CYCLES,
            )
            harness.decode = tracer.clock.wrap("fuzz.decode", harness.decode)
            entry.traced = harness

    def run_round(self, setup, ledger, samples, tracer, index) -> None:
        if index == 0 and tracer is None:
            # every harness compiled exactly once; its traced twin and
            # every fork since are model-cache hits
            expected = len(self.designs) * len(self.legs)
            ledger.record(setup.cache.misses == expected,
                          f"fuzz: {setup.cache.misses} model-cache misses, "
                          f"expected {expected}")
        for design in self.designs:
            for leg in self.legs:
                entry = setup.legs[(design, leg)]
                harness = entry.harness if tracer is None else entry.traced
                try:
                    self._run_leg(setup, ledger, samples, tracer, entry, harness,
                                  index)
                except Exception as error:  # a failed operation
                    ledger.record(False, f"fuzz {design}/{leg}: {error!r}",
                                  count=BUDGET)

    def _fuzzer(self, setup, design, harness, tracer, batches, index):
        """Round ``index``'s AFL loop over ``harness``; lane batches land
        in ``batches``."""
        feedback = setup.feedback[design]
        execute, execute_batch = harness.execute, harness.execute_batch
        if tracer is not None:
            clock = tracer.clock
            feedback = clock.wrap("fuzz.feedback", feedback)
            execute = clock.wrap("fuzz.execute", execute)
            execute_batch = clock.wrap("fuzz.execute", execute_batch)

        def recorded_batch(batch):
            counts = execute_batch(batch)
            batches.append((batch, counts))
            return counts

        return AflFuzzer(
            execute,
            feedback=feedback,
            track=feedback,
            seeds=fuzz_corpus(setup.seed, design, index, harness.bytes_per_cycle),
            seed=design_rng(setup.seed, design, f"afl{index}").getrandbits(32),
            execute_batch=recorded_batch if harness.lanes > 1 else None,
        )

    def _run_leg(self, setup, ledger, samples, tracer, entry, harness, index) -> None:
        design, leg = entry.design, entry.leg
        batches: list = []
        fuzzer = self._fuzzer(setup, design, harness, tracer, batches, index)
        cycles_before = harness.cycles_executed
        started = perf_counter()
        with timing(tracer and tracer.clock, "fuzz.run"):
            stats = fuzzer.run(BUDGET, batch=harness.lanes)
        elapsed = perf_counter() - started
        cycles = harness.cycles_executed - cycles_before
        samples.add((design, leg), cycles, elapsed, stats.executions)
        if tracer is not None and leg == "lanes":
            tracer.counts["lane_cycles"] += cycles
        if index == 0:
            # exact for a seed: what compared runs must agree on
            setup.first_round[(design, leg)] = (
                cycles, stats.executions, len(fuzzer.queue), len(stats.covered))
        check_started = perf_counter()
        if leg == "lanes":
            self._check_lanes(setup, ledger, design, batches, stats.executions, index)
        else:
            trajectory = (
                sorted(stats.covered),
                [queued.data for queued in fuzzer.queue],
                list(stats.coverage_curve),
                stats.executions,
            )
            reference = setup.reference.setdefault((design, index), trajectory)
            ledger.record(
                trajectory == reference,
                f"fuzz {design}/{leg}: trajectory differs from the first scalar leg",
                count=stats.executions,
            )
        if tracer is not None:
            tracer.clock.seconds["check"] += perf_counter() - check_started

    def _check_lanes(self, setup, ledger, design, batches, executions, index) -> None:
        """Re-execute a seeded sample of lane inputs on the scalar c harness."""
        pairs = [pair for batch, counts in batches for pair in zip(batch, counts)]
        rng = design_rng(setup.seed, design, f"lane-sample{index}")
        sample = rng.sample(pairs, min(LANE_SAMPLE, len(pairs)))
        scalar = setup.legs[(design, "c")].harness
        mismatches = sum(1 for data, counts in sample if scalar.execute(data) != counts)
        ledger.record(True, count=executions - mismatches)
        ledger.record(mismatches == 0,
                      f"fuzz {design}/lanes: {mismatches} sampled lane inputs "
                      "differ when re-executed scalar",
                      count=mismatches)

    def _first(self, setup, legs) -> list[int]:
        """First-round (cycles, executions, queue, covered), summed over
        the designs and ``legs``."""
        rows = [row for (_d, leg), row in setup.first_round.items() if leg in legs]
        return [sum(column) for column in zip(*rows)] if rows else [0, 0, 0, 0]

    def line_covered(self, setup) -> int:
        return self._first(setup, ("c",))[3]

    def run_layers(self, setup, tracer, events) -> dict[str, float]:
        seconds, counts = tracer.clock.seconds, tracer.counts
        run, execute = seconds["fuzz.run"], seconds["fuzz.execute"]
        decode, feedback = seconds["fuzz.decode"], seconds["fuzz.feedback"]
        swarm = tracer.backend_stats("swarm")
        # one reset step per packed batch; every other step is an input cycle
        packed_steps = swarm.step_calls - swarm.forks
        cycles, executions, queue, _ = self._first(setup, ("c",))
        return {
            "fuzz.decode_s": decode,
            "fuzz.execute_s": execute - decode - tracer.call_seconds(),
            "fuzz.feedback_s": feedback,
            "fuzz.afl_self_s": run - execute - feedback,
            "fuzz.cycles_per_exec": cycles / executions if executions else 0.0,
            "fuzz.new_coverage_frac": queue / executions if executions else 0.0,
            "fuzz.lane_occupancy_frac": (
                counts["lane_cycles"] / (SWARM_LANES * packed_steps)
                if packed_steps else 0.0),
            "fuzz.covered.lanes": self._first(setup, ("lanes",))[3],
        }

    def rate_layers(self, setup, samples) -> dict[str, float]:
        return {
            f"fuzz.execs_per_s.{leg}": geomean(
                samples.ops_rate((d, leg)) for d in self.designs)
            for leg in self.legs
        }
