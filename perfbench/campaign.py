"""``campaign``: checkpointed multi-seed campaigns, merge and reports.

Every design is instrumented with line+toggle+fsm on the minimal basis
(``minimize=True``).  One campaign sample runs ``Executor.run_campaign``
over ``JOBS`` seeded jobs of one design on one backend, with periodic
checkpoint shards, then rebuilds the full counts from the basis and
renders the line, toggle and fsm reports.  The jobs take no per-cycle
stimulus -- riscv-mini runs a non-halting program preloaded into its
memory, NeuroProc runs with weights loaded and ``start`` held, TLRAM and
serv-chisel serve one held request -- so the executor steps in
``step(n)`` blocks between checkpoints and the testbench driver does
almost nothing.  The preloads run before each campaign is timed and are
counted in no metric but ``bench.preload_s``.  This is the workload that
bypasses driver changes.

Every round draws fresh job seeds (the same for every backend of the
round), so a run averages over many preloads.

Check: every job finishes ``ok``, no shard is quarantined, and per design
and round the reconstructed counts are identical across backends (every
job of a design runs the same number of cycles on every backend).
"""

from __future__ import annotations

import random
import shutil
from time import perf_counter

from repro.coverage import (
    InstanceTree,
    all_cover_names,
    fsm_report,
    line_report,
    toggle_report,
)
from repro.runtime import Checkpointer, Executor, RunJob

from .harness import QUANTUM_S, REPLAY_DESIGNS, SCALAR_BACKENDS
from .probe import probe, span_count, span_seconds, timing
from .stimulus import BENCH_DESIGNS, design_rng

METRICS = ("line", "toggle", "fsm")
JOBS = 2
CHECKPOINTS_PER_JOB = 2


class Campaign:
    name = "campaign"

    def __init__(self, designs=REPLAY_DESIGNS, backends=SCALAR_BACKENDS) -> None:
        self.designs = tuple(designs)
        self.backends = tuple(backends)

    def make_inputs(self, seed: int) -> int:
        """Jobs draw their preloads per round, from the workload seed."""
        return seed

    def setup(self, seed, setup):
        setup.seed = seed
        setup.templates = {}
        setup.reference = {}
        setup.known = {}
        setup.trees = {}
        setup.campaigns = 0
        for design in self.designs:
            setup.instrument(design, BENCH_DESIGNS[design].factory(), METRICS,
                             minimize=True)
            circuit = setup.states[design].circuit
            setup.known[design] = all_cover_names(circuit)
            setup.trees[design] = InstanceTree(circuit)
            for backend in self.backends:
                setup.templates[(design, backend)] = setup.compile(design, backend)
        return setup

    def prepare_trace(self, setup, tracer) -> None:
        """Nothing to prebuild: traced rounds wrap each preloaded job."""

    def _jobs(self, setup, design, backend, stats, clock, index) -> list[RunJob]:
        """Round ``index``'s seeded jobs.

        Each job's simulation is forked and preloaded here, before the
        campaign is timed, so the preload's pokes and steps count in no
        metric; a retried attempt preloads a fresh fork itself.  Traced
        rounds wrap the preloaded simulation in a probe afterwards.
        """
        spec = BENCH_DESIGNS[design]
        template = setup.templates[(design, backend)]

        def preloaded(job_seed):
            sim = template.fork()
            spec.preload(sim, random.Random(job_seed))
            return sim if stats is None else probe(sim, stats)

        def make_sim(ready, job_seed):
            return ready.pop() if ready else preloaded(job_seed)

        jobs = []
        with timing(clock, "preload"):
            for k in range(JOBS):
                job_seed = design_rng(
                    setup.seed, design, f"round{index}-job{k}").getrandbits(64)
                ready = [preloaded(job_seed)]
                jobs.append(RunJob(
                    f"{design}-{k}", backend,
                    lambda ready=ready, job_seed=job_seed: make_sim(ready, job_seed),
                    spec.campaign_cycles,
                ))
        return jobs

    def _campaign(self, setup, design, backend, stats, clock, index):
        """One timed campaign; returns its reconstructed counts, the
        result, its cycles and its seconds."""
        spec = BENCH_DESIGNS[design]
        jobs = self._jobs(setup, design, backend, stats, clock, index)
        setup.campaigns += 1
        checkpointer = Checkpointer(
            setup.workdir / f"shards-{setup.campaigns}",
            every=spec.campaign_cycles // CHECKPOINTS_PER_JOB,
        )
        state, db, tree = setup.states[design], setup.dbs[design], setup.trees[design]
        started = perf_counter()
        result = Executor(checkpointer=checkpointer).run_campaign(
            jobs, known_names=setup.known[design]
        )
        with timing(clock, "reconstruct"):
            counts = db.reconstruct_counts(result.merged, tree)
        with timing(clock, "report"):
            for report in (line_report, toggle_report, fsm_report):
                report(db, result.merged, state.circuit)
        elapsed = perf_counter() - started
        shutil.rmtree(checkpointer.directory, ignore_errors=True)
        cycles = sum(outcome.cycles_run for outcome in result.outcomes)
        return counts, result, cycles, elapsed

    def run_round(self, setup, ledger, samples, tracer, index) -> None:
        clock = tracer.clock if tracer is not None else None
        for design in self.designs:
            for backend in self.backends:
                stats = tracer.stats(design, backend) if tracer is not None else None
                cycles = ops = 0
                elapsed = 0.0
                while elapsed < QUANTUM_S:
                    try:
                        counts, result, ran, seconds = self._campaign(
                            setup, design, backend, stats, clock, index)
                    except Exception as error:  # a failed operation
                        ledger.record(False, f"campaign {design}/{backend}: {error!r}",
                                      count=JOBS)
                        break
                    elapsed += seconds
                    cycles += ran
                    ops += len(result.outcomes)
                    self._check(setup, ledger, clock, (design, index), backend,
                                counts, result)
                if ops:
                    samples.add((design, backend), cycles, elapsed, ops)

    def _check(self, setup, ledger, clock, key, backend, counts, result) -> None:
        started = perf_counter()
        where = f"campaign {key[0]}/{backend} round {key[1]}"
        reference = setup.reference.setdefault(key, counts)
        merged_ok = not result.quarantine.quarantined and counts == reference
        for outcome in result.outcomes:
            ledger.record(
                outcome.status == "ok" and merged_ok,
                f"{where}: job {outcome.job_id} {outcome.status}, "
                f"merged counts {'agree' if merged_ok else 'differ or quarantined'}",
            )
        if clock is not None:
            clock.seconds["check"] += perf_counter() - started

    def line_covered(self, setup) -> int:
        """Line cover points the first round's campaigns hit."""
        return sum(setup.line_covered(design, setup.reference[(design, 0)])
                   for design in self.designs)

    def run_layers(self, setup, tracer, events) -> dict[str, float]:
        checkpoint = span_seconds(events, "checkpoint")
        merge = span_seconds(events, "merge")
        jobs = span_seconds(events, "job")
        return {
            "runtime.checkpoint_s": checkpoint,
            "runtime.checkpoints": span_count(events, "checkpoint"),
            "runtime.merge_s": merge,
            # every simulation call and every shard write of a campaign
            # happens inside one of its jobs
            "runtime.job_s": jobs - tracer.call_seconds() - checkpoint,
            "runtime.campaign_self_s": span_seconds(events, "campaign") - jobs - merge,
            "bench.preload_s": tracer.clock.seconds["preload"],
            "coverage.reconstruct_s": tracer.clock.seconds["reconstruct"],
            "coverage.report_s": tracer.clock.seconds["report"],
        }

    def rate_layers(self, setup, samples) -> dict[str, float]:
        return {}
