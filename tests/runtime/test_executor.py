"""Executor fault tolerance: containment, watchdog, retries, salvage."""

import time

import pytest

from repro.backends import SimulationCrash, TreadleBackend
from repro.coverage import all_cover_names, instrument
from repro.designs.gcd import Gcd
from repro.hcl import Module, elaborate
from repro.runtime import (
    Checkpointer,
    Executor,
    FaultPlan,
    FaultyBackend,
    ProcessAttemptResult,
    RunJob,
    process_isolation_available,
)
from repro.runtime import executor as executor_module

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def gcd_state():
    state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line"])
    return state


def gcd_stimulus(sim, cycle):
    sim.poke("req_valid", 1)
    sim.poke("req_bits", ((cycle % 13 + 1) << 8) | (cycle % 7 + 1))
    sim.poke("resp_ready", 1)


def make_job(backend, gcd_state, job_id="job", cycles=60):
    return RunJob(
        job_id=job_id,
        backend_name=getattr(backend, "name", "backend"),
        make_sim=lambda: backend.compile_state(gcd_state),
        cycles=cycles,
        stimulus=gcd_stimulus,
    )


class TestCrashContainment:
    def test_crash_becomes_structured_failure(self, gcd_state, isolation):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=10, seed=1))
        outcome = Executor(sleep=lambda s: None, isolation=isolation).run_job(
            make_job(backend, gcd_state)
        )
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert [f.kind for f in outcome.failures] == ["crash"]
        assert "injected crash" in outcome.failures[0].message

    def test_healthy_job_is_ok(self, gcd_state, isolation):
        outcome = Executor(isolation=isolation).run_job(
            make_job(TreadleBackend(), gcd_state)
        )
        assert outcome.status == "ok"
        assert outcome.cycles_run == 60
        assert outcome.counts and not outcome.failures

    def test_keyboard_interrupt_not_swallowed(self, gcd_state):
        def explode():
            raise KeyboardInterrupt

        job = RunJob("boom", "x", explode, cycles=5)
        with pytest.raises(KeyboardInterrupt):
            Executor().run_job(job)


class TestWatchdog:
    def test_timeout_fires_on_injected_hang(self, gcd_state, isolation):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(hang_at=5, seed=2))
        executor = Executor(timeout=0.3, isolation=isolation)
        outcome = executor.run_job(make_job(backend, gcd_state))
        assert outcome.status == "failed"
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert "0.3" in outcome.failures[0].message

    def test_fast_job_beats_the_watchdog(self, gcd_state, isolation):
        outcome = Executor(timeout=30, isolation=isolation).run_job(
            make_job(TreadleBackend(), gcd_state)
        )
        assert outcome.status == "ok"


class TestRetries:
    def test_transient_fault_recovers_on_third_attempt(self, gcd_state, isolation):
        """Seeded: fails twice, succeeds on the third attempt."""
        backend = FaultyBackend(
            TreadleBackend(), FaultPlan(crash_at=8, fail_attempts=2, seed=5)
        )
        slept = []
        executor = Executor(retries=2, sleep=slept.append, isolation=isolation)
        outcome = executor.run_job(make_job(backend, gcd_state))
        assert outcome.status == "ok"
        assert outcome.attempts == 3
        assert [f.kind for f in outcome.failures] == ["crash", "crash"]
        if isolation == "thread":
            # forked attempts never report back to the parent's counter
            assert backend.attempts == 3
        assert len(slept) == 2  # one backoff sleep per retry

    def test_backoff_grows_exponentially_with_jitter(self):
        executor = Executor(retries=5, backoff_base=0.1, seed=9)
        delays = [executor.backoff_delay(a) for a in range(2, 6)]
        for i, delay in enumerate(delays):
            base = 0.1 * (2 ** i)
            assert base <= delay <= base + 0.1
        # deterministic for a fixed seed
        assert delays == [Executor(retries=5, backoff_base=0.1, seed=9).backoff_delay(a)
                          for a in range(2, 6)]

    def test_backoff_jitter_differs_per_job(self):
        # Jitter seeded only by (seed, attempt) makes every failing job
        # sleep the same delay and retry in lockstep — a thundering herd.
        executor = Executor(retries=2, backoff_base=0.1, seed=9)
        delays = {
            job_id: executor.backoff_delay(2, job_id)
            for job_id in ("shard-0", "shard-1", "shard-2")
        }
        assert len(set(delays.values())) == len(delays)
        # still deterministic per job for a fixed seed
        for job_id, delay in delays.items():
            assert delay == Executor(
                retries=2, backoff_base=0.1, seed=9
            ).backoff_delay(2, job_id)
            assert 0.1 <= delay <= 0.2

    def test_retries_exhausted_reports_every_attempt(self, gcd_state):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=3, seed=4))
        outcome = Executor(retries=2, sleep=lambda s: None).run_job(
            make_job(backend, gcd_state)
        )
        assert outcome.status == "failed"
        assert len(outcome.failures) == 3
        assert [f.attempt for f in outcome.failures] == [1, 2, 3]


class TestCheckpointSalvage:
    def test_crashed_job_contributes_last_checkpoint(self, gcd_state, tmp_path):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=45, seed=6))
        checkpointer = Checkpointer(tmp_path, every=10)
        executor = Executor(checkpointer=checkpointer, sleep=lambda s: None)
        outcome = executor.run_job(make_job(backend, gcd_state, cycles=100))
        assert outcome.status == "partial"
        assert outcome.cycles_run == 40  # last checkpoint before the crash
        assert outcome.counts
        # the salvaged counts equal a clean run of the same length
        reference = TreadleBackend().compile_state(gcd_state)
        reference.poke("reset", 1)
        reference.step(1)
        reference.poke("reset", 0)
        for cycle in range(40):
            gcd_stimulus(reference, cycle)
            reference.step(1)
        assert outcome.counts == reference.cover_counts()

    def test_no_checkpointer_means_no_salvage(self, gcd_state):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=45, seed=6))
        outcome = Executor(sleep=lambda s: None).run_job(
            make_job(backend, gcd_state, cycles=100)
        )
        assert outcome.status == "failed"
        assert outcome.counts == {}

    def test_corrupt_shard_on_disk_does_not_kill_the_campaign(
        self, gcd_state, tmp_path
    ):
        """Salvage must survive a truncated shard file: the job stays
        'failed' and the file is reported via the quarantine path."""
        backend = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=3, seed=4))
        checkpointer = Checkpointer(tmp_path, every=0)
        checkpointer.shard_path("job").write_text("{truncated")
        executor = Executor(checkpointer=checkpointer, sleep=lambda s: None)
        result = executor.run_campaign([make_job(backend, gcd_state)])
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.counts == {}
        quarantined = result.quarantine.quarantined
        assert len(quarantined) == 1
        assert quarantined[0].job_id == "job.shard.json"
        assert quarantined[0].issues[0].kind == "unreadable"


class TestAbandonedAttempts:
    def test_abandoned_threads_are_counted_and_logged(self, gcd_state, caplog):
        """Thread-mode abandonment leaks a daemon thread; the campaign must
        surface that (count + warning) instead of hiding it."""
        backend = FaultyBackend(TreadleBackend(), FaultPlan(hang_at=5, seed=3))
        sims = []

        def make_sim():
            sim = backend.compile_state(gcd_state)
            sims.append(sim)
            return sim

        job = RunJob("leaky", "treadle", make_sim, 60, gcd_stimulus)
        executor = Executor(timeout=0.3, retries=1, sleep=lambda s: None)
        with caplog.at_level("WARNING", logger="repro.runtime.executor"):
            result = executor.run_campaign([job])
        try:
            outcome = result.outcomes[0]
            assert outcome.status == "failed"
            assert outcome.abandoned_attempts == 2  # both attempts hung
            assert result.abandoned_attempts == 2
            assert "abandoning wedged worker thread" in caplog.text
            assert "abandoned 2 wedged worker thread(s)" in result.format()
        finally:
            for sim in sims:  # unwedge the leaked daemons so they exit
                sim.release.set()

    def test_clean_campaign_reports_zero_abandoned(self, gcd_state):
        result = Executor().run_campaign([make_job(TreadleBackend(), gcd_state)])
        assert result.abandoned_attempts == 0
        assert "abandoned" not in result.format()

    def test_unwedged_straggler_cannot_clobber_retry_shard(
        self, gcd_state, tmp_path
    ):
        """A timed-out attempt that later unwedges must stop stepping and
        must not overwrite the successful retry's complete shard with a
        stale partial snapshot."""
        backend = FaultyBackend(
            TreadleBackend(), FaultPlan(hang_at=5, fail_attempts=1, seed=7)
        )
        sims = []

        def make_sim():
            sim = backend.compile_state(gcd_state)
            sims.append(sim)
            return sim

        job = RunJob("straggler", "treadle", make_sim, 60, gcd_stimulus)
        checkpointer = Checkpointer(tmp_path, every=10)
        executor = Executor(
            timeout=0.3, retries=1, checkpointer=checkpointer, sleep=lambda s: None
        )
        outcome = executor.run_job(job)
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        final = checkpointer.load("straggler")
        assert final.complete and final.cycle == 60

        # Unwedge the abandoned first attempt and give it time to misbehave.
        sims[0].release.set()
        time.sleep(0.3)
        assert sims[0].cycle <= 6  # the abandoned thread stopped stepping
        after = checkpointer.load("straggler")
        assert after.complete and after.cycle == 60
        assert after.counts == final.counts


class TestCampaign:
    def test_resume_skips_complete_jobs(self, gcd_state, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=0)
        executor = Executor(checkpointer=checkpointer)
        names = all_cover_names(gcd_state.circuit)
        job = make_job(TreadleBackend(), gcd_state, job_id="stable")
        first = executor.run_campaign([job], known_names=names)
        assert first.outcomes[0].status == "ok"

        calls = []

        def tracked_make_sim():
            calls.append(1)
            return TreadleBackend().compile_state(gcd_state)

        job2 = RunJob("stable", "treadle", tracked_make_sim, 60, gcd_stimulus)
        second = executor.run_campaign([job2], known_names=names, resume=True)
        assert second.outcomes[0].status == "resumed"
        assert not calls  # never re-simulated
        assert second.merged == first.merged

    def test_resume_across_fresh_checkpointer_instance(self, gcd_state, tmp_path):
        """Resume must survive an interpreter restart: a *fresh*
        Checkpointer over the same directory honors completed shards,
        re-runs partial ones, and keeps corrupt ones quarantined."""
        names = all_cover_names(gcd_state.circuit)
        # --- session 1: one complete job, one crash (partial shard), one
        # corrupt shard file from some earlier disaster
        first = Executor(
            checkpointer=Checkpointer(tmp_path, every=10), sleep=lambda s: None
        )
        first.run_job(make_job(TreadleBackend(), gcd_state, job_id="done"))
        crashing = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=45, seed=6))
        partial = first.run_job(
            make_job(crashing, gcd_state, job_id="half", cycles=100)
        )
        assert partial.status == "partial"
        (tmp_path / "ghost.shard.json").write_text("{truncated")

        # --- session 2: fresh interpreter ⇒ fresh Checkpointer, same dir
        second = Executor(
            checkpointer=Checkpointer(tmp_path, every=10), sleep=lambda s: None
        )
        compiled = []

        def tracked(job_id):
            def make_sim():
                compiled.append(job_id)
                return TreadleBackend().compile_state(gcd_state)

            return make_sim

        jobs = [
            RunJob("done", "treadle", tracked("done"), 60, gcd_stimulus),
            RunJob("half", "treadle", tracked("half"), 100, gcd_stimulus),
        ]
        result = second.run_campaign(jobs, known_names=names, resume=True)
        statuses = {o.job_id: o.status for o in result.outcomes}
        # completed shard honored without re-running; partial shard re-run
        assert statuses == {"done": "resumed", "half": "ok"}
        assert compiled == ["half"]
        # the re-run completed, upgrading half's shard to complete
        half = second.checkpointer.load("half")
        assert half.complete and half.cycle == 100
        # the unreadable shard stays quarantined across sessions
        ghosts = [
            q for q in result.quarantine.quarantined
            if q.job_id == "ghost.shard.json"
        ]
        assert len(ghosts) == 1
        assert ghosts[0].issues[0].kind == "unreadable"

    def test_resume_requires_checkpointer(self, gcd_state):
        with pytest.raises(ValueError, match="checkpointer"):
            Executor().run_campaign([], resume=True)

    def test_job_rejects_non_positive_cycles(self):
        with pytest.raises(ValueError, match="positive"):
            RunJob("j", "b", lambda: None, cycles=0)


class _Halts(Module):
    """A free-running counter whose ``stop`` fires on the edge at ``at``."""

    def __init__(self, at: int) -> None:
        super().__init__()
        self.at = at

    def signature(self):
        return ("Halts", self.at)

    def build(self, m):
        count = m.reg("count", 8, init=0)
        count <<= count + 1
        m.cover(count[0] == 1, "odd")
        m.stop(count == self.at - 1, 0, "halt")


class _RecordingCheckpointer(Checkpointer):
    """Records ``(cycle, complete)`` for every shard the executor writes."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.writes = []

    def write(self, shard):
        self.writes.append((shard.cycle, shard.complete))
        return super().write(shard)


@pytest.fixture(params=["thread", "process"])
def either_isolation(request):
    if request.param == "process" and not process_isolation_available():
        pytest.skip("process isolation requires the fork start method")
    return request.param


class TestCheckpointCadence:
    """One shard write and one readout per boundary; the boundary at the
    job's end or stop gets the complete shard only."""

    def test_clean_job_writes_periodic_shards_before_its_end(
        self, gcd_state, tmp_path, either_isolation
    ):
        every, k = 10, 3
        seen = []
        checkpointer = _RecordingCheckpointer(tmp_path, every=every)
        executor = Executor(
            checkpointer=checkpointer, isolation=either_isolation,
            progress=lambda job_id, cycle, counts: seen.append((cycle, counts)),
        )
        outcome = executor.run_job(
            make_job(TreadleBackend(), gcd_state, cycles=k * every))
        assert outcome.status == "ok"
        assert checkpointer.writes == [(10, False), (20, False), (30, True)]
        assert [cycle for cycle, _ in seen] == [10, 20, 30]
        assert seen[-1][1] == outcome.counts
        assert checkpointer.load("job").counts == outcome.counts

    @pytest.mark.parametrize("at,writes", [
        (25, [(10, False), (20, False), (25, True)]),
        (20, [(10, False), (20, True)]),
    ])
    def test_stop_writes_no_periodic_shard_at_its_cycle(
        self, tmp_path, either_isolation, at, writes
    ):
        """Stops mid-block (25) and on a boundary (20): either way the
        stop cycle gets only the complete shard."""
        state, _ = instrument(elaborate(_Halts(at)), metrics=["line"])
        seen = []
        checkpointer = _RecordingCheckpointer(tmp_path, every=10)
        executor = Executor(
            checkpointer=checkpointer, isolation=either_isolation,
            progress=lambda job_id, cycle, counts: seen.append(cycle),
        )
        job = RunJob("halts", "treadle",
                     lambda: TreadleBackend().compile_state(state), 60)
        outcome = executor.run_job(job)
        assert (outcome.status, outcome.cycles_run) == ("ok", at)
        assert checkpointer.writes == writes
        assert seen == [10, 20]

    def test_one_readout_per_boundary(self, gcd_state, tmp_path):
        readouts = []

        def make_sim():
            sim = TreadleBackend().compile_state(gcd_state)
            real = sim.cover_counts

            def cover_counts():
                readouts.append(sim.cycle)
                return real()

            sim.cover_counts = cover_counts
            return sim

        executor = Executor(checkpointer=Checkpointer(tmp_path, every=10))
        outcome = executor.run_job(RunJob("job", "treadle", make_sim, 30))
        assert outcome.status == "ok"
        # one per boundary; the last one's counts are the final counts
        assert len(readouts) == 3


class TestSalvageAfterTheLastBoundary:
    """The last boundary gets no periodic shard; an attempt that fails
    after it still salvages its counts."""

    def test_thread_attempt_abandoned_after_its_last_boundary(
        self, gcd_state, tmp_path
    ):
        def progress(job_id, cycle, counts):
            if cycle == 30:
                time.sleep(1.0)  # outlives the watchdog

        executor = Executor(
            checkpointer=Checkpointer(tmp_path, every=10), timeout=0.3,
            progress=progress,
        )
        outcome = executor.run_job(make_job(TreadleBackend(), gcd_state, cycles=30))
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert (outcome.status, outcome.cycles_run) == ("partial", 30)
        clean = Executor().run_job(make_job(TreadleBackend(), gcd_state, cycles=30))
        assert outcome.counts == clean.counts

    def test_process_attempt_killed_after_its_last_shard(
        self, gcd_state, tmp_path, monkeypatch
    ):
        """The parent keeps the counts the worker streamed at its last
        boundary; a kill before DONE salvages them."""
        def killed_after_last_shard(job, attempt, policy, checkpoint_every,
                                    on_shard):
            on_shard(10, {"x": 1}, False)
            on_shard(20, {"x": 2}, False)
            return ProcessAttemptResult(
                "killed", failure_kind="timeout", last_beat_cycle=20)

        monkeypatch.setattr(
            executor_module, "run_process_attempt", killed_after_last_shard)
        checkpointer = _RecordingCheckpointer(tmp_path, every=10)
        executor = Executor(checkpointer=checkpointer, isolation="process")
        outcome = executor.run_job(RunJob("job", "b", lambda: None, 20))
        assert checkpointer.writes == [(10, False)]
        assert (outcome.status, outcome.cycles_run) == ("partial", 20)
        assert outcome.counts == {"x": 2}

    def test_a_later_periodic_shard_supersedes_the_unsaved_boundary(
        self, tmp_path, monkeypatch
    ):
        """Attempt 1 dies after its last boundary, attempt 2 after its
        first: salvage takes the newest write, as the shard on disk did."""
        boundaries = iter([[(10, 1), (20, 2)], [(10, 3)]])

        def killed(job, attempt, policy, checkpoint_every, on_shard):
            for cycle, x in next(boundaries):
                on_shard(cycle, {"x": x}, False)
            return ProcessAttemptResult("killed", failure_kind="timeout")

        monkeypatch.setattr(executor_module, "run_process_attempt", killed)
        executor = Executor(
            checkpointer=Checkpointer(tmp_path, every=10), isolation="process",
            retries=1, sleep=lambda s: None,
        )
        outcome = executor.run_job(RunJob("job", "b", lambda: None, 20))
        assert (outcome.status, outcome.cycles_run) == ("partial", 10)
        assert outcome.counts == {"x": 3}
