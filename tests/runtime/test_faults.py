"""The fault injector itself: determinism, and the FireSim CRC defence."""

import pytest

from repro.backends import ScanChainCorruption, TreadleBackend
from repro.backends.firesim.driver import FireSimSimulation, scan_crc
from repro.backends.firesim.scanchain import insert_scan_chain
from repro.coverage import instrument
from repro.designs.gcd import Gcd
from repro.hcl import Module, elaborate
from repro.passes import lower
from repro.runtime import FaultPlan, FaultyBackend, ScanNoiseHost

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def gcd_state():
    state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line"])
    return state


def run_and_collect(sim, cycles=40):
    sim.poke("reset", 1)
    sim.step(1)
    sim.poke("reset", 0)
    sim.poke("resp_ready", 1)
    sim.poke("req_valid", 1)
    sim.poke("req_bits", (9 << 8) | 6)
    sim.step(cycles)
    return sim.cover_counts()


class TestDeterminism:
    def test_crash_is_reproducible(self, gcd_state):
        from repro.backends import SimulationCrash

        for _ in range(2):
            sim = FaultyBackend(
                TreadleBackend(), FaultPlan(crash_at=7, seed=3)
            ).compile_state(gcd_state)
            with pytest.raises(SimulationCrash, match="cycle 7"):
                sim.step(50)

    def test_corruption_is_reproducible(self, gcd_state):
        def corrupted():
            backend = FaultyBackend(
                TreadleBackend(),
                FaultPlan(corrupt_keys=2, drop_keys=1, negate_keys=1,
                          inflate_keys=1, seed=11),
            )
            return run_and_collect(backend.compile_state(gcd_state))

        assert corrupted() == corrupted()

    def test_corruption_kinds_all_present(self, gcd_state):
        clean = run_and_collect(TreadleBackend().compile_state(gcd_state))
        backend = FaultyBackend(
            TreadleBackend(),
            FaultPlan(corrupt_keys=2, drop_keys=1, negate_keys=1,
                      inflate_keys=1, inflate_width=16, seed=11),
        )
        counts = run_and_collect(backend.compile_state(gcd_state))
        assert len(counts) == len(clean) - 1  # one key dropped
        renamed = [k for k in counts if k not in clean]
        assert len(renamed) == 2 and all("__corrupt" in k for k in renamed)
        assert sum(1 for v in counts.values() if v < 0) == 1
        assert sum(1 for v in counts.values() if v > (1 << 16) - 1) == 1

    def test_clean_plan_is_a_no_op(self, gcd_state):
        clean = run_and_collect(TreadleBackend().compile_state(gcd_state))
        wrapped = run_and_collect(
            FaultyBackend(TreadleBackend(), FaultPlan()).compile_state(gcd_state)
        )
        assert wrapped == clean


class _Stops(Module):
    def build(self, m):
        count = m.reg("count", 8, init=0)
        count <<= count + 1
        m.cover(count[0] == 1, "odd")
        m.stop(count == 6, 1, "six")


class TestScanChainCrc:
    @pytest.fixture(scope="class")
    def chained(self, gcd_state):
        flat = lower(gcd_state.circuit, flatten=True)
        return insert_scan_chain(flat, counter_width=8)

    def test_crc_is_stable_and_order_sensitive(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        assert scan_crc(bits) == scan_crc(list(bits))
        assert scan_crc(bits) != scan_crc(bits[::-1])
        assert 0 <= scan_crc(bits) <= 0xFFFF

    def test_clean_chain_passes_verification(self, chained):
        state, info = chained
        sim = FireSimSimulation(
            TreadleBackend().compile_state(state), info, verify_scans=True
        )
        counts = run_and_collect(sim)
        assert sim.last_scan_crc is not None
        assert any(counts.values())
        # verification cost: two rotations per scan instead of one
        assert sim.scan_cycles_total == 2 * info.length_bits

    def test_wrapped_host_scans_out_after_a_stop(self):
        """The driver lifts the stop latch of the host behind the wrapper,
        and puts it back."""
        state, info = insert_scan_chain(
            lower(elaborate(_Stops()), flatten=True), counter_width=8)
        host = TreadleBackend().compile_state(state)
        sim = FireSimSimulation(ScanNoiseHost(host, 0.0), info, verify_scans=True)
        sim.poke("reset", 1)
        sim.step(1)
        sim.poke("reset", 0)
        assert sim.step(20).stopped
        for _ in range(2):
            assert sim.cover_counts() == {"odd": 3}
        assert host.stopped

    def test_bit_flips_raise_scan_chain_corruption(self, chained):
        state, info = chained
        noisy = ScanNoiseHost(
            TreadleBackend().compile_state(state), flip_probability=0.02, seed=1
        )
        sim = FireSimSimulation(noisy, info, verify_scans=True)
        with pytest.raises(ScanChainCorruption):
            run_and_collect(sim)
        assert noisy.flips > 0

    def test_first_rotation_flip_detected_before_recirculation(self, chained):
        """A single transient flip during the *first* rotation must raise.

        This is the scenario the CRC-replay check alone could not see: the
        corrupted bit used to be recirculated into the chain, so the replay
        read back the same corruption and the CRCs matched.  The
        sample-before-commit check catches the flip on the spot.
        """
        state, info = chained
        # read 4 is chain bit 2's first sample (two samples per bit)
        noisy = ScanNoiseHost(
            TreadleBackend().compile_state(state), 0.0, flip_reads={4}
        )
        sim = FireSimSimulation(noisy, info, verify_scans=True)
        with pytest.raises(ScanChainCorruption, match=r"bit 2/\d+ read unstable"):
            run_and_collect(sim)
        assert noisy.flips == 1

    def test_resample_flip_detected(self, chained):
        """A flip on the second sample (the resample) is equally fatal."""
        state, info = chained
        noisy = ScanNoiseHost(
            TreadleBackend().compile_state(state), 0.0, flip_reads={5}
        )
        sim = FireSimSimulation(noisy, info, verify_scans=True)
        with pytest.raises(ScanChainCorruption, match="unstable"):
            run_and_collect(sim)

    def test_replay_divergence_caught_by_bitstream_compare(self, chained):
        """Both samples of one bit flipped in the *replay* rotation: the
        sample check passes (samples agree), but the replay bitstream no
        longer matches the data rotation, so layer 2 fires."""
        state, info = chained
        base = 2 * info.length_bits  # replay rotation starts here
        noisy = ScanNoiseHost(
            TreadleBackend().compile_state(state), 0.0,
            flip_reads={base + 6, base + 7},
        )
        sim = FireSimSimulation(noisy, info, verify_scans=True)
        with pytest.raises(ScanChainCorruption, match="diverge at bit 3"):
            run_and_collect(sim)

    def test_documented_residual_double_flip_first_rotation(self, chained):
        """The documented p² residual: identical flips on *both* samples of
        the same bit in the data rotation commit the corruption, and the
        replay rereads it as itself — no exception, wrong counts.  This
        test pins the limitation the driver docstring declares; shard
        validation downstream is the remaining backstop."""
        state, info = chained
        clean = run_and_collect(
            FireSimSimulation(TreadleBackend().compile_state(state), info)
        )
        noisy = ScanNoiseHost(
            TreadleBackend().compile_state(state), 0.0, flip_reads={6, 7}
        )
        sim = FireSimSimulation(noisy, info, verify_scans=True)
        poisoned = run_and_collect(sim)
        assert noisy.flips == 2
        assert poisoned != clean  # corrupted, undetected by design limits

    def test_without_verification_corruption_goes_unnoticed(self, chained):
        """The motivating hazard: silent poisoning unless verify_scans is on."""
        state, info = chained
        clean_sim = FireSimSimulation(TreadleBackend().compile_state(state), info)
        clean = run_and_collect(clean_sim)
        noisy = ScanNoiseHost(
            TreadleBackend().compile_state(state), flip_probability=0.05, seed=2
        )
        sim = FireSimSimulation(noisy, info, verify_scans=False)
        poisoned = run_and_collect(sim)
        assert poisoned != clean  # wrong counts, no exception

    def test_flip_probability_validated(self, chained):
        state, info = chained
        with pytest.raises(ValueError, match="probability"):
            ScanNoiseHost(TreadleBackend().compile_state(state), 1.5)
