"""Deterministic fault injection for testing the run orchestrator.

Real coverage campaigns treat backends as unreliable workers: interpreters
hang, compiled models segfault, FPGA scan-chain reads flip bits.  None of
our pure-Python backends actually do any of that, so this module wraps any
:class:`~repro.backends.api.Simulation` in a seeded fault model that does —
on demand, reproducibly — which is what the executor's timeout, retry,
checkpoint, and quarantine paths are tested against.

All faults are deterministic functions of ``(FaultPlan, attempt number,
cycle)``; re-running a campaign with the same seed reproduces the same
crashes, hangs, and corruptions.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..backends.api import (
    CoverCounts,
    SimulationCrash,
    StepResult,
)


class PowerLoss(BaseException):
    """The machine "died" mid-write (injected).

    Deliberately *not* an :class:`OSError` — and not even an
    :class:`Exception` — so that no error-handling path in the code under
    test can run: a real power cut or ``kill -9`` executes nobody's
    ``except`` clause.  Whatever bytes made it to disk before the cut
    stay there, exactly as a torn write would leave them.
    """


@dataclass
class DiskFaultPlan:
    """What goes wrong on the filesystem, and when.

    All byte thresholds are cumulative across every ``write`` call routed
    through one :class:`FaultyOS` instance.

    * ``power_cut_after_bytes`` — once this many bytes have been written,
      the next write stores only the bytes up to the threshold and raises
      :class:`PowerLoss` (a torn write: the partial frame stays on disk
      and no cleanup code runs).
    * ``enospc_after_bytes`` — the disk "fills": writes past the
      threshold store what fits and raise ``OSError(ENOSPC)``.  Unlike a
      power cut this is an ordinary error the code under test must handle
      (the journal self-heals by truncating the partial frame).
    * ``fsync_failures`` — the first N ``fsync`` calls raise
      ``OSError(EIO)`` (models a dying disk or a lying NFS server).
    """

    power_cut_after_bytes: Optional[int] = None
    enospc_after_bytes: Optional[int] = None
    fsync_failures: int = 0


class FaultyOS:
    """Drop-in ``os``-module subset with injected disk faults.

    :class:`~repro.runtime.journal.Journal` and
    :class:`~repro.runtime.checkpoint.Checkpointer` route their raw file
    operations through an ``os_module`` hook; handing them a ``FaultyOS``
    makes torn writes, ``ENOSPC``, and fsync failures happen on demand,
    deterministically, without touching the real filesystem layer.
    Everything not overridden passes through to the real :mod:`os`.
    """

    def __init__(self, plan: DiskFaultPlan) -> None:
        self.plan = plan
        self.bytes_written = 0
        self.fsync_calls = 0
        self.writes_torn = 0

    def _budget(self) -> Optional[int]:
        """Bytes still writable before the nearest configured fault."""
        limits = [
            limit for limit in (
                self.plan.power_cut_after_bytes,
                self.plan.enospc_after_bytes,
            ) if limit is not None
        ]
        if not limits:
            return None
        return max(0, min(limits) - self.bytes_written)

    def write(self, fd: int, data) -> int:
        budget = self._budget()
        data = bytes(data)
        if budget is None or len(data) <= budget:
            written = os.write(fd, data)
            self.bytes_written += written
            return written
        # The fault hits inside this write: store the surviving prefix
        # (a torn write is a *partial* write), then fail.
        if budget:
            self.bytes_written += os.write(fd, data[:budget])
        self.writes_torn += 1
        cut = self.plan.power_cut_after_bytes
        if cut is not None and self.bytes_written >= cut:
            raise PowerLoss(
                f"injected power cut after {self.bytes_written} bytes"
            )
        raise OSError(errno.ENOSPC, "injected: no space left on device")

    def fsync(self, fd: int) -> None:
        self.fsync_calls += 1
        if self.fsync_calls <= self.plan.fsync_failures:
            raise OSError(errno.EIO, "injected fsync failure")
        os.fsync(fd)

    def __getattr__(self, name: str):
        return getattr(os, name)


@dataclass
class FaultPlan:
    """What goes wrong, and when.

    * ``crash_at`` — raise :class:`SimulationCrash` once the simulation
      reaches this cycle.
    * ``fail_attempts`` — only the first N attempts fault (crash *or*
      hang); later attempts run clean (models a transient fault the retry
      path should absorb).  0 means every attempt faults (a hard fault).
    * ``hang_at`` — ``step()`` blocks indefinitely at this cycle (models a
      wedged simulator; the executor's watchdog must fire).  Cooperative:
      the hang polls a ``release`` event so thread-mode tests can clean up.
    * ``hang_hard_at`` — ``step()`` blocks *forever*, ignoring both the
      executor's cancellation flag and ``release`` (models a simulator
      wedged in native code).  Only process isolation can end this one:
      under the thread-mode executor the worker leaks as a spinning daemon
      thread for the life of the interpreter.
    * ``balloon_at`` — ``step()`` allocates memory without bound (models a
      leak/runaway allocation).  Under a process worker with an
      ``address_space_mb`` cap the balloon pops as a contained
      :class:`SimulationCrash`; the ``balloon_cap_mb`` safety cap keeps an
      *uncapped* test process from eating the host.
    * ``corrupt_keys`` / ``drop_keys`` / ``negate_keys`` / ``inflate_keys``
      — corrupt ``cover_counts()`` output: rename keys out of the cover
      namespace, silently drop keys, make counts negative, or inflate
      counts past the saturation limit of ``inflate_width``.
    * ``lie_keys`` / ``lie_delta`` — *plausible-but-wrong* counts: add
      ``lie_delta`` to N seeded-chosen covers.  The result stays in the
      namespace, non-negative, and in range — shard validation cannot see
      it; only cross-backend differential quorum can.
    * ``seed`` — drives every random choice.
    """

    crash_at: Optional[int] = None
    fail_attempts: int = 0
    hang_at: Optional[int] = None
    hang_hard_at: Optional[int] = None
    balloon_at: Optional[int] = None
    balloon_cap_mb: int = 512
    balloon_chunk_mb: int = 16
    corrupt_keys: int = 0
    drop_keys: int = 0
    negate_keys: int = 0
    inflate_keys: int = 0
    inflate_width: int = 16
    lie_keys: int = 0
    lie_delta: int = 5
    seed: int = 0


class FaultySimulation:
    """Simulation-protocol wrapper that injects the planned faults."""

    def __init__(self, sim, plan: FaultPlan, attempt: int = 1) -> None:
        self._sim = sim
        self.plan = plan
        self.attempt = attempt
        self.cycle = 0
        self._balloon: list[bytearray] = []
        #: set to release an injected hang (so test processes can clean up)
        self.release = threading.Event()

    # -- pass-through ----------------------------------------------------------

    def poke(self, port: str, value: int) -> None:
        self._sim.poke(port, value)

    def peek(self, port: str) -> int:
        return self._sim.peek(port)

    # -- injected step faults --------------------------------------------------

    def _faulting_attempt(self) -> bool:
        return self.plan.fail_attempts == 0 or self.attempt <= self.plan.fail_attempts

    def step(self, cycles: int = 1) -> StepResult:
        done = 0
        faulting = self._faulting_attempt()
        for _ in range(cycles):
            if (
                faulting
                and self.plan.crash_at is not None
                and self.cycle >= self.plan.crash_at
            ):
                raise SimulationCrash(
                    f"injected crash at cycle {self.cycle} "
                    f"(attempt {self.attempt}, seed {self.plan.seed})"
                )
            if (
                faulting
                and self.plan.hang_hard_at is not None
                and self.cycle >= self.plan.hang_hard_at
            ):
                # An uncancellable hang: no release, no abandoned-flag
                # polling.  Only SIGKILL from a process supervisor ends it.
                while True:
                    time.sleep(0.05)
            if (
                faulting
                and self.plan.balloon_at is not None
                and self.cycle >= self.plan.balloon_at
            ):
                self._inflate_balloon()
            if (
                faulting
                and self.plan.hang_at is not None
                and self.cycle >= self.plan.hang_at
            ):
                # Block until released; the executor's watchdog abandons the
                # worker thread, and `release` lets tests unwedge it.
                while not self.release.wait(0.05):
                    pass
                return StepResult(done)
            result = self._sim.step(1)
            self.cycle += 1
            done += result.cycles
            if result.stopped:
                return StepResult(done, True, result.stop_name, result.exit_code)
        return StepResult(done)

    def _inflate_balloon(self) -> None:
        """Allocate fixed-size chunks until a memory cap stops us.

        With an in-worker ``RLIMIT_AS`` cap the allocation raises
        ``MemoryError``; the balloon is dropped *before* re-raising so the
        child process has headroom to report the failure over its pipe.
        Without a cap, the safety limit trips instead of eating the host.
        The chunk size is part of the plan (``balloon_chunk_mb``) so tests
        can bound how many allocations stand between them and the pop.
        """
        chunk_mb = self.plan.balloon_chunk_mb
        try:
            while len(self._balloon) * chunk_mb < self.plan.balloon_cap_mb:
                self._balloon.append(bytearray(chunk_mb << 20))
        except MemoryError:
            self._balloon.clear()
            raise SimulationCrash(
                f"injected memory balloon popped on the worker's memory cap "
                f"at cycle {self.cycle} (attempt {self.attempt})"
            ) from None
        self._balloon.clear()
        raise SimulationCrash(
            f"injected memory balloon hit its {self.plan.balloon_cap_mb} MiB "
            "safety cap without tripping a memory limit — no RLIMIT_AS set?"
        )

    # -- injected count corruption ---------------------------------------------

    def cover_counts(self) -> CoverCounts:
        counts = dict(self._sim.cover_counts())
        plan = self.plan
        if plan.lie_keys and self._faulting_attempt():
            rng = random.Random(f"{plan.seed}:lies")
            for key in rng.sample(sorted(counts), min(len(counts), plan.lie_keys)):
                # plausible: stays an in-namespace, non-negative int
                counts[key] = counts[key] + plan.lie_delta
        if not (plan.corrupt_keys or plan.drop_keys or plan.negate_keys
                or plan.inflate_keys):
            return counts
        rng = random.Random(f"{plan.seed}:{self.attempt}:counts")
        keys = sorted(counts)
        victims = rng.sample(
            keys,
            min(len(keys), plan.corrupt_keys + plan.drop_keys
                + plan.negate_keys + plan.inflate_keys),
        )
        cursor = 0
        for _ in range(min(plan.corrupt_keys, len(victims) - cursor)):
            key = victims[cursor]
            cursor += 1
            counts[f"{key}__corrupt{rng.randrange(1 << 16):04x}"] = counts.pop(key)
        for _ in range(min(plan.drop_keys, len(victims) - cursor)):
            counts.pop(victims[cursor])
            cursor += 1
        for _ in range(min(plan.negate_keys, len(victims) - cursor)):
            key = victims[cursor]
            cursor += 1
            counts[key] = -(counts[key] + 1)
        limit = (1 << plan.inflate_width) - 1
        for _ in range(min(plan.inflate_keys, len(victims) - cursor)):
            key = victims[cursor]
            cursor += 1
            counts[key] = limit + 1 + rng.randrange(1 << 8)
        return counts


class FaultyBackend:
    """Backend wrapper: every ``compile*`` call is one numbered attempt.

    The attempt number feeds :class:`FaultPlan.fail_attempts`, which is how
    a "fails twice, succeeds on the third try" transient fault is modelled:
    the executor recompiles a fresh simulation per retry, and the wrapper
    counts those compilations.

    Under process isolation each attempt's compile happens in a *forked
    child* whose copy of this counter never makes it back to the parent —
    every fork would look like attempt 1 and transient plans would never
    heal.  The worker publishes the executor-level attempt number
    (:func:`~repro.runtime.procworker.current_attempt`), which takes
    precedence when set.
    """

    def __init__(self, backend, plan: FaultPlan) -> None:
        self._backend = backend
        self.plan = plan
        self.attempts = 0
        self.name = f"faulty-{getattr(backend, 'name', 'backend')}"

    def _next_attempt(self) -> int:
        from .procworker import current_attempt

        self.attempts += 1
        return current_attempt() or self.attempts

    def compile(self, circuit, counter_width=None) -> FaultySimulation:
        return FaultySimulation(
            self._backend.compile(circuit, counter_width),
            self.plan,
            self._next_attempt(),
        )

    def compile_state(self, state, counter_width=None) -> FaultySimulation:
        return FaultySimulation(
            self._backend.compile_state(state, counter_width),
            self.plan,
            self._next_attempt(),
        )


@dataclass
class NetFaultPlan:
    """What goes wrong on the wire, and when.

    Applied to *outbound* frames of a cluster channel by
    :class:`FaultyChannel` — the realistic seam, because a worker's view
    of a partition is "my sends vanish"; the coordinator simply stops
    hearing from it.  All choices are deterministic functions of
    ``(seed, message index)``, so a chaos test replays identically.

    * ``drop_p`` — each frame is silently discarded with this
      probability (lossy link).
    * ``dup_p`` — each frame is sent twice (retransmit storm; the
      delta-merge contiguity check must make duplicates harmless).
    * ``delay_p`` / ``delay_s`` — each frame is held for ``delay_s``
      seconds before delivery (congestion; staleness the fencing tokens
      must catch).
    * ``reorder_p`` — each frame may be held back and sent *after* the
      following frame (out-of-order delivery).
    * ``partitions`` — ``(start_s, end_s)`` windows, measured from
      channel creation, during which every matching frame is *buffered*
      instead of sent; when a window ends the backlog floods out at
      once.  This is the zombie-holder scenario: the worker keeps
      computing and "sending" during the partition, the lease expires,
      and the flood of stale frames arrives after re-dispatch — every
      one must bounce off the fencing check.
    * ``only_types`` — restrict the faults to these frame types (empty
      = all).  Lets a test partition ``delta``/``heartbeat`` traffic
      while leaving ``hello`` registration intact.
    * ``seed`` — drives every random choice.
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    delay_p: float = 0.0
    delay_s: float = 0.05
    reorder_p: float = 0.0
    partitions: tuple = ()
    only_types: tuple = ()
    seed: int = 0


class FaultyChannel:
    """Channel wrapper that injects :class:`NetFaultPlan` faults on send.

    Wraps any object with ``send(msg)`` / ``recv()`` / ``close()``
    (duck-typed to :class:`~repro.runtime.protocol.LineChannel`).
    Inbound traffic passes through untouched — the coordinator's
    ``revoke``/``fenced`` frames still arrive, as they would on an
    asymmetric partition.

    Frames deferred by a delay or partition window are released by a
    daemon flusher thread, *not* lazily on the next send: a worker that
    goes quiet after a partition (revoked, cancelled) must still flood
    its buffered stale writes when the window lifts, or the zombie
    scenario never exercises the fencing check.
    """

    _TICK = 0.02

    def __init__(self, channel, plan: NetFaultPlan) -> None:
        self._channel = channel
        self.plan = plan
        self._rng = random.Random(f"{plan.seed}:net")
        self._born = time.monotonic()
        self._lock = threading.Lock()
        self._held: Optional[dict] = None   # reorder buffer (one frame)
        self._deferred: list = []           # (due_at, seq, msg)
        self._seq = 0
        self._closed = False
        self.sent = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.deferred_total = 0
        self._flusher = threading.Thread(
            target=self._flush_loop, name="net-fault-flusher", daemon=True
        )
        self._flusher.start()

    # -- fault application -----------------------------------------------------

    def _in_partition(self, now: float) -> Optional[float]:
        """The end of the active partition window, if any."""
        age = now - self._born
        for start, end in self.plan.partitions:
            if start <= age < end:
                return self._born + end
        return None

    def send(self, msg: dict) -> None:
        plan = self.plan
        if plan.only_types and msg.get("type") not in plan.only_types:
            self._channel.send(msg)
            return
        # Draw every decision up front so the outcome depends only on the
        # message index, not on which earlier branches were taken.
        roll_drop = self._rng.random()
        roll_dup = self._rng.random()
        roll_delay = self._rng.random()
        roll_reorder = self._rng.random()
        now = time.monotonic()
        window_end = self._in_partition(now)
        if window_end is not None:
            with self._lock:
                self._seq += 1
                self._deferred.append((window_end, self._seq, msg))
                self.deferred_total += 1
            return
        if roll_drop < plan.drop_p:
            self.dropped += 1
            return
        if roll_delay < plan.delay_p:
            with self._lock:
                self._seq += 1
                self._deferred.append((now + plan.delay_s, self._seq, msg))
                self.delayed += 1
                self.deferred_total += 1
            return
        if roll_reorder < plan.reorder_p:
            with self._lock:
                if self._held is None:
                    self._held = msg   # hold back; the next frame overtakes
                    return
        self._transmit(msg)
        if roll_dup < plan.dup_p:
            self.duplicated += 1
            self._transmit(msg)
        held = None
        with self._lock:
            if self._held is not None and self._held is not msg:
                held, self._held = self._held, None
                self.reordered += 1
        if held is not None:
            self._transmit(held)

    def _transmit(self, msg: dict) -> None:
        if self._closed:
            return
        try:
            self._channel.send(msg)
            self.sent += 1
        except (OSError, ValueError):
            pass  # the link died under us; the read loop notices EOF

    def _flush_loop(self) -> None:
        while not self._closed:
            now = time.monotonic()
            due = []
            with self._lock:
                keep = []
                for item in self._deferred:
                    (due if item[0] <= now else keep).append(item)
                self._deferred = keep
            for _, _, msg in sorted(due, key=lambda item: (item[0], item[1])):
                self._transmit(msg)
            time.sleep(self._TICK)

    # -- pass-through ----------------------------------------------------------

    def recv(self):
        return self._channel.recv()

    def close(self) -> None:
        self._closed = True
        self._channel.close()

    @property
    def closed(self) -> bool:
        return getattr(self._channel, "closed", self._closed)


class ScanNoiseHost:
    """Wraps a FireSim *host* simulation with a noisy scan-chain read path.

    Models the §5.2 failure mode this PR defends against: bits read off the
    FPGA scan chain arrive flipped.  Only reads of ``scan_out`` are
    affected; everything else passes through.  Because the driver
    recirculates what it read, an undetected flip also corrupts the stored
    counter — exactly why the driver samples every bit twice before
    committing it back (see :class:`~repro.backends.firesim.driver.\
FireSimSimulation`).

    Two noise models, combinable:

    * ``flip_probability`` — each ``scan_out`` read independently flips
      with this probability (transient noise),
    * ``flip_reads`` — the reads at these 0-based ``scan_out`` read
      indices flip, deterministically.  With verification on, the driver
      samples each chain bit twice, so read ``2*k`` is bit ``k``'s first
      sample and ``2*k + 1`` its resample; flipping both defeats the
      sample-before-commit check and models the documented p² residual.
    """

    def __init__(
        self,
        sim,
        flip_probability: float,
        seed: int = 0,
        flip_reads=None,
    ) -> None:
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")
        self._sim = sim
        self.flip_probability = flip_probability
        self.flip_reads = frozenset(flip_reads or ())
        self._rng = random.Random(f"{seed}:scan-noise")
        self.reads = 0
        self.flips = 0

    def __getattr__(self, name):
        return getattr(self._sim, name)

    @property
    def stop_latch(self):
        """The host's stop latch (set through, not shadowed, by the driver)."""
        return self._sim.stop_latch

    @stop_latch.setter
    def stop_latch(self, latch) -> None:
        self._sim.stop_latch = latch

    def peek(self, port: str) -> int:
        value = self._sim.peek(port)
        if port != "scan_out":
            return value
        index = self.reads
        self.reads += 1
        if index in self.flip_reads or self._rng.random() < self.flip_probability:
            self.flips += 1
            return value ^ 1
        return value
