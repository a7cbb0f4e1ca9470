"""AFL-style coverage-directed mutational fuzzing engine (§5.4).

Reproduces the paper's setup: the AFL algorithm (queue of interesting
inputs, deterministic + havoc mutation stages, bucketized coverage bitmap)
driven by cover counts from any instrumented metric.  "The coverage counts
serve as direct feedback to AFL instead of going to a report generator."

Counts are bucketized into AFL's 8 hit-count classes before novelty
detection, so seeing a branch 5 times vs 6 times is not "new", but 1 vs 8
is — the classic AFL heuristic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..backends.api import CoverCounts
from . import mutations

#: AFL hit-count buckets: 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+
_BUCKET_LIMITS = (1, 2, 3, 7, 15, 31, 127)


def bucket(count: int) -> int:
    """Classify a hit count into an AFL bucket (0 = not hit)."""
    if count <= 0:
        return 0
    for index, limit in enumerate(_BUCKET_LIMITS, start=1):
        if count <= limit:
            return index
    return 8


#: ``bucket(count)`` for every count below 128; every larger count is 8
_BUCKET_OF = tuple(bucket(count) for count in range(128))


def bitmap_of(counts: CoverCounts) -> frozenset:
    """The (cover, bucket) pairs an execution touched."""
    table = _BUCKET_OF
    return frozenset(
        (name, table[c] if c < 128 else 8) for name, c in counts.items() if c > 0
    )


@dataclass
class QueueEntry:
    data: bytes
    coverage: frozenset
    execution: int


@dataclass
class FuzzStats:
    """Progress log: one record per execution."""

    executions: int = 0
    queue_size: int = 0
    #: (execution index, cumulative covered point count) whenever it grew
    coverage_curve: list[tuple[int, int]] = field(default_factory=list)
    covered: set = field(default_factory=set)

    def record(self, execution: int, counts: CoverCounts) -> bool:
        grew = False
        for name, count in counts.items():
            if count > 0 and name not in self.covered:
                self.covered.add(name)
                grew = True
        if grew:
            self.coverage_curve.append((execution, len(self.covered)))
        return grew

    def coverage_at(self, execution: int) -> int:
        """Cumulative covered points after ``execution`` runs."""
        result = 0
        for exec_index, covered in self.coverage_curve:
            if exec_index > execution:
                break
            result = covered
        return result


class AflFuzzer:
    """The fuzzing loop.

    Args:
        execute: byte string -> cover counts for that run.
        feedback: filters counts down to the metric driving the search
            (identity = use everything).  ``None`` disables feedback
            entirely — the random-fuzzing baseline.
        track: filters counts down to the metric used for *evaluation*
            (Figure 11 tracks line coverage regardless of feedback).
        execute_batch: list of byte strings -> index-aligned list of
            cover counts (e.g. ``FuzzHarness.execute_batch`` over swarm
            lanes).  Enables ``run(..., batch=N)``.
    """

    def __init__(
        self,
        execute: Callable[[bytes], CoverCounts],
        feedback: Optional[Callable[[CoverCounts], CoverCounts]] = None,
        track: Optional[Callable[[CoverCounts], CoverCounts]] = None,
        seeds: Iterable[bytes] = (b"\x00" * 16,),
        seed: int = 0,
        execute_batch: Optional[
            Callable[[list[bytes]], list[CoverCounts]]
        ] = None,
    ) -> None:
        self.execute = execute
        self.execute_batch = execute_batch
        self.feedback = feedback
        self.track = track if track is not None else (lambda c: c)
        self.rng = random.Random(seed)
        self.queue: list[QueueEntry] = []
        self.seen_bitmap: set = set()
        self.stats = FuzzStats()
        self._seeds = list(seeds)

    def _ingest(self, data: bytes, counts: CoverCounts) -> bool:
        """Account one executed input; returns True on new coverage."""
        self.stats.executions += 1
        execution = self.stats.executions
        tracked = self.track(counts)
        self.stats.record(execution, tracked)
        if self.feedback is None:
            return False
        # evaluation and feedback usually share one filter: run it once
        fed = tracked if self.track is self.feedback else self.feedback(counts)
        coverage = bitmap_of(fed)
        new_pairs = coverage - self.seen_bitmap
        if new_pairs:
            self.seen_bitmap.update(new_pairs)
            self.queue.append(QueueEntry(data, coverage, execution))
            self.stats.queue_size = len(self.queue)
            return True
        return False

    def _run_one(self, data: bytes) -> bool:
        """Execute an input; returns True if it found new coverage."""
        return self._ingest(data, self.execute(data))

    def _run_batch(self, batch: list[bytes]) -> None:
        """Execute a batch in one backend call, ingest in queue order."""
        for data, counts in zip(batch, self.execute_batch(batch)):
            self._ingest(data, counts)

    def run(self, max_executions: int, batch: int = 1) -> FuzzStats:
        """Fuzz until the execution budget is exhausted.

        ``batch`` > 1 (requires ``execute_batch``) groups that many
        pending inputs per backend call — swarm lanes make them one
        packed simulation.  Mutations for a batch are derived from the
        queue as it stood when the batch was assembled, so the schedule
        can diverge from ``batch=1`` even though per-input counts are
        bit-identical; coverage feedback still lands before the next
        batch is drawn.
        """
        if batch > 1 and self.execute_batch is not None:
            return self._run_batched(max_executions, batch)
        for seed_data in self._seeds:
            if self.stats.executions >= max_executions:
                return self.stats
            self._run_one(seed_data)
        if self.feedback is None:
            # no feedback: pure random mutation of the seeds
            while self.stats.executions < max_executions:
                base = self.rng.choice(self._seeds)
                self._run_one(mutations.havoc(base, self.rng))
            return self.stats
        if not self.queue:
            self.queue.append(QueueEntry(self._seeds[0], frozenset(), 0))
        cursor = 0
        while self.stats.executions < max_executions:
            entry = self.queue[cursor % len(self.queue)]
            cursor += 1
            # a light deterministic stage on fresh queue entries
            for mutated in mutations.bitflips(entry.data):
                if self.stats.executions >= max_executions:
                    return self.stats
                self._run_one(mutated)
                break  # only a taste — havoc drives most progress
            for _ in range(16):
                if self.stats.executions >= max_executions:
                    return self.stats
                self._run_one(mutations.havoc(entry.data, self.rng))
        return self.stats

    def _run_batched(self, max_executions: int, batch: int) -> FuzzStats:
        """The ``run`` loop restructured around ``execute_batch`` calls."""
        pending: list[bytes] = []

        def budget() -> int:
            return max_executions - self.stats.executions - len(pending)

        def flush(limit: int = 1) -> None:
            while len(pending) >= limit and pending:
                self._run_batch(pending[:batch])
                del pending[:batch]

        for seed_data in self._seeds:
            if budget() <= 0:
                break
            pending.append(seed_data)
            flush(batch)
        flush()
        if self.feedback is None:
            while budget() > 0:
                base = self.rng.choice(self._seeds)
                pending.append(mutations.havoc(base, self.rng))
                flush(batch)
            flush()
            return self.stats
        if not self.queue:
            self.queue.append(QueueEntry(self._seeds[0], frozenset(), 0))
        cursor = 0
        while budget() > 0:
            entry = self.queue[cursor % len(self.queue)]
            cursor += 1
            for mutated in mutations.bitflips(entry.data):
                if budget() <= 0:
                    break
                pending.append(mutated)
                break  # only a taste — havoc drives most progress
            for _ in range(16):
                if budget() <= 0:
                    break
                pending.append(mutations.havoc(entry.data, self.rng))
            flush(batch)
        flush()
        return self.stats
