"""Periodic cover-count checkpoints (shards) for fault-tolerant campaigns.

A *shard* is one job's contribution to a merged coverage report: the cover
counts it has accumulated so far, plus enough metadata to validate and
re-merge it later.  The executor writes a shard every K cycles, so a job
that crashes or hangs mid-run still contributes its last-good counts, and
an interrupted campaign can resume from the shard directory instead of
restarting from cycle 0.

Shard files are written atomically (write to a temp file in the same
directory, then ``os.replace``) so a crash *during* a checkpoint can never
leave a half-written shard behind — the worst case is a stale-but-valid
previous checkpoint.  A shard is one line of compact JSON (sorted keys, no
indentation), which CPython encodes in C; readers accept any layout of the
same JSON value, so indented shards from older writers still load.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..backends.api import CoverCounts
from .telemetry import obs

#: shard file format version
SHARD_VERSION = 1

SHARD_SUFFIX = ".shard.json"


class ShardError(ValueError):
    """A shard file on disk is unreadable or malformed."""


@dataclass
class Shard:
    """One job's (possibly partial) cover counts plus provenance.

    ``origin`` records *where* the counts were produced — empty for the
    local pool, ``"<worker id>#<fencing token>"`` for a shard a cluster
    worker computed under a lease.  Purely diagnostic provenance: merges
    and validation ignore it, and shards written before the field existed
    read back with the empty default.
    """

    job_id: str
    backend: str
    cycle: int
    counts: CoverCounts
    complete: bool = False
    path: Optional[str] = None
    origin: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": SHARD_VERSION,
                "job_id": self.job_id,
                "backend": self.backend,
                "cycle": self.cycle,
                "complete": self.complete,
                "counts": self.counts,
                "origin": self.origin,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str, path: Optional[str] = None) -> "Shard":
        where = f" in {path}" if path else ""

        def fail(detail: str) -> ShardError:
            return ShardError(f"bad shard{where}: {detail}")

        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise fail(f"not valid JSON ({error})") from error
        if not isinstance(data, dict):
            raise fail(f"expected a JSON object, got {type(data).__name__}")
        version = data.get("version")
        if version != SHARD_VERSION:
            raise fail(f"unsupported version {version!r} (expected {SHARD_VERSION})")
        for key, kind in (("job_id", str), ("backend", str), ("cycle", int),
                          ("complete", bool), ("counts", dict)):
            if not isinstance(data.get(key), kind):
                raise fail(f"missing or mistyped field {key!r}")
        origin = data.get("origin", "")
        if not isinstance(origin, str):
            raise fail("mistyped field 'origin'")
        return Shard(
            job_id=data["job_id"],
            backend=data["backend"],
            cycle=data["cycle"],
            counts=dict(data["counts"]),
            complete=data["complete"],
            path=path,
            origin=origin,
        )


@dataclass
class Checkpointer:
    """Writes and reads a directory of per-job shard files.

    ``every`` is the checkpoint period in cycles (0 disables periodic
    checkpoints; final shards are still written on job completion).
    ``fsync`` makes each shard durable before the atomic rename — the
    coverage service turns it on so a power cut cannot surface a rename
    pointing at unwritten data; the CLI default stays off (``os.replace``
    atomicity alone already covers process crashes).  ``campaign`` labels
    this checkpointer's metrics with the owning service campaign (empty
    outside the service).  ``os_module`` is the fault-injection seam
    (:class:`~repro.runtime.faults.FaultyOS`).
    """

    directory: Path
    every: int = 0
    fsync: bool = False
    campaign: str = ""
    os_module: object = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.every < 0:
            raise ValueError(f"checkpoint period must be >= 0, got {self.every}")
        self._os = self.os_module if self.os_module is not None else os
        self.directory.mkdir(parents=True, exist_ok=True)

    def shard_path(self, job_id: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in job_id)
        return self.directory / f"{safe}{SHARD_SUFFIX}"

    def due(self, cycle: int) -> bool:
        """Whether a checkpoint should be written after ``cycle`` cycles."""
        return self.every > 0 and cycle % self.every == 0

    def next_due(self, cycle: int) -> int:
        """The first checkpoint boundary strictly after ``cycle``.

        Lets batched drivers size a ``step(n)`` block so it lands exactly
        on the boundary instead of stepping past it.  Undefined (raises)
        when periodic checkpoints are off — callers must check ``every``.
        """
        if self.every <= 0:
            raise ValueError("next_due requires a periodic checkpointer")
        return (cycle // self.every + 1) * self.every

    def write(self, shard: Shard) -> Optional[Path]:
        """Atomically persist ``shard``; returns the shard file path.

        An incomplete (periodic) shard never overwrites a complete one for
        the same job: once a job has a final shard on disk, a straggler
        attempt — e.g. a timed-out thread the watchdog abandoned that later
        unwedges — cannot downgrade it to a stale partial snapshot.  A
        refused write returns ``None``.
        """
        path = self.shard_path(shard.job_id)
        with obs.span(
            "checkpoint", cat="run", job=shard.job_id, cycle=shard.cycle
        ):
            with self._lock:
                if not shard.complete and self._has_complete_shard(path):
                    if obs.enabled:
                        obs.inc("repro_checkpoint_writes_total",
                                result="refused", campaign=self.campaign)
                    return None
                fd, tmp = tempfile.mkstemp(
                    dir=self.directory, prefix=path.name, suffix=".tmp"
                )
                closed = False
                try:
                    data = (shard.to_json() + "\n").encode("utf-8")
                    view = memoryview(data)
                    while view:
                        view = view[self._os.write(fd, view):]
                    if self.fsync:
                        self._os.fsync(fd)
                    self._os.close(fd)
                    closed = True
                    self._os.replace(tmp, path)
                except BaseException:
                    # A failed or torn temp write never touches the real
                    # shard: the rename is skipped and the temp is litter
                    # at worst (unlinked here when the process survives).
                    if not closed:
                        try:
                            self._os.close(fd)
                        except OSError:
                            pass
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        if obs.enabled:
            obs.inc("repro_checkpoint_writes_total",
                    result="written", campaign=self.campaign)
        shard.path = str(path)
        return path

    @staticmethod
    def _has_complete_shard(path: Path) -> bool:
        """Whether a valid, complete shard already sits at ``path``."""
        try:
            return Shard.from_json(path.read_text(), path=str(path)).complete
        except FileNotFoundError:
            return False
        except (ShardError, OSError):
            return False  # unreadable/corrupt: overwriting it is fine

    def load(self, job_id: str) -> Optional[Shard]:
        """The job's last checkpoint, or None if it never wrote one."""
        path = self.shard_path(job_id)
        if not path.exists():
            return None
        return Shard.from_json(path.read_text(), path=str(path))

    def load_all(self) -> tuple[list[Shard], list[tuple[str, str]]]:
        """Read every shard in the directory.

        Returns ``(shards, unreadable)`` where ``unreadable`` pairs a file
        path with the parse/read error — the campaign quarantines those
        rather than aborting, whether the file is malformed (ShardError)
        or simply unreadable (permissions, transient FS issues).
        """
        shards: list[Shard] = []
        unreadable: list[tuple[str, str]] = []
        for path in sorted(self.directory.glob(f"*{SHARD_SUFFIX}")):
            try:
                shards.append(Shard.from_json(path.read_text(), path=str(path)))
            except (ShardError, OSError) as error:
                unreadable.append((str(path), str(error)))
        return shards, unreadable
