"""Shard files: atomic writes, round trips, and malformed-file handling."""

import json
from pathlib import Path

import pytest

from repro.runtime import Checkpointer, Executor, RunJob, Shard, ShardError


def indented_json(shard):
    """``shard`` in the indented layout older writers produced."""
    return json.dumps(
        {
            "version": 1,
            "job_id": shard.job_id,
            "backend": shard.backend,
            "cycle": shard.cycle,
            "complete": shard.complete,
            "counts": shard.counts,
            "origin": shard.origin,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"


class TestShardRoundTrip:
    def test_roundtrip(self, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=10)
        shard = Shard("job-1", "treadle", 40, {"a.b": 3, "c": 0}, complete=False)
        path = checkpointer.write(shard)
        assert path.exists()
        loaded = checkpointer.load("job-1")
        assert loaded is not None
        assert loaded.job_id == "job-1"
        assert loaded.backend == "treadle"
        assert loaded.cycle == 40
        assert loaded.counts == {"a.b": 3, "c": 0}
        assert not loaded.complete
        assert loaded.path == str(path)

    def test_overwrite_keeps_latest(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        checkpointer.write(Shard("j", "b", 10, {"x": 1}))
        checkpointer.write(Shard("j", "b", 20, {"x": 2}))
        assert checkpointer.load("j").cycle == 20
        # exactly one shard file — no temp litter
        assert len(list(tmp_path.iterdir())) == 1

    def test_load_missing_returns_none(self, tmp_path):
        assert Checkpointer(tmp_path).load("ghost") is None

    def test_job_ids_are_sanitized_for_filenames(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.write(Shard("a/b c:d", "b", 1, {}))
        assert path.parent == tmp_path

    def test_checkpoint_period_validation(self, tmp_path):
        with pytest.raises(ValueError, match=">= 0"):
            Checkpointer(tmp_path, every=-1)
        cp = Checkpointer(tmp_path, every=25)
        assert not cp.due(24) and cp.due(25) and not cp.due(26) and cp.due(50)
        assert not Checkpointer(tmp_path, every=0).due(100)


class TestCompactFormat:
    def test_compact_shard_round_trips(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        shard = Shard("j", "c", 800, {"top.a": 3, "top.b": 0}, complete=True,
                      origin="w1#4")
        path = checkpointer.write(shard)
        text = path.read_text()
        # one line of JSON, no indentation, and the same value as before
        assert text.count("\n") == 1 and text.endswith("\n")
        assert ": " not in text and ", " not in text
        assert json.loads(text) == json.loads(indented_json(shard))
        loaded = checkpointer.load("j")
        assert (loaded.job_id, loaded.backend, loaded.cycle, loaded.counts,
                loaded.complete, loaded.origin) == (
            "j", "c", 800, {"top.a": 3, "top.b": 0}, True, "w1#4")

    def test_indented_shard_loads_resumes_and_merges(self, tmp_path):
        """A shard in the older indented layout still loads, lets a
        resumed campaign skip its job, and merges."""
        checkpointer = Checkpointer(tmp_path)
        done = Shard("old", "treadle", 60, {"a": 2, "b": 0}, complete=True)
        checkpointer.shard_path("old").write_text(indented_json(done))
        shards, unreadable = checkpointer.load_all()
        assert unreadable == [] and [s.counts for s in shards] == [done.counts]

        def never_called():
            raise AssertionError("a resumed job must not re-simulate")

        result = Executor(checkpointer=checkpointer).run_campaign(
            [RunJob("old", "treadle", never_called, 60)],
            known_names=["a", "b"], resume=True,
        )
        assert [o.status for o in result.outcomes] == ["resumed"]
        assert result.merged == {"a": 2, "b": 0}
        assert not result.quarantine.quarantined


class TestDowngradeGuard:
    def test_incomplete_never_overwrites_complete(self, tmp_path):
        """A straggler attempt's periodic snapshot cannot downgrade a
        finished job's shard to a stale partial one."""
        cp = Checkpointer(tmp_path)
        cp.write(Shard("j", "b", 60, {"x": 4}, complete=True))
        refused = cp.write(Shard("j", "b", 30, {"x": 1}, complete=False))
        assert refused is None
        kept = cp.load("j")
        assert kept.complete and kept.cycle == 60 and kept.counts == {"x": 4}

    def test_complete_may_overwrite_complete(self, tmp_path):
        cp = Checkpointer(tmp_path)
        cp.write(Shard("j", "b", 60, {"x": 4}, complete=True))
        assert cp.write(Shard("j", "b", 80, {"x": 9}, complete=True)) is not None
        assert cp.load("j").cycle == 80

    def test_incomplete_may_overwrite_incomplete(self, tmp_path):
        cp = Checkpointer(tmp_path)
        cp.write(Shard("j", "b", 10, {"x": 1}, complete=False))
        assert cp.write(Shard("j", "b", 20, {"x": 2}, complete=False)) is not None
        assert cp.load("j").cycle == 20

    def test_corrupt_file_may_be_overwritten(self, tmp_path):
        cp = Checkpointer(tmp_path)
        cp.shard_path("j").write_text("garbage")
        assert cp.write(Shard("j", "b", 10, {"x": 1})) is not None
        assert cp.load("j").cycle == 10

    def test_refused_after_own_complete_write(self, tmp_path):
        cp = Checkpointer(tmp_path)
        for cycle in (10, 20):
            assert cp.write(Shard("j", "b", cycle, {"x": cycle})) is not None
        cp.write(Shard("j", "b", 40, {"x": 40}, complete=True))
        assert cp.write(Shard("j", "b", 50, {"x": 50})) is None
        assert cp.load("j").cycle == 40

    def test_refused_after_another_checkpointers_complete_write(self, tmp_path):
        first, second = Checkpointer(tmp_path), Checkpointer(tmp_path)
        first.write(Shard("j", "b", 10, {"x": 1}))
        second.write(Shard("j", "b", 60, {"x": 6}, complete=True))
        assert first.write(Shard("j", "b", 20, {"x": 2})) is None
        kept = first.load("j")
        assert kept.complete and kept.cycle == 60

    def test_refused_for_a_path_first_touched_on_disk(self, tmp_path):
        cp = Checkpointer(tmp_path)
        done = Shard("j", "b", 60, {"x": 6}, complete=True)
        cp.shard_path("j").write_text(done.to_json() + "\n")
        assert cp.write(Shard("j", "b", 20, {"x": 2})) is None
        assert cp.load("j").cycle == 60

    def test_refused_after_own_incomplete_shard_was_replaced(self, tmp_path):
        """Another writer rewrites this instance's incomplete shard in
        place with a complete one."""
        cp = Checkpointer(tmp_path)
        path = cp.write(Shard("j", "b", 10, {"x": 1}))
        path.write_text(Shard("j", "b", 60, {"x": 6}, complete=True).to_json())
        assert cp.write(Shard("j", "b", 20, {"x": 2})) is None
        assert cp.load("j").cycle == 60


class TestMalformedShards:
    @pytest.mark.parametrize(
        "text,detail",
        [
            ("{not json", "not valid JSON"),
            ("[]", "expected a JSON object"),
            ('{"version": 99}', "unsupported version"),
            ('{"version": 1, "job_id": "j"}', "mistyped field"),
            (
                json.dumps({"version": 1, "job_id": "j", "backend": "b",
                            "cycle": "soon", "complete": False, "counts": {}}),
                "cycle",
            ),
        ],
    )
    def test_bad_shard_raises_shard_error(self, tmp_path, text, detail):
        path = tmp_path / "bad.shard.json"
        path.write_text(text)
        with pytest.raises(ShardError, match=detail):
            Checkpointer(tmp_path).load("bad")

    def test_load_all_separates_good_from_unreadable(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        checkpointer.write(Shard("good", "b", 5, {"k": 1}, complete=True))
        (tmp_path / "evil.shard.json").write_text("garbage")
        shards, unreadable = checkpointer.load_all()
        assert [s.job_id for s in shards] == ["good"]
        assert len(unreadable) == 1
        path, error = unreadable[0]
        assert "evil" in path and "not valid JSON" in error

    def test_load_all_quarantines_oserror(self, tmp_path, monkeypatch):
        """An unreadable file (permissions, transient FS error) is reported
        as unreadable, not raised into the campaign."""
        checkpointer = Checkpointer(tmp_path)
        checkpointer.write(Shard("good", "b", 5, {"k": 1}, complete=True))
        checkpointer.write(Shard("locked", "b", 5, {"k": 1}, complete=True))
        real = Path.read_text

        def read_text(self, *args, **kwargs):
            if "locked" in self.name:
                raise PermissionError(f"denied: {self}")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_text)
        shards, unreadable = checkpointer.load_all()
        assert [s.job_id for s in shards] == ["good"]
        assert len(unreadable) == 1
        path, error = unreadable[0]
        assert "locked" in path and "denied" in error
