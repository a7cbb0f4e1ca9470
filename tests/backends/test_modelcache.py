"""Content-addressed model cache: keys, tiers, corruption, cross-process."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backends import (
    CacheEntry,
    ModelCache,
    TreadleBackend,
    VerilatorBackend,
    cache_key,
    circuit_fingerprint,
    default_cache,
    set_default_cache,
)
from repro.backends.modelcache import CACHE_SUFFIX, compile_cached
from repro.backends.pycodegen import CODEGEN_VERSION
from repro.coverage import instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def gcd_state():
    state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line"])
    return state


@pytest.fixture(scope="module")
def other_state():
    state, _ = instrument(elaborate(Gcd(width=4)), metrics=["line"])
    return state


class TestCacheKey:
    def test_fingerprint_stable_for_same_circuit(self, gcd_state):
        assert circuit_fingerprint(gcd_state) == circuit_fingerprint(gcd_state)

    def test_fingerprint_differs_for_different_circuits(self, gcd_state, other_state):
        assert circuit_fingerprint(gcd_state) != circuit_fingerprint(other_state)

    def test_key_mixes_backend_width_and_options(self, gcd_state):
        base = cache_key(gcd_state, "treadle")
        assert base == cache_key(gcd_state, "treadle")
        assert cache_key(gcd_state, "verilator") != base
        assert cache_key(gcd_state, "treadle", counter_width=8) != base
        assert cache_key(gcd_state, "treadle", options=("jit",)) != base


class TestTwoTierCache:
    def test_miss_then_memory_hit(self, tmp_path, gcd_state):
        cache = ModelCache(tmp_path)
        backend = TreadleBackend(cache=cache)
        first = backend.compile_state(gcd_state)
        assert (cache.misses, cache.hits) == (1, 0)
        second = backend.compile_state(gcd_state)
        assert (cache.misses, cache.hits) == (1, 1)
        # the exec'd class is memoized on the shared entry
        assert first._cls is second._cls

    def test_disk_hit_after_memory_cleared(self, tmp_path, gcd_state):
        cache = ModelCache(tmp_path)
        backend = TreadleBackend(cache=cache)
        backend.compile_state(gcd_state)
        cache.clear_memory()
        sim = backend.compile_state(gcd_state)
        assert (cache.misses, cache.hits) == (1, 1)
        sim.poke("req_valid", 1)
        sim.poke("req_bits", (9 << 8) | 6)
        sim.step(30)
        assert sum(sim.cover_counts().values()) > 0

    def test_memory_only_cache_has_no_disk_tier(self, gcd_state):
        cache = ModelCache(directory=None)
        backend = VerilatorBackend(cache=cache)
        backend.compile_state(gcd_state)
        cache.clear_memory()
        backend.compile_state(gcd_state)
        assert cache.misses == 2  # nothing survives a memory clear

    def test_lru_eviction_bounded_but_disk_covers(self, tmp_path, gcd_state, other_state):
        cache = ModelCache(tmp_path, max_entries=1)
        backend = VerilatorBackend(cache=cache)
        backend.compile_state(gcd_state)
        backend.compile_state(other_state)  # evicts the first from memory
        assert len(cache._lru) == 1
        backend.compile_state(gcd_state)  # reloaded from disk, not rebuilt
        assert cache.misses == 2
        assert cache.hits == 1

    def test_rejects_bad_max_entries(self):
        with pytest.raises(ValueError):
            ModelCache(max_entries=0)


class TestCorruptionRecovery:
    def _entry_file(self, cache, gcd_state, backend):
        key = cache_key(
            gcd_state, backend.name, counter_width=None, options=("jit",)
        )
        path = cache.entry_path(key)
        assert path is not None and path.exists()
        return path

    def test_truncated_entry_recompiles_and_overwrites(self, tmp_path, gcd_state):
        cache = ModelCache(tmp_path)
        backend = TreadleBackend(cache=cache)
        backend.compile_state(gcd_state)
        path = self._entry_file(cache, gcd_state, backend)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        cache.clear_memory()
        sim = backend.compile_state(gcd_state)  # must not crash
        assert cache.misses == 2
        assert sim.step(5).cycles == 5
        # the fresh compile atomically replaced the torn file
        cache.clear_memory()
        backend.compile_state(gcd_state)
        assert cache.hits == 1

    def test_garbage_entry_is_a_miss_not_a_crash(self, tmp_path, gcd_state):
        cache = ModelCache(tmp_path)
        backend = TreadleBackend(cache=cache)
        backend.compile_state(gcd_state)
        path = self._entry_file(cache, gcd_state, backend)
        path.write_bytes(b"\x00not a pickle at all")
        cache.clear_memory()
        backend.compile_state(gcd_state)
        assert cache.misses == 2

    def test_wrong_payload_shape_is_a_miss(self, tmp_path, gcd_state):
        cache = ModelCache(tmp_path)
        backend = TreadleBackend(cache=cache)
        backend.compile_state(gcd_state)
        path = self._entry_file(cache, gcd_state, backend)
        path.write_bytes(pickle.dumps(["unexpected", "payload"]))
        cache.clear_memory()
        backend.compile_state(gcd_state)
        assert cache.misses == 2

    def test_stale_codegen_version_invalidates(self, tmp_path, gcd_state):
        cache = ModelCache(tmp_path)
        backend = TreadleBackend(cache=cache)
        backend.compile_state(gcd_state)
        path = self._entry_file(cache, gcd_state, backend)
        payload = pickle.loads(path.read_bytes())
        payload["codegen_version"] = CODEGEN_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        cache.clear_memory()
        backend.compile_state(gcd_state)
        assert cache.misses == 2

    def test_renamed_file_is_not_trusted(self, tmp_path, gcd_state, other_state):
        cache = ModelCache(tmp_path)
        backend = VerilatorBackend(cache=cache)
        backend.compile_state(gcd_state)
        src = next(tmp_path.glob(f"*{CACHE_SUFFIX}"))
        wrong_key = cache_key(other_state, "verilator")
        os.replace(src, cache.entry_path(wrong_key))
        cache.clear_memory()
        backend.compile_state(other_state)  # recorded key mismatches file name
        assert cache.misses == 2


class TestDefaultCache:
    def test_install_and_restore(self, tmp_path, gcd_state):
        cache = ModelCache(tmp_path)
        previous = set_default_cache(cache)
        try:
            assert default_cache() is cache
            TreadleBackend().compile_state(gcd_state)
            assert cache.misses == 1
        finally:
            set_default_cache(previous)
        assert default_cache() is previous

    def test_compile_cached_without_cache_always_builds(self, gcd_state):
        calls = []

        def build():
            calls.append(1)
            return CacheEntry(key="", backend="x", model=None)

        compile_cached(gcd_state, "x", build, cache=None)
        compile_cached(gcd_state, "x", build, cache=None)
        assert len(calls) == 2


# -- cross-process differential: disk hit must be bit-identical ------------------

_CHILD_SCRIPT = """
import json, random, sys
sys.path.insert(0, {src!r})
from repro.backends import BACKENDS, ModelCache
from repro.cli import _bundled_designs

cache_dir, out_path = sys.argv[1], sys.argv[2]
cache = ModelCache(cache_dir)
results = {{}}
for name, circuit in sorted(_bundled_designs().items()):
    for backend_name in ("treadle", "verilator"):
        backend = BACKENDS[backend_name](cache=cache)
        sim = backend.compile(circuit)
        rng = random.Random(1234)
        inputs = [p.name for p in circuit.top.inputs if p.name != "clock"]
        widths = {{p.name: getattr(p.type, "width", 1) or 1
                   for p in circuit.top.inputs}}
        for cycle in range(40):
            for port in inputs:
                value = 1 if (port == "reset" and cycle < 2) else (
                    0 if port == "reset" else rng.getrandbits(widths[port]))
                sim.poke(port, value)
            sim.step(1)
        peeks = {{p.name: sim.peek(p.name) for p in circuit.top.outputs}}
        results[f"{{name}}/{{backend_name}}"] = {{
            "counts": sim.cover_counts(), "peeks": peeks,
        }}
assert cache.misses == 0, f"disk cache missed {{cache.misses}} times"
with open(out_path, "w") as handle:
    json.dump(results, handle)
"""


@pytest.mark.slow
def test_cache_hit_model_is_bit_identical_across_processes(tmp_path):
    """A second process loading every bundled design from disk must agree
    bit-for-bit (cover counts and output peeks) with the cold compile."""
    from repro.cli import _bundled_designs
    from repro.backends import BACKENDS

    cache_dir = tmp_path / "cache"
    cache = ModelCache(cache_dir)
    expected = {}
    import random

    for name, circuit in sorted(_bundled_designs().items()):
        for backend_name in ("treadle", "verilator"):
            backend = BACKENDS[backend_name](cache=cache)
            sim = backend.compile(circuit)
            rng = random.Random(1234)
            inputs = [p.name for p in circuit.top.inputs if p.name != "clock"]
            widths = {
                p.name: getattr(p.type, "width", 1) or 1
                for p in circuit.top.inputs
            }
            for cycle in range(40):
                for port in inputs:
                    value = 1 if (port == "reset" and cycle < 2) else (
                        0 if port == "reset" else rng.getrandbits(widths[port]))
                    sim.poke(port, value)
                sim.step(1)
            peeks = {p.name: sim.peek(p.name) for p in circuit.top.outputs}
            expected[f"{name}/{backend_name}"] = {
                "counts": dict(sim.cover_counts()), "peeks": peeks,
            }
    assert cache.hits == 0  # every model above was a cold compile

    out_path = tmp_path / "child.json"
    script = tmp_path / "replay.py"
    script.write_text(_CHILD_SCRIPT.format(src=SRC))
    subprocess.run(
        [sys.executable, str(script), str(cache_dir), str(out_path)],
        check=True,
        timeout=600,
    )
    got = json.loads(out_path.read_text())
    assert got == expected
