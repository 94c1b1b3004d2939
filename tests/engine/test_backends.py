"""Reliability cache layers: the LRU bound, concurrent opens of one
file, and memory/file equivalence.

Whether a value comes from the in-memory layer or the cache file, the
cache must hand back the *bit-identical* float — a sweep's results may
never depend on which cache configuration executed it.
"""

import multiprocessing

import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import MemoryLRU, ReliabilityCache, SQLiteStore
from repro.reliability import failure_probability
from repro.reliability.exact import reliability_cache
from repro.verify.corpus import corpus_cases


def _digest(i: int) -> str:
    return f"{i:064x}"


def _open_fresh_file(path, barrier, outcomes):
    barrier.wait()
    try:
        SQLiteStore(path).close()
    except Exception as exc:  # noqa: BLE001 - reported to the test
        outcomes.put(f"{type(exc).__name__}: {exc}")
    else:
        outcomes.put(None)


class TestConcurrentOpen:
    def test_processes_opening_one_fresh_file_all_succeed(self, tmp_path):
        """Regression: processes opening one fresh cache file together
        tripped over each other's schema migration (``duplicate column
        name: problem``) or WAL switch (``database is locked``), killing
        the pool or queue worker that lost the race."""
        ctx = multiprocessing.get_context()
        outcomes = ctx.Queue()
        errors = []
        for trial in range(20):
            path = tmp_path / f"fresh-{trial}.sqlite"
            barrier = ctx.Barrier(4)
            procs = [
                ctx.Process(target=_open_fresh_file,
                            args=(path, barrier, outcomes))
                for _ in range(4)
            ]
            for proc in procs:
                proc.start()
            errors += [outcomes.get(timeout=60) for _ in procs]
            for proc in procs:
                proc.join(timeout=60)
            assert [proc.exitcode for proc in procs] == [0] * len(procs)
        assert [e for e in errors if e] == []
        store = SQLiteStore(tmp_path / "fresh-0.sqlite")
        store.put(_digest(1), "bdd", 0.5, payload={"sink": "x"})
        assert store.get(_digest(1)) == 0.5
        store.close()


class TestMemoryLRU:
    def test_bound_evicts_oldest_first(self):
        lru = MemoryLRU(max_entries=3)
        for i in range(3):
            lru.put(_digest(i), float(i))
        # Touch 0 so 1 becomes the least recently used.
        assert lru.get(_digest(0)) == 0.0
        lru.put(_digest(3), 3.0)
        assert lru.evictions == 1
        assert lru.get(_digest(1)) is None
        assert lru.get(_digest(0)) == 0.0
        assert len(lru) == 3

    def test_first_write_wins_refreshes_recency(self):
        lru = MemoryLRU(max_entries=2)
        lru.put(_digest(0), 0.5)
        lru.put(_digest(1), 1.5)
        lru.put(_digest(0), 99.0)  # dup: value kept, recency bumped
        lru.put(_digest(2), 2.5)   # evicts 1, not 0
        assert lru.get(_digest(0)) == 0.5
        assert lru.get(_digest(1)) is None

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryLRU(max_entries=0)

    def test_cache_front_tier_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_MEMORY_ENTRIES", 4)
        cache = ReliabilityCache(str(tmp_path))
        with cache:
            for i in range(10):
                cache.put(_digest(i), "bdd", float(i))
            assert cache.memory_evictions == 6
            # Evicted entries re-read from the cache file, not lost.
            assert cache.get(_digest(0)) == 0.0
            assert len(cache) == 10

    def test_degraded_to_memory_stays_bounded(self, tmp_path, monkeypatch):
        # Regression: a broken cache file degrades the cache to its
        # memory layer, and the LRU bound must keep holding there.
        monkeypatch.setattr(cache_module, "MAX_MEMORY_ENTRIES", 3)
        cache = ReliabilityCache(str(tmp_path))
        cache.put(_digest(0), "bdd", 0.0)
        cache._conn.close()  # break the cache file behind its back
        for i in range(1, 8):
            cache.put(_digest(i), "bdd", float(i))
        assert cache.memory_evictions == 8 - 3
        assert len(cache._memory) == 3
        assert cache.get(_digest(7)) == 7.0
        assert cache.get(_digest(1)) is None  # evicted, file broken: miss


class TestCrossBackendEquivalence:
    """Memory-only and file-backed caches must be bit-identical."""

    def _cases(self):
        return [c for c in corpus_cases(include_eps=False)][:8]

    def test_corpus_values_bit_identical_across_backends(self, tmp_path):
        cases = self._cases()
        baseline = [failure_probability(c.problem, method="bdd")
                    for c in cases]

        configs = {"memory": None, "file": str(tmp_path / "file")}
        for name, cache_dir in configs.items():
            cache = ReliabilityCache(cache_dir)
            with cache, reliability_cache(cache):
                cold = [failure_probability(c.problem, method="bdd")
                        for c in cases]
                warm = [failure_probability(c.problem, method="bdd")
                        for c in cases]
            assert cold == baseline, f"{name} cold values diverged"
            assert warm == baseline, f"{name} warm values diverged"
            assert cache.stats.hits >= len(cases), name

    def test_warm_reopen_serves_identical_floats(self, tmp_path):
        cases = self._cases()
        values = {}
        with ReliabilityCache(str(tmp_path)) as cache, \
                reliability_cache(cache):
            for case in cases:
                values[case.name] = failure_probability(case.problem,
                                                        method="bdd")
        # Fresh process simulation: new cache object over the same file.
        with ReliabilityCache(str(tmp_path)) as warm, \
                reliability_cache(warm):
            for case in cases:
                again = failure_probability(case.problem, method="bdd")
                assert again.hex() == values[case.name].hex()
            assert warm.stats.hits == len(cases)
            assert warm.stats.misses == 0
