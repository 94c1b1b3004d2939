"""Tests for the persistent content-addressed reliability cache."""

import networkx as nx
import pytest

from repro.engine import (
    ReliabilityCache,
    reliability_map,
    requirement_sweep,
    run_batch,
)
from repro.engine.cache import problem_digest
from repro.reliability import (
    ReliabilityProblem,
    failure_probability,
    get_reliability_cache,
    reliability_cache,
)
from repro.synthesis import explore_tradeoff, synthesize_ilp_ar
from tests.synthesis.test_ilp_mr import make_spec, make_template


def small_problem(p_sink=0.01):
    g = nx.DiGraph()
    g.add_node("G0", p=0.1)
    g.add_node("G1", p=0.1)
    g.add_node("L0", p=p_sink)
    g.add_edge("G0", "L0")
    g.add_edge("G1", "L0")
    return ReliabilityProblem(g, ("G0", "G1"), "L0")


def small_arch():
    t = make_template(2, p=1e-2)
    spec = make_spec(t, r_star=None)
    result = synthesize_ilp_ar(
        make_spec(t, r_star=1e-3), backend="scipy"
    )
    assert result.feasible
    return result.architecture


class TestProblemDigest:
    def test_independent_of_insertion_order(self):
        g1 = nx.DiGraph()
        g1.add_node("A", p=0.1)
        g1.add_node("B", p=0.2)
        g1.add_edge("A", "B")
        g2 = nx.DiGraph()
        g2.add_node("B", p=0.2)
        g2.add_node("A", p=0.1)
        g2.add_edge("A", "B")
        p1 = ReliabilityProblem(g1, ("A",), "B")
        p2 = ReliabilityProblem(g2, ("A",), "B")
        assert problem_digest(p1, "bdd") == problem_digest(p2, "bdd")

    def test_sensitive_to_probability_bits(self):
        a = small_problem(p_sink=0.01)
        b = small_problem(p_sink=0.01 + 1e-16)
        assert problem_digest(a, "bdd") != problem_digest(b, "bdd")

    def test_sensitive_to_method(self):
        p = small_problem()
        assert problem_digest(p, "bdd") != problem_digest(p, "sdp")

    def test_ignores_irrelevant_nodes(self):
        p = small_problem()
        g = p.graph.copy()
        g.add_node("orphan", p=0.5)
        augmented = ReliabilityProblem(g, p.sources, p.sink)
        assert problem_digest(p, "bdd") == problem_digest(augmented, "bdd")


class TestReliabilityCache:
    def test_memory_roundtrip_and_stats(self):
        cache = ReliabilityCache(None)
        problem = small_problem()
        assert cache.lookup(problem, "bdd") is None
        cache.store(problem, "bdd", 0.25)
        assert cache.lookup(problem, "bdd") == 0.25
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_sqlite_persists_across_instances(self, tmp_path):
        problem = small_problem()
        value = 0.123456789012345678  # exercises REAL round-trip precision
        with ReliabilityCache(tmp_path / "c") as first:
            first.store(problem, "bdd", value)
        with ReliabilityCache(tmp_path / "c") as second:
            got = second.lookup(problem, "bdd")
        assert got == value  # bit-identical
        with ReliabilityCache(tmp_path / "c") as third:
            assert len(third) == 1

    def test_hook_serves_cached_value(self):
        problem = small_problem()
        with reliability_cache(ReliabilityCache(None)) as cache:
            cold = failure_probability(problem, method="bdd")
            warm = failure_probability(problem, method="bdd")
            assert get_reliability_cache() is cache
        assert cold == warm
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert get_reliability_cache() is None

    def test_hook_value_matches_uncached(self):
        problem = small_problem()
        bare = failure_probability(problem, method="bdd")
        with reliability_cache(ReliabilityCache(None)):
            hooked = failure_probability(problem, method="bdd")
        assert hooked == bare


class TestCachedSweeps:
    LEVELS = [0.5, 1e-3]

    def test_warm_sweep_bit_identical_with_hits(self, tmp_path):
        spec = make_spec(make_template(2, p=1e-2), r_star=None)
        batch = requirement_sweep(spec, self.LEVELS, algorithm="mr",
                                  backend="scipy")
        cold = run_batch(batch, cache_dir=str(tmp_path / "relcache"))
        warm = run_batch(batch, cache_dir=str(tmp_path / "relcache"))
        assert cold.cache_hits == 0 or cold.cache_hits < warm.cache_hits
        assert warm.cache_hits > 0
        for a, b in zip(cold.values(), warm.values()):
            assert a.status == b.status
            assert a.cost == b.cost
            assert a.reliability == b.reliability  # bit-identical floats

    def test_explore_tradeoff_cached_matches_uncached(self, tmp_path):
        spec = make_spec(make_template(2, p=1e-2), r_star=None)
        plain = explore_tradeoff(spec, self.LEVELS, algorithm="mr",
                                 backend="scipy")
        cached = explore_tradeoff(spec, self.LEVELS, algorithm="mr",
                                  backend="scipy",
                                  cache_dir=str(tmp_path / "c"))
        rewarmed = explore_tradeoff(spec, self.LEVELS, algorithm="mr",
                                    backend="scipy",
                                    cache_dir=str(tmp_path / "c"))
        for a, b, c in zip(plain, cached, rewarmed):
            assert a.r_star == b.r_star == c.r_star
            assert a.cost == b.cost == c.cost
            assert a.reliability == b.reliability == c.reliability

    def test_cache_roundtrips_across_worker_processes(self, tmp_path):
        arch = small_arch()
        batch = reliability_map(arch, method="bdd")
        cache_dir = str(tmp_path / "xproc")
        first = run_batch(batch, jobs=2, cache_dir=cache_dir)
        assert first.num_failed == 0
        # Entries written by pool workers are visible to a fresh handle in
        # this (parent) process...
        with ReliabilityCache(cache_dir) as cache:
            assert len(cache) > 0
        # ...and a second parallel run is served from the shared file.
        second = run_batch(batch, jobs=2, cache_dir=cache_dir)
        assert second.cache_hits > 0
        assert second.values() == first.values()


class TestClosedConnectionDegradation:
    """A dead SQLite handle must degrade to the in-memory layer, never
    raise out of get/put/len (regression: a connection closed behind the
    cache's back used to propagate sqlite3.ProgrammingError into
    failure_probability)."""

    def test_get_put_len_survive_external_close(self, tmp_path):
        cache = ReliabilityCache(tmp_path / "c")
        problem = small_problem()
        cache.store(problem, "bdd", 0.25)
        cache._conn.close()  # closed behind the cache's back
        # get: falls back to the in-memory copy of the stored entry.
        assert cache.lookup(problem, "bdd") == 0.25
        # put: lands in memory, no exception.
        other = small_problem(p_sink=0.02)
        cache.store(other, "bdd", 0.5)
        assert cache.lookup(other, "bdd") == 0.5
        # len: counts the in-memory layer.
        assert len(cache) == 2
        cache.close()  # idempotent even though sqlite is already gone

    def test_closed_property(self, tmp_path):
        cache = ReliabilityCache(tmp_path / "c")
        assert not cache.closed
        cache.close()
        assert cache.closed
        memory = ReliabilityCache(None)
        assert not memory.closed  # nothing to close in memory-only mode

    def test_analysis_continues_after_close(self, tmp_path):
        problem = small_problem()
        cache = ReliabilityCache(tmp_path / "c")
        with reliability_cache(cache):
            cold = failure_probability(problem, method="bdd")
            cache._conn.close()
            warm = failure_probability(problem, method="bdd")
        assert warm == cold


class TestPayloadStorage:
    def test_payload_roundtrips_problem(self):
        from repro.engine.cache import problem_from_payload, problem_payload

        problem = small_problem(p_sink=0.01 + 1e-16)
        payload = problem_payload(problem, "bdd")
        back = problem_from_payload(payload)
        # Bit-exact probabilities and identical topology.
        assert problem_digest(back, "bdd") == problem_digest(problem, "bdd")
        for n in back.graph.nodes:
            assert back.graph.nodes[n]["p"] == problem.graph.nodes[n]["p"]

    def test_store_persists_payload(self, tmp_path):
        import json
        import sqlite3

        from repro.engine.cache import CACHE_FILENAME, payload_digest

        problem = small_problem()
        with ReliabilityCache(tmp_path / "c") as cache:
            cache.store(problem, "bdd", 0.25)
        conn = sqlite3.connect(str(tmp_path / "c" / CACHE_FILENAME))
        digest, blob = conn.execute(
            "SELECT digest, problem FROM reliability"
        ).fetchone()
        conn.close()
        assert blob is not None
        assert payload_digest(json.loads(blob)) == digest

    def test_migration_adds_problem_column(self, tmp_path):
        import sqlite3
        import time

        from repro.engine.cache import CACHE_FILENAME

        # A cache file from before the payload column existed.
        directory = tmp_path / "c"
        directory.mkdir()
        conn = sqlite3.connect(str(directory / CACHE_FILENAME))
        conn.execute(
            "CREATE TABLE reliability (digest TEXT PRIMARY KEY, "
            "method TEXT NOT NULL, value REAL NOT NULL, "
            "created_at REAL NOT NULL)"
        )
        conn.execute(
            "INSERT INTO reliability VALUES ('d1', 'bdd', 0.5, ?)",
            (time.time(),),
        )
        conn.commit()
        conn.close()
        with ReliabilityCache(directory) as cache:
            # Old entry still readable; new entries carry payloads.
            assert cache.get("d1") == 0.5
            cache.store(small_problem(), "bdd", 0.25)
            assert len(cache) == 2


class TestConcurrentServiceWorkers:
    """The WAL + busy-timeout configuration service workers rely on."""

    def test_wal_mode_and_busy_timeout_pragmas(self, tmp_path, monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "BUSY_TIMEOUT_MS", 12345)
        with ReliabilityCache(str(tmp_path)) as cache:
            (mode,) = cache._conn.execute(
                "PRAGMA journal_mode"
            ).fetchone()
            assert mode.lower() == "wal"
            (timeout,) = cache._conn.execute(
                "PRAGMA busy_timeout"
            ).fetchone()
            assert timeout == 12345

    def test_default_busy_timeout(self, tmp_path):
        with ReliabilityCache(str(tmp_path)) as cache:
            (timeout,) = cache._conn.execute(
                "PRAGMA busy_timeout"
            ).fetchone()
            assert timeout == 30_000

    def test_one_cache_shared_across_threads(self, tmp_path):
        """Worker threads share the process-wide cache instance; the
        connection must accept cross-thread use without sqlite errors."""
        import threading

        cache = ReliabilityCache(str(tmp_path))
        errors = []
        barrier = threading.Barrier(4)

        def worker(tid):
            try:
                barrier.wait(timeout=10)
                for i in range(50):
                    digest = f"t{tid}-{i}"
                    cache.put(digest, "bdd", float(i))
                    assert cache.get(digest) == float(i)
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
        assert not errors
        assert len(cache) == 200
        cache.close()
        # Everything persisted: a fresh instance sees all 200 entries.
        with ReliabilityCache(str(tmp_path)) as reopened:
            assert len(reopened) == 200

    def test_two_instances_same_file_interleave(self, tmp_path):
        """Two connections on one WAL file (the multi-process shape)."""
        a = ReliabilityCache(str(tmp_path))
        b = ReliabilityCache(str(tmp_path))
        try:
            a.put("shared-1", "bdd", 0.25)
            assert b.get("shared-1") == 0.25
            b.put("shared-2", "sdp", 0.5)
            assert a.get("shared-2") == 0.5
        finally:
            a.close()
            b.close()
