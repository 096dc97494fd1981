"""Run-level result cache: fingerprints, hits/misses, invalidation."""

import dataclasses
import os

import pytest

import repro.parallel as parallel
from repro.config import SystemConfig
from repro.parallel import (
    ResultCache,
    RunMetrics,
    RunSpec,
    execute_run_spec,
    resolve_cache,
    run_points,
    spec_fingerprint,
)


@pytest.fixture
def spec():
    return RunSpec(
        SystemConfig.protected().with_nodes(4).with_seed(3), "oltp", ops=30
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


class TestFingerprint:
    def test_stable_for_equal_specs(self, spec):
        clone = RunSpec(
            SystemConfig.protected().with_nodes(4).with_seed(3), "oltp", ops=30
        )
        assert spec_fingerprint(spec) == spec_fingerprint(clone)

    def test_sensitive_to_config_change(self, spec):
        for changed in (
            dataclasses.replace(spec, config=spec.config.with_seed(4)),
            dataclasses.replace(spec, config=spec.config.with_nodes(8)),
            dataclasses.replace(spec, config=SystemConfig.unprotected()
                                .with_nodes(4).with_seed(3)),
            dataclasses.replace(spec, workload="jbb"),
            dataclasses.replace(spec, ops=31),
        ):
            assert spec_fingerprint(changed) != spec_fingerprint(spec)

    def test_sensitive_to_code_version(self, spec, monkeypatch):
        before = spec_fingerprint(spec)
        monkeypatch.setattr(parallel, "_code_fp", "deadbeef" * 8)
        assert spec_fingerprint(spec) != before


class TestResultCache:
    def test_miss_then_hit(self, spec, cache):
        assert cache.get(spec) is None
        metrics = execute_run_spec(spec)
        cache.put(spec, metrics)
        assert cache.get(spec) == metrics
        assert (cache.hits, cache.misses) == (1, 1)

    def test_round_trip_is_bit_identical(self, spec, cache):
        fresh = execute_run_spec(spec)
        cache.put(spec, fresh)
        cached = cache.get(spec)
        assert cached == fresh
        assert dataclasses.asdict(cached) == dataclasses.asdict(fresh)
        assert all(
            type(v) is type(fresh.counters[k])
            for k, v in cached.counters.items()
        )

    def test_config_change_is_a_miss(self, spec, cache):
        cache.put(spec, execute_run_spec(spec))
        other = dataclasses.replace(spec, config=spec.config.with_seed(9))
        assert cache.get(other) is None

    def test_code_change_invalidates(self, spec, cache, monkeypatch):
        cache.put(spec, execute_run_spec(spec))
        monkeypatch.setattr(parallel, "_code_fp", "0" * 64)
        assert cache.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, spec, cache):
        cache.put(spec, execute_run_spec(spec))
        path = cache._path(spec)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(spec) is None

    def test_unregistered_result_type_not_stored(self, spec, cache):
        cache.put(spec, object())
        assert not os.path.exists(cache._path(spec))


class TestRunPointsWithCache:
    def test_second_sweep_served_from_cache(self, spec, cache):
        specs = [spec, dataclasses.replace(spec, ops=40)]
        first = run_points(specs, jobs=1, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        second = run_points(specs, jobs=1, cache=cache)
        assert (cache.hits, cache.misses) == (2, 2)
        assert first == second

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(
                RunSpec(config.with_nodes(4).with_seed(3), workload, ops=30),
                id=f"{name}-{workload}",
            )
            for name, config in (
                ("base", SystemConfig.unprotected()),
                ("dvmc", SystemConfig.protected()),
            )
            for workload in ("oltp", "jbb")
        ],
    )
    def test_cached_equals_uncached(self, spec, cache):
        cached = run_points([spec], jobs=1, cache=cache)
        fresh = run_points([spec], jobs=1)
        rehit = run_points([spec], jobs=1, cache=cache)
        assert cached == fresh == rehit

    def test_partial_hit_executes_only_misses(self, spec, cache):
        extra = dataclasses.replace(spec, workload="jbb")
        run_points([spec], jobs=1, cache=cache)
        calls = []

        def counting_worker(s):
            calls.append(s)
            return execute_run_spec(s)

        result = run_points(
            [spec, extra], jobs=1, worker=counting_worker, cache=cache
        )
        assert calls == [extra]
        assert result[0] == cache.get(spec)


class TestEviction:
    """LRU byte-budget eviction (REPRO_CACHE_MAX_MB)."""

    @staticmethod
    def _metrics(tag: int) -> RunMetrics:
        # Padded counters give every entry a predictable few-hundred-byte
        # footprint without running the simulator.
        return RunMetrics(
            cycles=tag,
            completed=True,
            violations=0,
            events_processed=tag,
            counters={f"pad.{i}": tag for i in range(40)},
        )

    @staticmethod
    def _specs(n):
        return [
            RunSpec(SystemConfig.protected().with_seed(s), "oltp", ops=10 + s)
            for s in range(n)
        ]

    def _age(self, cache, spec, seconds_ago):
        path = cache._path(spec)
        past = os.stat(path).st_mtime - seconds_ago
        os.utime(path, (past, past))

    def test_oldest_evicted_fresh_survive(self, tmp_path):
        specs = self._specs(4)
        cache = ResultCache(str(tmp_path / "cache"), max_bytes=10**9)
        for i, s in enumerate(specs[:3]):
            cache.put(s, self._metrics(i))
        # Age the first two entries (oldest first), then shrink the
        # budget to roughly two entries and trigger eviction.
        self._age(cache, specs[0], 300)
        self._age(cache, specs[1], 200)
        entry_size = os.path.getsize(cache._path(specs[0]))
        cache.max_bytes = entry_size * 2 + entry_size // 2
        cache.put(specs[3], self._metrics(3))
        assert cache.get(specs[0]) is None  # oldest: evicted
        assert cache.get(specs[3]) is not None  # fresh: survives
        assert cache.evictions >= 1

    def test_reads_refresh_recency(self, tmp_path):
        specs = self._specs(3)
        cache = ResultCache(str(tmp_path / "cache"), max_bytes=10**9)
        cache.put(specs[0], self._metrics(0))
        cache.put(specs[1], self._metrics(1))
        self._age(cache, specs[0], 300)
        self._age(cache, specs[1], 200)
        # A hit on the oldest entry bumps its mtime ahead of specs[1].
        assert cache.get(specs[0]) is not None
        entry_size = os.path.getsize(cache._path(specs[0]))
        cache.max_bytes = entry_size * 2 + entry_size // 2
        cache.put(specs[2], self._metrics(2))
        assert cache.get(specs[0]) is not None  # recently read: kept
        assert cache.get(specs[1]) is None  # LRU victim

    def test_just_written_entry_never_evicted(self, tmp_path):
        spec = self._specs(1)[0]
        cache = ResultCache(str(tmp_path / "cache"), max_bytes=1)
        cache.put(spec, self._metrics(0))
        assert cache.get(spec) is not None

    def test_zero_budget_means_unbounded(self, tmp_path, monkeypatch):
        monkeypatch.delenv(parallel.CACHE_MAX_MB_ENV, raising=False)
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.max_bytes == 0
        for i, s in enumerate(self._specs(3)):
            cache.put(s, self._metrics(i))
        assert cache.evictions == 0

    def test_env_budget_parsed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(parallel.CACHE_MAX_MB_ENV, "2.5")
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.max_bytes == int(2.5 * 1024 * 1024)
        monkeypatch.setenv(parallel.CACHE_MAX_MB_ENV, "junk")
        assert ResultCache(str(tmp_path / "cache")).max_bytes == 0


class TestResolveCache:
    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv(parallel.CACHE_ENV, raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(parallel.CACHE_ENV, "1")
        assert resolve_cache(None).root == parallel.CACHE_DIR
        monkeypatch.setenv(parallel.CACHE_ENV, str(tmp_path))
        assert resolve_cache(None).root == str(tmp_path)
        monkeypatch.setenv(parallel.CACHE_ENV, "0")
        assert resolve_cache(None) is None

    def test_explicit_forms(self, tmp_path, cache):
        assert resolve_cache(True).root == parallel.CACHE_DIR
        assert resolve_cache(str(tmp_path)).root == str(tmp_path)
        assert resolve_cache(cache) is cache

    def test_run_metrics_codec_registered(self):
        assert RunMetrics.__name__ in ResultCache._codecs
