"""The multi-tier ResultCache: memory-tier semantics (hit, promote,
write-through, LRU eviction, detachment), the pluggable CacheBackend
protocol, stats/prune GC, and the per-job key memo."""

import json
import logging
import os
import time

import pytest

from repro.runner import ResultCache
from repro.runner.cache import CacheEntry, FilesystemBackend


def _key_path(tmp_path, job):
    key = ResultCache.job_key(job)
    return tmp_path / key[:2] / f"{key}.json"


# -- the memory tier -------------------------------------------------------


def test_mem_tier_off_by_default(tmp_path, sim_job, monkeypatch):
    monkeypatch.delenv("REPRO_MEM_CACHE_MB", raising=False)
    cache = ResultCache(tmp_path)
    assert not cache.mem_enabled
    cache.put(sim_job, sim_job.execute())
    assert cache.get(sim_job) is not None
    assert cache.mem_hits == 0 and cache.disk_hits == 1
    assert len(cache._mem) == 0


def test_mem_tier_env_budget(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MEM_CACHE_MB", "2")
    cache = ResultCache(tmp_path)
    assert cache.mem_budget_bytes == 2 * 1024 * 1024
    monkeypatch.setenv("REPRO_MEM_CACHE_MB", "not-a-number")
    assert not ResultCache(tmp_path).mem_enabled


@pytest.mark.parametrize("raw", ["inf", "nan", "abc", "-1"])
def test_mem_tier_env_budget_ignores_unusable_values(tmp_path, monkeypatch,
                                                     caplog, raw):
    monkeypatch.setenv("REPRO_MEM_CACHE_MB", raw)
    with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
        cache = ResultCache(tmp_path)
    assert cache.mem_budget_bytes == 0 and not cache.mem_enabled
    assert "REPRO_MEM_CACHE_MB" in caplog.text


def test_put_writes_through_and_get_hits_memory(tmp_path, sim_job):
    cache = ResultCache(tmp_path, mem_cache_mb=4)
    result = sim_job.execute()
    cache.put(sim_job, result)
    assert _key_path(tmp_path, sim_job).exists()  # tier 1 always written
    # Remove the disk entry: a hit now proves the memory tier served it.
    _key_path(tmp_path, sim_job).unlink()
    assert cache.get(sim_job) == result
    assert cache.mem_hits == 1 and cache.disk_hits == 0


def test_disk_hit_promotes_into_memory(tmp_path, sim_job):
    ResultCache(tmp_path).put(sim_job, sim_job.execute())
    cache = ResultCache(tmp_path, mem_cache_mb=4)  # fresh process, cold mem
    first = cache.get(sim_job)
    assert first is not None
    assert cache.disk_hits == 1 and cache.mem_hits == 0
    second = cache.get(sim_job)
    assert second == first
    assert cache.mem_hits == 1


def test_mem_entries_detached_from_callers(tmp_path, sim_job):
    """Mutating a returned result must not poison later hits, and two
    hits never share mutable state."""
    cache = ResultCache(tmp_path, mem_cache_mb=4)
    result = sim_job.execute()
    cache.put(sim_job, result)
    reference = sim_job.execute()
    a = cache.get(sim_job)
    a.stats["poison"] = True
    b = cache.get(sim_job)
    assert b == reference
    assert a.stats is not b.stats


def test_mem_lru_evicts_oldest_and_respects_budget(tmp_path, sim_jobs):
    cache = ResultCache(tmp_path, mem_cache_mb=4)
    results = [job.execute() for job in sim_jobs]
    sizes = [
        len(json.dumps(j.result_payload(r)).encode())
        for j, r in zip(sim_jobs, results)
    ]
    # A budget that holds some entries but not all four.
    cache.mem_budget_bytes = max(sizes) * 2
    for job, result in zip(sim_jobs, results):
        cache.put(job, result)
    assert cache._mem_bytes <= cache.mem_budget_bytes
    assert sum(size for _, size in cache._mem.values()) == cache._mem_bytes
    assert 0 < len(cache._mem) < len(sim_jobs)
    # LRU: the most recent put is resident; the oldest went first.
    assert ResultCache.job_key(sim_jobs[-1]) in cache._mem
    assert ResultCache.job_key(sim_jobs[0]) not in cache._mem
    # Everything still hits (evicted entries fall through to disk).
    for job, result in zip(sim_jobs, results):
        assert cache.get(job) == result


def test_oversized_entry_skips_memory_tier(tmp_path, sim_job):
    cache = ResultCache(tmp_path, mem_cache_mb=4)
    cache.mem_budget_bytes = 8  # smaller than any real payload
    cache.put(sim_job, sim_job.execute())
    assert len(cache._mem) == 0 and cache._mem_bytes == 0
    assert cache.get(sim_job) is not None  # disk still serves


def test_mem_tier_serves_over_corrupt_disk(tmp_path, sim_job):
    """Tier-0 semantics: a resident entry hits even when the disk copy
    is damaged underneath it (the strict read-through behaviour the
    corruption tests pin belongs to the default memory-less cache)."""
    cache = ResultCache(tmp_path, mem_cache_mb=4)
    result = sim_job.execute()
    cache.put(sim_job, result)
    _key_path(tmp_path, sim_job).write_text("ceci n'est pas du json")
    assert cache.get(sim_job) == result
    assert cache.corrupt_fallbacks == 0


# -- the backend protocol --------------------------------------------------


class DictBackend:
    """A minimal in-memory KV store implementing CacheBackend."""

    def __init__(self):
        self.data = {}
        self.stamps = {}

    def get_bytes(self, key):
        return self.data.get(key)

    def put_bytes(self, key, payload):
        self.data[key] = payload
        self.stamps[key] = time.time()

    def scan(self):
        for key, payload in list(self.data.items()):
            yield CacheEntry(key, len(payload), self.stamps[key])

    def delete(self, key):
        self.stamps.pop(key, None)
        return self.data.pop(key, None) is not None


def test_kv_backend_round_trip(sim_job):
    backend = DictBackend()
    cache = ResultCache(backend=backend)
    assert cache.directory is None
    assert cache.get(sim_job) is None
    result = sim_job.execute()
    cache.put(sim_job, result)
    assert cache.get(sim_job) == result
    assert len(cache) == 1
    assert cache.stats()["entries"] == 1
    # Same bytes under the same key as the filesystem layout would store.
    key = ResultCache.job_key(sim_job)
    assert json.loads(backend.data[key]) == sim_job.result_payload(result)


def test_kv_backend_prune(sim_job, sim_jobs):
    backend = DictBackend()
    cache = ResultCache(backend=backend, mem_cache_mb=4)
    cache.put(sim_job, sim_job.execute())
    key = ResultCache.job_key(sim_job)
    backend.stamps[key] -= 3600  # age the entry an hour
    cache.put(sim_jobs[1], sim_jobs[1].execute())
    report = cache.prune(older_than_seconds=600)
    assert report["removed"] == 1 and report["kept"] == 1
    assert cache.get(sim_job) is None  # memory tier dropped too
    assert cache.get(sim_jobs[1]) is not None


def test_cache_requires_directory_or_backend():
    with pytest.raises(ValueError):
        ResultCache()


# -- stats / prune on the filesystem backend -------------------------------


def test_stats_counts_entries_and_tiers(tmp_path, sim_job, sim_jobs):
    cache = ResultCache(tmp_path, mem_cache_mb=4)
    cache.put(sim_job, sim_job.execute())
    cache.put(sim_jobs[1], sim_jobs[1].execute())
    cache.get(sim_job)        # mem hit
    ResultCache(tmp_path).get(sim_job)  # unrelated instance
    cache.get(sim_jobs[2])    # miss
    s = cache.stats()
    assert s["entries"] == 2
    assert s["total_bytes"] == sum(
        e.size for e in FilesystemBackend(tmp_path).scan()
    )
    assert s["hits"] == 1 and s["mem_hits"] == 1 and s["disk_hits"] == 0
    assert s["misses"] == 1
    assert s["mem_entries"] == 2
    assert s["mem_budget_bytes"] == 4 * 1024 * 1024


def test_prune_filesystem_removes_only_old_entries(tmp_path, sim_job, sim_jobs):
    cache = ResultCache(tmp_path, mem_cache_mb=4)
    cache.put(sim_job, sim_job.execute())
    cache.put(sim_jobs[1], sim_jobs[1].execute())
    old = _key_path(tmp_path, sim_job)
    stale = time.time() - 7200
    os.utime(old, (stale, stale))
    report = cache.prune(older_than_seconds=3600)
    assert report["removed"] == 1 and report["kept"] == 1
    assert report["removed_bytes"] > 0
    assert not old.exists()
    assert cache.get(sim_job) is None      # gone from both tiers
    assert cache.get(sim_jobs[1]) is not None


# -- the job-key memo ------------------------------------------------------


def test_job_key_memoized_and_byte_stable(sim_job):
    from repro.runner.cache import _KEY_MEMO_ATTR

    if hasattr(sim_job, _KEY_MEMO_ATTR):
        object.__delattr__(sim_job, _KEY_MEMO_ATTR)
    first = ResultCache.job_key(sim_job)
    assert getattr(sim_job, _KEY_MEMO_ATTR)[1] == first
    assert ResultCache.job_key(sim_job) == first
    # The memo must reproduce the from-scratch hash exactly.
    object.__delattr__(sim_job, _KEY_MEMO_ATTR)
    assert ResultCache.job_key(sim_job) == first


def test_job_key_memo_invalidates_on_format_bump(monkeypatch, sim_job):
    import repro.runner.cache as cache_mod

    before = ResultCache.job_key(sim_job)  # memo now warm
    monkeypatch.setattr(
        cache_mod, "PACK_FORMAT_VERSION", cache_mod.PACK_FORMAT_VERSION + 1
    )
    bumped = ResultCache.job_key(sim_job)
    assert bumped != before
    monkeypatch.undo()
    assert ResultCache.job_key(sim_job) == before
