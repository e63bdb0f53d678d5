"""The service's rendered-frame tier: a repeat request is answered with
the exact bytes the first asker received, without touching the result
cache or the dispatch thread; the tier is bounded LRU and can be
disabled."""

import asyncio
import json
import logging

import pytest

from repro.runner import BatchRunner
from repro.service import ReproService
from repro.service.protocol import encode_frame

SIM_SPEC = {
    "config": "M8",
    "benchmarks": ["gzip", "twolf"],
    "mapping": [0, 0],
    "commit_target": 300,
    "trace_length": 2000,
    "seed": 0,
}


@pytest.fixture
def runner(tmp_path):
    runner = BatchRunner(workers=1, cache_dir=tmp_path / "cache")
    yield runner
    runner.close()


def serve(runner, coro_fn, tmp_path, **service_kw):
    service_kw.setdefault("cache", getattr(runner, "cache", None))
    service_kw.setdefault("progress_interval", 0.1)
    service = ReproService(runner, **service_kw)
    sockpath = str(tmp_path / "serve.sock")

    async def main():
        await service.start()
        server = await asyncio.start_unix_server(
            service.handle_connection, path=sockpath
        )
        try:
            return await asyncio.wait_for(coro_fn(service, sockpath), 120)
        finally:
            server.close()
            await server.wait_closed()
            await service.close()

    return asyncio.run(main())


async def _round_trip(sockpath):
    reader, writer = await asyncio.open_unix_connection(sockpath)
    assert json.loads(await reader.readline())["type"] == "hello"
    writer.write(encode_frame({"type": "submit", "kind": "simulate",
                               "spec": SIM_SPEC}))
    await writer.drain()
    result_line = None
    while result_line is None:
        line = await reader.readline()
        assert line, "server closed the stream unexpectedly"
        frame = json.loads(line)
        if frame["type"] == "result":
            result_line = line
        else:
            assert frame["type"] in ("ack", "progress")
    writer.close()
    try:
        await writer.wait_closed()
    except (BrokenPipeError, ConnectionResetError):
        pass
    return result_line


def test_repeat_requests_served_from_frame_tier(runner, tmp_path):
    async def scenario(service, sockpath):
        raw = [await _round_trip(sockpath) for _ in range(3)]
        cache = service.cache
        return raw, dict(service.stats), service.status(), {
            "hits": cache.hits, "misses": cache.misses,
        }

    raw, stats, status, cache_counters = serve(runner, scenario, tmp_path)
    assert raw[0] == raw[1] == raw[2]  # byte-identical every round
    assert stats["executed"] == 1
    assert stats["frame_served"] == 2
    assert stats["cache_served"] == 2  # frame hits are warm hits
    assert runner.jobs_run == 1
    # Frame hits never re-keyed through the result cache: its counters
    # show only the cold flight's probes (the service's warm-tier miss
    # plus the runner's own pre-execution miss), nothing from the two
    # warm rounds.
    assert cache_counters["hits"] == 0
    assert cache_counters["misses"] == 2
    assert status["frame_entries"] == 1
    assert status["frame_bytes"] > 0


def test_frame_tier_disabled_falls_back_to_result_cache(runner, tmp_path):
    async def scenario(service, sockpath):
        raw = [await _round_trip(sockpath) for _ in range(2)]
        return raw, dict(service.stats), service.cache.hits

    raw, stats, cache_hits = serve(
        runner, scenario, tmp_path, frame_cache_mb=0
    )
    assert raw[0] == raw[1]
    assert stats["frame_served"] == 0
    assert stats["cache_served"] == 1  # served by the result cache tier
    assert cache_hits == 1


def test_frame_budget_env_default(runner, monkeypatch):
    monkeypatch.delenv("REPRO_MEM_CACHE_MB", raising=False)
    assert ReproService(runner).frame_budget_bytes == 64 * 1024 * 1024
    monkeypatch.setenv("REPRO_MEM_CACHE_MB", "8")
    assert ReproService(runner).frame_budget_bytes == 8 * 1024 * 1024
    monkeypatch.setenv("REPRO_MEM_CACHE_MB", "0")
    assert ReproService(runner).frame_budget_bytes == 0


@pytest.mark.parametrize("raw", ["inf", "nan", "abc", "-1"])
def test_frame_budget_env_ignores_unusable_values(runner, monkeypatch, caplog,
                                                  raw):
    monkeypatch.setenv("REPRO_MEM_CACHE_MB", raw)
    with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
        service = ReproService(runner)
    assert service.frame_budget_bytes == 64 * 1024 * 1024
    assert "REPRO_MEM_CACHE_MB" in caplog.text


def test_frame_lru_eviction(runner):
    service = ReproService(runner, frame_cache_mb=1)
    service.frame_budget_bytes = 64
    service._frame_put("a", b"x" * 30)
    service._frame_put("b", b"y" * 30)
    assert service._frame_get("a") is not None  # touch: a becomes MRU
    service._frame_put("c", b"z" * 30)          # evicts b, the LRU
    assert service._frame_get("b") is None
    assert service._frame_get("a") is not None
    assert service._frame_get("c") is not None
    assert service._frame_bytes <= service.frame_budget_bytes
    # An oversized frame is never admitted (and never evicts residents).
    service._frame_put("huge", b"h" * 100)
    assert service._frame_get("huge") is None
    assert service._frame_get("a") is not None
