"""``service``: a live ``repro serve --jobs <nproc>`` daemon on a private
socket and cache directory, under a closed loop of one client that
waits for each reply (as ``repro submit`` does), through the
connect-per-call ``ServiceClient``.  With ``nproc`` clients on ``nproc``
vCPUs the clients competed with the daemon for the CPUs, and on a
shared 2-vCPU host the warm-hit median then swung by ±30% between runs,
against ±4% with one client.

The requests replay a seeded sequence over a catalogue of ``simulate``
and ``sweep`` specs with Zipf-skewed popularity, so most requests
repeat and every first touch is a miss; every 50th request is a
``status`` call.  After the load phase the daemon restarts on the same
cache directory and the head of the sequence replays: first touches are
then disk-tier hits.

The load phase fills (every first touch is a miss) and then runs warm.
One operation is a cold request, socket to parsed payload: ``p50_s``,
``ops_per_s`` and ``sim_ips`` describe those requests, at the reference
host speed (``harness.PROBE_REF_S``).  The warm path is
reported per layer (``service.hit_*``, ``service.warm_req_per_s``): a
frame-tier hit is a few wake-ups between two processes, and on a shared
2-vCPU host its latency doubled for minutes at a time, too far to carry
a regression bound; the CPU-bound cold requests moved by ±10%.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import paper_mapping
from harness import (
    at_reference_speed,
    digest,
    host_probe,
    op_stats,
    peak_rss_mb,
    pin_to_one_cpu,
    sim_metrics,
    tail,
    tree_pss_mb,
)

from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.runner import BatchRunner, ResultCache
from repro.runner.cache import sim_result_restore
from repro.service import ReproService, ServiceClient, jobs_for_request
from repro.service.protocol import canonical_dumps
from repro.workloads.definitions import workloads_by

CATALOGUE_SIMULATE = 14
CATALOGUE_SWEEPS = 2
SWEEP_SIMS = 3
ZIPF_EXPONENT = 1.1
STATUS_EVERY = 50
#: Every catalogue entry is first touched within this many requests.
FIRST_TOUCH_WITHIN = 300
SEQUENCE_LENGTH = 200_000
#: Share of ``--seconds`` the load phase runs warm after its fill; the
#: restart and the replay of the sequence head take about the rest.
WARM_SHARE = 0.6
REPLAY = 600
STATUS = -1


def _sim_spec(rng: random.Random, config_name: str, threads: int,
              slot: int, target: int) -> dict:
    choices = workloads_by(threads)
    workload = choices[slot % len(choices)]
    mapping = paper_mapping(get_config(config_name), workload.benchmarks)
    return {
        "config": config_name,
        "benchmarks": list(workload.benchmarks),
        "mapping": list(mapping),
        "commit_target": target,
        "seed": rng.randrange(1, 1 << 12),
    }


def catalogue(seed: int) -> List[Tuple[str, dict]]:
    """A fixed shape (kind, configuration, workload, target per entry)
    with seeded trace windows, listed most popular first: the sweeps
    sit at ranks 2 and 7."""
    rng = random.Random(f"service-catalogue/{seed}")
    configs = STANDARD_CONFIG_NAMES
    sims = [
        ("simulate", _sim_spec(rng, configs[i % len(configs)], (2, 4)[i % 2],
                               i, (1000, 2000)[i // 7]))
        for i in range(CATALOGUE_SIMULATE)
    ]
    sweeps = [
        ("sweep", {"sims": [_sim_spec(rng, "M8", 2, k * SWEEP_SIMS + j, 1000)
                            for j in range(SWEEP_SIMS)]})
        for k in range(CATALOGUE_SWEEPS)
    ]
    return sims[:2] + sweeps[:1] + sims[2:6] + sweeps[1:] + sims[6:]


def sequence(seed: int, size: int, length: int = SEQUENCE_LENGTH) -> List[int]:
    """Catalogue indices in request order (``STATUS`` marks a status
    call); popularity is Zipf over the catalogue order."""
    rng = random.Random(f"service-sequence/{seed}")
    ranking = list(range(size))
    weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(size)]
    seq = rng.choices(ranking, weights, k=length)
    head = set(seq[:FIRST_TOUCH_WITHIN])
    slots = rng.sample(range(FIRST_TOUCH_WITHIN), size)
    for item, slot in zip(ranking, slots):
        if item not in head:
            seq[slot] = item
    for i in range(STATUS_EVERY - 1, length, STATUS_EVERY):
        seq[i] = STATUS
    return seq


def _committed(payload) -> int:
    payloads = payload if isinstance(payload, list) else [payload]
    return sum(sum(p["committed"]) for p in payloads)


class Daemon:
    """One ``repro serve`` process on a socket and cache directory."""

    def __init__(self, ctx, sock: str, cache_dir: Path) -> None:
        self.ctx = ctx
        self.sock = sock
        self.cache_dir = cache_dir
        self.proc = None

    def start(self) -> float:
        """Launch and wait for the first ``pong``; returns the seconds
        at the reference host speed (the daemon shares this process'
        pinned CPU)."""
        before = host_probe()
        t0 = time.perf_counter()
        self.proc = self.ctx.children.spawn([
            "-m", "repro", "serve", "--socket", self.sock,
            "--cache", str(self.cache_dir), "--jobs", str(self.ctx.nproc),
            "--quiet",
        ])
        client = ServiceClient(socket_path=self.sock, timeout=10)
        deadline = t0 + 60.0
        while True:
            try:
                if client.ping():
                    seconds = time.perf_counter() - t0
                    return at_reference_speed(seconds, before, host_probe())
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered a ping")
            time.sleep(0.005)

    def stop(self) -> int:
        """SIGTERM (graceful drain); returns the exit code."""
        self.ctx.children.stop(self.proc, grace=30.0)
        return self.proc.returncode


class LoadLoop:
    """The closed loop: one client sends the next request of the
    sequence and waits for its reply, until the sequence runs out or
    ``warm_seconds`` have passed since every catalogue entry was
    served.  A catalogue entry's first request is of class ``first``,
    later ones ``hit``; replies are checked against ``reference`` (by
    default, the entry's first reply)."""

    def __init__(self, ctx, sock, cat, seq, *, first: str,
                 reference: Optional[Dict[int, str]],
                 warm_seconds: float = float("inf")) -> None:
        self.ctx = ctx
        self.sock = sock
        self.cat = cat
        self.seq = seq
        self.warm_seconds = warm_seconds
        self.first_class = first
        self.reference = reference
        #: requests sent
        self.sent = 0
        self.texts: Dict[int, str] = {}
        self.committed: Dict[int, int] = {}
        #: (class, seconds, traced, start) per completed request
        self.records: List[Tuple[str, float, bool, float]] = []
        #: first touches' seconds at the reference host speed
        self.ref_seconds: List[float] = []
        #: when every catalogue entry had been served once
        self.filled_at: Optional[float] = None
        self.t0 = time.perf_counter()

    def run(self) -> float:
        client = ServiceClient(socket_path=self.sock, timeout=120)
        tracer = self.ctx.tracer
        outcome = self.ctx.outcome
        self.t0 = time.perf_counter()
        for i, item in enumerate(self.seq):
            if (self.filled_at is not None and time.perf_counter()
                    >= self.filled_at + self.warm_seconds):
                break
            self.sent = i + 1
            if item == STATUS:
                cls = "status"
            else:
                cls = "hit" if item in self.texts else self.first_class
            traced = tracer.enabled and i % 2 == 0
            rid = f"r{i}"
            if cls == self.first_class:
                probe = host_probe()
            t0 = time.perf_counter()
            try:
                with tracer.span(f"service.{cls}", rid) if traced else nullcontext():
                    if item == STATUS:
                        client.status()
                    else:
                        kind, spec = self.cat[item]
                        payload = client.submit(kind, spec, request_id=rid)
            except Exception as exc:  # noqa: BLE001 - counted, run fails
                outcome.op(False, f"request {i} ({cls}): "
                                  f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            if cls == self.first_class:
                self.ref_seconds.append(
                    at_reference_speed(dt, probe, host_probe()))
            self.records.append((cls, dt, traced, t0))
            if item == STATUS:
                outcome.op()
                continue
            text = client.last_payload_text
            if cls == self.first_class:
                self.texts[item] = text
                self.committed[item] = _committed(payload)
                if len(self.texts) == len(self.cat):
                    self.filled_at = time.perf_counter()
            reference = self.texts if self.reference is None else self.reference
            outcome.op(text == reference.get(item, text),
                       f"request {i} ({cls}): payload differs")
        return time.perf_counter() - self.t0

    def seconds(self, cls: str, traced: Optional[bool] = None,
                warm_only: bool = False) -> List[float]:
        """Latencies of one request class; ``warm_only`` keeps those
        sent after every catalogue entry had been served once."""
        after = self.filled_at if warm_only else self.t0
        return [dt for c, dt, tr, start in self.records
                if c == cls and (traced is None or tr == traced)
                and start >= after]


def run(ctx) -> Tuple[Dict[str, float], Dict[str, float]]:
    # One client means one request in flight: on one CPU, the daemon
    # runs each first touch where the client's probes run around it.
    ctx.info["cpu"] = pin_to_one_cpu()
    cat = catalogue(ctx.seed)
    seq = sequence(ctx.seed, len(cat))
    golden = ctx.golden.get("payload_digests") if ctx.default_seed else None
    sock = str(ctx.private_dir("sock").relative_to(ctx.root) / "serve.sock")

    setups = []
    for _ in range(3):
        probe = Daemon(ctx, sock, ctx.private_dir("probe-cache"))
        setups.append(probe.start())
        probe.stop()
    cache_dir = ctx.private_dir("cache")
    daemon = Daemon(ctx, sock, cache_dir)
    setups.append(daemon.start())

    # -- load phase ---------------------------------------------------------
    load = LoadLoop(ctx, sock, cat, seq, first="miss", reference=None,
                    warm_seconds=WARM_SHARE * ctx.seconds)
    load_wall = load.run()
    client = ServiceClient(socket_path=sock, timeout=60)
    status = client.status()
    # The program here is the daemon and its pool, not this client.
    peak = tree_pss_mb(daemon.proc.pid)
    daemon_rss = peak_rss_mb(daemon.proc.pid)
    ctx.outcome.check(daemon.stop() == 0, "daemon did not drain cleanly")
    if load.filled_at is None:
        raise RuntimeError("the request sequence ended before every "
                           "catalogue entry had been served")
    if golden is not None:
        for item, text in load.texts.items():
            ctx.outcome.check(digest(text) == golden[item],
                              f"catalogue entry {item}: golden digest differs")

    # -- restart on the same cache, replay the head -------------------------
    setups.append(daemon.start())
    replay = LoadLoop(ctx, sock, cat, seq[:min(REPLAY, load.sent)],
                      first="disk", reference=load.texts)
    replay.run()
    after = client.status()
    ctx.outcome.check(after["executed"] == 0,
                      "the restarted daemon re-executed cached work")
    ctx.outcome.check(daemon.stop() == 0, "daemon did not drain cleanly")

    misses = load.seconds("miss")
    committed = sum(load.committed.values())
    ops = op_stats(misses)
    ctx.info.update(ops, requests=len(load.records),
                    disk_hits=len(replay.seconds("disk")))
    ctx.info["host"] = {
        "p50_s": median(misses),
        "ops_per_s": len(misses) / sum(misses),
        "sim_ips": committed / sum(misses),
    }
    ref = load.ref_seconds
    e2e = {
        "setup_s": median(setups),
        "p50_s": median(ref),
        "ops_per_s": len(ref) / sum(ref),
        "sim_ips": committed / sum(ref),
        "peak_pss_mb": peak,
    }
    results = []
    for item in sorted(load.texts):
        payload = json.loads(load.texts[item])
        for p in payload if isinstance(payload, list) else [payload]:
            results.append(sim_result_restore(p))
    layers = sim_metrics(results)
    layers.update(ops)
    _, hit_tail, _ = tail(load.seconds("hit", warm_only=True))
    warm = sum(1 for r in load.records if r[3] >= load.filled_at)
    layers.update({
        "service.hit_p50_ms": 1000.0 * median(load.seconds("hit", warm_only=True)),
        "service.hit_tail_ms": 1000.0 * hit_tail,
        "service.warm_req_per_s": warm / (load.t0 + load_wall - load.filled_at),
        "service.disk_hit_p50_ms": 1000.0 * median(replay.seconds("disk")),
    })
    layers["fail_frac"] = ctx.outcome.failed / max(1, ctx.outcome.attempted)
    ctx.info["layers"] = dict(layers)
    if ctx.trace:
        layers.update(_layer_metrics(ctx, cat, seq, load, replay, status,
                                     daemon_rss, cache_dir))
    return e2e, layers


def _frame_hit_us(cache_dir: Path, kind: str, spec: dict, expected: str,
                  rounds: int = 2000) -> Tuple[float, bool]:
    """Median in-process ``ReproService.submit`` frame hit, in µs, and
    whether its payload equals the socket's."""

    async def measure():
        runner = BatchRunner(workers=1, cache_dir=cache_dir)
        service = ReproService(runner, cache=runner.cache)
        await service.start()
        try:
            flight, _ = service.submit(kind, spec)
            await flight.done.wait()
            times = []
            for _ in range(rounds):
                t0 = time.perf_counter_ns()
                flight, _ = service.submit(kind, spec)
                times.append((time.perf_counter_ns() - t0) / 1000.0)
            frame = json.loads(flight.response_bytes)
            same = canonical_dumps(frame["payload"]) == expected
            return median(times), same
        finally:
            await service.close()
            runner.close()

    return asyncio.run(measure())


def _layer_metrics(ctx, cat, seq, load, replay, status, daemon_rss,
                   cache_dir):
    _, imports = ctx.setup_probe("import repro, repro.service", samples=3)
    popular = max(load.texts, key=lambda item: seq.count(item))
    kind, spec = cat[popular]
    submit_us, same = _frame_hit_us(cache_dir, kind, spec, load.texts[popular])
    ctx.outcome.check(same, "in-process frame hit differs from the socket's")

    disk = ResultCache(cache_dir, mem_cache_mb=0)
    spare = ResultCache(ctx.private_dir("put-cache"), mem_cache_mb=0)
    gets, puts = [], []
    for kind, spec in cat:
        for job in jobs_for_request(kind, spec):
            t0 = time.perf_counter()
            result = disk.get(job)
            gets.append(time.perf_counter() - t0)
            if not ctx.outcome.check(result is not None,
                                     f"no cache entry for {job!r}"):
                continue
            t0 = time.perf_counter()
            spare.put(job, result)
            puts.append(time.perf_counter() - t0)
    stats = disk.stats()

    requests = status["requests"]
    report = status["report"]
    hit_p50 = median(load.seconds("hit", warm_only=True))
    return {
        "setup.import_s": imports,
        "trace_overhead_frac": (
            median(load.seconds("hit", True, warm_only=True))
            / median(load.seconds("hit", False, warm_only=True)) - 1.0
        ),
        "service.submit_us": submit_us,
        "service.transport_share": 1.0 - submit_us / 1e6 / hit_p50,
        "service.frame_frac": status["frame_served"] / requests,
        "service.cache_frac": (
            (status["cache_served"] - status["frame_served"]) / requests
        ),
        "service.exec_frac": status["executed"] / requests,
        "service.coalesced_frac": status["coalesced"] / requests,
        "service.status_bytes_per_1k": (
            len(canonical_dumps(status)) / (requests / 1000.0)
        ),
        "service.daemon_rss_mb": daemon_rss,
        "cache.get_ms": 1000.0 * median(gets),
        "cache.put_ms": 1000.0 * median(puts),
        "cache.entries": float(stats["entries"]),
        "cache.bytes": float(stats["total_bytes"]),
        "runner.jobs": float(report["jobs"]),
        "runner.attempts": float(report["attempts"]),
        "runner.busy_frac": (
            report["job_seconds_total"] / (report["wall_seconds"] * ctx.nproc)
            if report["wall_seconds"] else 0.0
        ),
        "runner.tail_frac": (
            report["job_seconds_max"] / report["wall_seconds"]
            if report["wall_seconds"] else 0.0
        ),
    }


def golden() -> dict:
    """Reference payload digests of the default seed's catalogue,
    computed in-process without the daemon."""
    from repro.service.protocol import response_payload

    digests = []
    for kind, spec in catalogue(0):
        jobs = jobs_for_request(kind, spec)
        results = [job.execute(None) for job in jobs]
        digests.append(digest(canonical_dumps(
            response_payload(kind, jobs, results))))
    return {"payload_digests": digests}
