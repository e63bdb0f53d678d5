"""Shared machinery of the hdSMT benchmark: statistics, spans, process
trees, hermetic child environments and the per-run outcome ledger.

Nothing here imports ``repro``: the workload modules do, after
``run.py`` has scrubbed the environment and put ``src/`` on the path.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Tail ladder: the reported tail is the highest of these percentiles
#: that still has at least ``TAIL_BEYOND`` samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: Which per-layer metrics each workload reports, and what they move.
LAYER_MAP = Path(__file__).resolve().parent / "layers.json"


# -- statistics -------------------------------------------------------------


def tail(samples: Sequence[float]) -> Tuple[str, float, int]:
    """``(label, value, n)`` for the highest ladder percentile with at
    least ten samples beyond it (nearest-rank).  Below 20 samples even
    the median has fewer than ten beyond it; the maximum is reported
    then, labelled ``"max"``."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p% of n), exactly
        if n - rank >= TAIL_BEYOND:
            label = f"p{p:g}"
            return label, xs[rank - 1], n
    return "max", xs[-1], n


def op_stats(samples: Sequence[float]) -> Dict[str, float]:
    """The operation tail by :func:`tail`, its percentile and its sample
    count.  Reported per layer rather than end to end: on a shared
    2-vCPU host the far tail swings by ±40% between runs, too far to
    carry a regression bound."""
    label, value, n = tail(samples)
    pct = 100.0 if label == "max" else float(label[1:])
    return {"op.tail_s": value, "op.tail_pct": pct, "op.n": float(n)}


def layers_on(workload: str) -> Tuple[str, ...]:
    """The per-layer metrics ``workload`` reports: those whose ``on``
    list in ``layers.json`` names it."""
    layers = json.loads(LAYER_MAP.read_text())["layers"]
    return tuple(name for name, layer in layers.items()
                 if workload in layer["on"])


def hmean(values: Sequence[float]) -> float:
    return len(values) / sum(1.0 / v for v in values) if values else 0.0


def sim_metrics(results) -> Dict[str, float]:
    """The modelled design's figures over a fixed set of ``SimResult``s
    (simulated time only: a host-only change leaves every one
    identical)."""
    stats = [r.stats for r in results]
    fetched = sum(s["fetched"] for s in stats)
    return {
        "sim.cycles": float(sum(r.cycles for r in results)),
        "sim.ipc_hmean": hmean([r.ipc for r in results]),
        "sim.l1d_miss_rate": sum(s["l1d_miss_rate"] for s in stats) / len(stats),
        "sim.l2_miss_rate": sum(s["l2_miss_rate"] for s in stats) / len(stats),
        "sim.mispredict_rate": (
            sum(s["branch_mispredict_rate"] for s in stats) / len(stats)
        ),
        "sim.flushes": sum(s["flushes"] for s in stats),
        "sim.wrongpath_frac": (
            sum(s["wrongpath_fetched"] for s in stats) / fetched if fetched else 0.0
        ),
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- host speed -------------------------------------------------------------

#: Seconds :func:`host_probe` takes on a dev-box vCPU in its fast state.
#: Each vCPU of the shared 2-vCPU host flips between two speeds, 1.6x
#: apart, every few seconds (with no steal time: likely another tenant
#: on a sibling hyperthread), which spread host-time medians over seeds
#: by up to 39% (IQR/median).  Set-up and operation times are scaled to
#: host seconds at this speed: where an operation runs on one
#: known CPU, by probes timed on that CPU just before and just after it
#: (:func:`at_reference_speed`); where it spreads over every CPU for
#: seconds, by the probes a :class:`SpeedSampler` took meanwhile.
PROBE_REF_S = 0.006
PROBE_ROUNDS = 40_000


def host_probe(clock=time.perf_counter) -> float:
    """Seconds for a fixed pure-Python loop of dict, list and integer
    work (the simulator's kind of work, none of its code), timed with
    the cyclic GC off so the program's heap cannot slow it."""
    table = list(range(256))
    counts: Dict[int, int] = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        t0 = clock()
        for i in range(PROBE_ROUNDS):
            k = table[i & 255]
            counts[k] = counts.get(k, 0) + 1
            acc = (acc + k * 3) & 0xFFFF
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured on a CPU whose :func:`host_probe` took
    ``before`` and ``after`` around them, as host seconds on a CPU in
    the reference state."""
    return seconds * 2.0 * PROBE_REF_S / (before + after)


def sample_speed(path: str, interval: float) -> None:
    """The :class:`SpeedSampler` process: probe each CPU in turn, one
    ``perf_counter() probe-seconds`` line each, ``interval`` apart."""
    cpus = sorted(os.sched_getaffinity(0))
    with open(path, "w", buffering=1) as out:
        while True:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                out.write(f"{start} {host_probe(time.thread_time)}\n")
                time.sleep(interval)


class SpeedSampler:
    """A child process that probes each CPU in turn all through a run,
    so work spread over every CPU for seconds can be scaled by the
    speed the CPUs had meanwhile.  Its probe counts its own CPU time,
    so the program's processes sharing the CPU do not lengthen it."""

    INTERVAL_S = 0.15

    def __init__(self, children: "Children", path: Path) -> None:
        here = Path(__file__).resolve().parent
        self.path = path
        self.children = children
        self.proc = children.spawn(["-c", (
            f"import sys; sys.path[:0] = [{str(here)!r}]; import harness; "
            f"harness.sample_speed({str(path)!r}, {self.INTERVAL_S})"
        )])

    def at_reference_speed(self, start: float, seconds: float) -> float:
        """``seconds`` of work from ``start`` (``perf_counter``), as
        host seconds at the reference speed, from the probes taken
        during it (widened by one sampling cycle on each side)."""
        slack = self.INTERVAL_S * len(os.sched_getaffinity(0))
        lines = self.path.read_text().split("\n")[:-1]  # last may be partial
        probes = [float(p) for t, p in (line.split() for line in lines)
                  if start - slack <= float(t) <= start + seconds + slack]
        if not probes:
            raise RuntimeError("the speed sampler recorded no probe")
        return seconds * PROBE_REF_S * len(probes) / sum(probes)

    def stop(self) -> None:
        self.children.stop(self.proc, grace=5.0)


def pin_to_one_cpu() -> int:
    """Pin this process, and every process it starts later, to one CPU
    (so an operation runs where its probe ran); returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    rid: Optional[str]
    tid: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """In-memory span recorder.  Disabled, ``span`` costs one branch and
    records nothing; enabled, every span carries its parent (the
    enclosing span on the same thread) and a request id shared by the
    spans of one operation."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.t0_ns = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[1]
        sid = next(self._ids)
        stack.append((sid, rid))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent[0] if parent else None,
                     rid, threading.get_ident())
            )

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name(name))

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: Σ duration minus the time its children cover
        (children of one span run on its thread, one after another)."""
        child_ns: Dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + (
                    s.end_ns - s.start_ns
                )
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s.end_ns - s.start_ns - child_ns.get(s.id, 0)
            out[s.name] = out.get(s.name, 0.0) + own / 1e9
        return out

    def chrome_trace(self, meta: dict) -> dict:
        """Chrome trace-event JSON (opens offline in Perfetto)."""
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start_ns):
            tid = tids.setdefault(s.tid, len(tids) + 1)
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start_ns - self.t0_ns) / 1000.0,
                "dur": (s.end_ns - s.start_ns) / 1000.0,
                "pid": 1,
                "tid": tid,
                "args": {"id": s.id, "parent": s.parent, "rid": s.rid},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": meta}


# -- outcome ledger ---------------------------------------------------------


@dataclass
class Outcome:
    """Operations attempted and failed in one run.  A wrong output is a
    failed operation, and any failure makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def op(self, ok: bool = True, problem: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> bool:
        """An output check that is itself counted as an operation."""
        self.op(ok, problem)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


# -- processes --------------------------------------------------------------


def _children_map() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2:].split()
        kids.setdefault(int(fields[1]), []).append(int(entry))
    return kids


def process_tree(root: int, exclude: Sequence[int] = ()) -> List[int]:
    """``root`` and its live descendants, less the ``exclude`` pids."""
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        if pid in exclude:
            continue
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def peak_rss_mb(pid: int) -> float:
    """The process' own peak resident set (VmHWM), in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pss_mb(pid: int) -> float:
    """The process' proportional set size (shared pages split between
    their sharers), in MB."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_pss_mb(root: Optional[int] = None,
                exclude: Sequence[int] = ()) -> float:
    """Memory of ``root``'s process tree (default: this process) with
    each shared page counted once: Σ PSS.  Read at the tree's fullest
    point, just before a pool, daemon or fleet is torn down; forked pool
    workers share their parent's pages, which plain RSS would count
    once per process.  ``exclude`` names the benchmark's own helper
    processes."""
    root = os.getpid() if root is None else root
    if not os.path.isdir("/proc"):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return sum(pss_mb(pid) for pid in process_tree(root, exclude))


class Children:
    """Every process the benchmark starts, so each one is stopped and
    waited for whatever happens."""

    def __init__(self, env: Dict[str, str], cwd: Path) -> None:
        self.env = env
        self.cwd = cwd
        self.procs: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], extra_env: Optional[dict] = None,
              stdout=subprocess.DEVNULL) -> subprocess.Popen:
        env = dict(self.env, **(extra_env or {}))
        proc = subprocess.Popen(
            [sys.executable, *argv], env=env, cwd=self.cwd, stdout=stdout,
            stderr=subprocess.DEVNULL,
        )
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 10.0,
             terminate: bool = True) -> None:
        if proc.poll() is None and terminate:
            proc.terminate()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        if proc in self.procs:
            self.procs.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.procs):
            self.stop(proc, grace=5.0)


def ready_time(children: Children, code: str) -> Tuple[float, float]:
    """Launch a fresh interpreter running ``code`` and time launch →
    its ``ready`` line.  The child prints ``ready <import seconds>``."""
    t0 = time.perf_counter()
    proc = children.spawn(["-c", code], stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline().decode().split()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        children.stop(proc, terminate=False)
    if len(line) != 2 or line[0] != "ready":
        raise RuntimeError(f"setup probe did not become ready: {line!r}")
    return elapsed, float(line[1])


def child_inputs(children: "Children", module: str, seed: int):
    """``module.inputs(seed)`` computed in a short-lived interpreter, so
    the benchmark's own memory figure never includes input generation."""
    here = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(here)!r}]\n"
        f"import {module}\n"
        f"print(json.dumps({module}.inputs({int(seed)})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=children.env,
                          cwd=children.cwd, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
