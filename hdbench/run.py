"""One benchmark for the hdSMT stack.

    python3 hdbench/run.py --workload cold-sim --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``cold-sim`` — single cold simulations inline (trace, warm, cycle loop);
* ``sweep``    — ``run_performance_experiment``, exact then screening;
* ``service``  — a live ``repro serve`` daemon under a closed loop of a
  connect-per-call client, then a restart on the same cache;
* ``fleet``    — a ``BatchRunner(queue_dir=...)`` front end over
  ``repro worker`` processes, fault-free and then with a straggler.

With ``--trace 0`` the last stdout line carries every end-to-end metric
of ``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, from
spans recorded around each public call (written as Chrome trace-event
JSON under ``.bench_out/``).  Outputs are checked in the same run
(golden digests for the default seed, path identities for any seed); a
mismatch fails the run.  ``--write-golden`` regenerates the digests.

The run is hermetic: inherited ``REPRO_*`` variables are removed, and
every cache, store, queue, socket and temporary file lives in a private
directory under ``.bench_tmp/`` that is deleted at exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0

WORKLOADS = {
    "cold-sim": "cold_sim",
    "sweep": "sweep",
    "service": "service",
    "fleet": "fleet",
}


def scrub_environment() -> list:
    """Drop every inherited ``REPRO_*`` knob (returns their names)."""
    names = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


class Context:
    """What a workload module gets: its inputs, clocks and ledgers."""

    def __init__(self, args, tmp: Path, golden: dict) -> None:
        from harness import Children, Outcome, Tracer

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.root = ROOT
        self.tmp = tmp
        self.nproc = len(os.sched_getaffinity(0))
        self.default_seed = args.seed == DEFAULT_SEED
        self.golden = golden
        self.tracer = Tracer(self.trace)
        self.outcome = Outcome()
        self.info: dict = {}
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        self.children = Children(env, ROOT)

    def private_dir(self, name: str) -> Path:
        path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.tmp))
        return path

    def setup_probe(self, imports: str, construct: str = "pass",
                    samples: int = 5, sampler=None):
        """Median launch → ready seconds over fresh interpreters that
        run ``imports`` then ``construct``, at the reference host speed,
        and the median import time they report.  Each launch is scaled
        by ``sampler``'s probes, or without one by probes around it on
        this process' CPU (which it must then be pinned to)."""
        from statistics import median

        from harness import at_reference_speed, host_probe, ready_time

        code = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            f"{imports}\n"
            "t1 = time.perf_counter()\n"
            f"{construct}\n"
            "print('ready', t1 - t0, flush=True)\n"
        )
        ready, imported = [], []
        for _ in range(samples):
            before = host_probe() if sampler is None else 0.0
            start = time.perf_counter()
            seconds, import_s = ready_time(self.children, code)
            ready.append(
                at_reference_speed(seconds, before, host_probe())
                if sampler is None
                else sampler.at_reference_speed(start, seconds)
            )
            imported.append(import_s)
        return median(ready), median(imported)


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute the default seed's digests and exit")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    scrubbed = scrub_environment()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        if args.write_golden:
            return write_golden()
        return run_workload(args, tmp, scrubbed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def write_golden() -> int:
    golden = {"seed": DEFAULT_SEED}
    for name, module in WORKLOADS.items():
        golden[name] = importlib.import_module(module).golden()
        print(f"golden: {name} done", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def run_workload(args, tmp: Path, scrubbed: list) -> int:
    from harness import layers_on, write_json

    e2e_units, layer_units = declared_metrics()
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {})
    ctx = Context(args, tmp, golden)
    module = importlib.import_module(WORKLOADS[args.workload])
    from repro.core.engine import engine_variant_id

    env_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine_variant": engine_variant_id(),
        "python": platform.python_version(),
        "nproc": ctx.nproc,
        "scrubbed_env": scrubbed,
    }
    t0 = time.perf_counter()
    try:
        e2e, layers = module.run(ctx)
    finally:
        ctx.children.stop_all()
    env_info["run_wall_s"] = round(time.perf_counter() - t0, 3)

    # Layers a workload does not exercise read 0 (see layers.json).
    expected = set(layers_on(args.workload))
    missing = expected - set(layers) if ctx.trace else set()
    extra = (set(layers) - expected) | (set(e2e) ^ set(e2e_units))
    if missing or extra or not expected <= set(layer_units):
        raise SystemExit(f"metric set mismatch: missing {sorted(missing)}, "
                         f"unexpected {sorted(extra)}")
    if ctx.trace:
        chosen = {name: layers.get(name, 0.0) for name in layer_units}
        units = layer_units
    else:
        chosen = e2e
        units = e2e_units
    metrics = {name: {"value": float(chosen[name]), "unit": unit}
               for name, unit in units.items()}

    outcome = ctx.outcome
    report = {
        "env": env_info,
        "info": ctx.info,
        "problems": outcome.problems,
        "e2e": e2e,
        "layers": layers,
        "span_self_seconds": ctx.tracer.self_seconds(),
    }
    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(out_dir / f"{stem}.json", report)
    if ctx.trace:
        write_json(out_dir / f"{stem}.trace.json",
                   ctx.tracer.chrome_trace(env_info))
    print("# env " + json.dumps(env_info, sort_keys=True))
    print("# info " + json.dumps(ctx.info, sort_keys=True))
    for problem in outcome.problems:
        print(f"# FAIL {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
