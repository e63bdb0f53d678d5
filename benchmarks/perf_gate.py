#!/usr/bin/env python
"""Performance gate: an interleaved hdbench A/B of this tree against its
merge base, run in one session on one machine.

    python benchmarks/perf_gate.py [BASE_REF]     # default: origin/main

The merge base of ``HEAD`` and ``BASE_REF`` is checked out into a
temporary ``git worktree`` (the "parent"); this working tree, with any
uncommitted edits, is the "change".  For every workload of
``BENCHMARK.json`` each tree runs its own

    hdbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

``PAIRS`` times, one seed per pair, alternating which side runs first.
Both sides are measured side by side, so no recorded baseline is needed
and the gate means the same on any machine.

Exit 1 when any run reports ``correct: false``, when the change fails a
larger share of operations than the parent on a workload, or when the
median of an end-to-end metric is worse than the parent's by more than
its ``bound``.  Each metric's ``better`` direction and ``bound`` come from
``BENCHMARK.json``; the gate has no other settings.  It prints one table
and writes every run's numbers to ``.bench_out/perf_gate.json``, and no
tracked file.  Exit 2 when the merge base cannot be checked out or has
no ``hdbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from statistics import median, quantiles

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / ".bench_out" / "perf_gate.json"

#: hdbench runs per side and workload; pair ``i`` uses seed ``i`` (seed 0
#: also checks hdbench's golden digests) and the parent runs first in
#: the even pairs.
PAIRS = 3

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True,
        text=True,
    ).stdout.strip()


@contextmanager
def worktree(commit: str):
    """``commit`` checked out in a detached worktree under the ignored
    ``.bench_tmp/``, removed on exit."""
    scratch = REPO_ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perf-gate-", dir=scratch))
    tree = tmp / "parent"
    git("worktree", "add", "--detach", str(tree), commit)
    try:
        yield tree
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                       cwd=REPO_ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=REPO_ROOT,
                       capture_output=True)


def run_hdbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One hdbench run in ``tree``: its last stdout line (the result JSON)
    plus the ``# FAIL`` lines before it; a run that prints no result
    counts as incorrect."""
    proc = subprocess.run(
        [sys.executable, "hdbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    problems = [line[len("# FAIL "):] for line in lines
                if line.startswith("# FAIL ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"),
                                                      dict):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "problems": [f"exit {proc.returncode}, no result line", *tail]}
    result["problems"] = problems
    return result


def measure(trees: dict, workloads: list, seconds: float) -> dict:
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for w in workloads:
        for seed in range(PAIRS):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_hdbench(trees[side], w, seed, seconds)
                runs[w][side].append(result)
                print(f"[perf-gate] {w} seed {seed} {side}: "
                      f"{'correct' if result['correct'] else 'INCORRECT'}",
                      flush=True)
    return runs


def relative_change(parent: float, change: float) -> float:
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def judge(runs: dict, spec: dict) -> tuple:
    """The report's per-workload sections, the table rows and the list
    of failures."""
    sections, rows, failures = {}, [], []
    for w, sides in runs.items():
        for side, results in sides.items():
            for seed, r in enumerate(results):
                if not r["correct"]:
                    failures.append(f"{w}: {side} run with seed {seed} is "
                                    f"not correct: {'; '.join(r['problems'])}")
        failed = {s: sum(r["failed"] for r in sides[s]) for s in SIDES}
        share = {s: failed[s] / max(1, sum(r["attempted"] for r in sides[s]))
                 for s in SIDES}
        if share["change"] > share["parent"]:
            failures.append(f"{w}: the change fails {share['change']:.2%} of "
                            f"operations, the parent {share['parent']:.2%}")
        metrics = {}
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            values = {s: [r["metrics"][name]["value"] for r in sides[s]
                          if name in r["metrics"]] for s in SIDES}
            if not values["parent"] or not values["change"]:
                missing = [s for s in SIDES if not values[s]]
                rows.append((w, name, better, bound, None, None, None,
                             f"no value from the {' and '.join(missing)}"))
                if "change" in missing:
                    failures.append(f"{w} {name}: no value from the change")
                continue
            p, c = median(values["parent"]), median(values["change"])
            delta = relative_change(p, c)
            worse = delta if better == "lower" else -delta
            verdict = "ok" if worse <= bound else "WORSE"
            if verdict != "ok":
                failures.append(f"{w} {name}: median {c:.4g} against the "
                                f"parent's {p:.4g} ({delta:+.1%}, {better} is "
                                f"better, bound {bound:.0%})")
            rows.append((w, name, better, bound, p, c, delta, verdict))
            wins = sum((b < a) if better == "lower" else (b > a)
                       for a, b in zip(values["parent"], values["change"]))
            metrics[name] = {
                "parent": [round(v, 4) for v in values["parent"]],
                "change": [round(v, 4) for v in values["change"]],
                "parent_median": round(p, 4),
                "change_median": round(c, 4),
                "parent_iqr": round(iqr(values["parent"]), 4),
                "change_vs_parent_pct": round(100 * delta, 1),
                "change_wins": wins,
            }
        sections[w] = {
            "seeds": list(range(PAIRS)),
            "all_correct": all(r["correct"] for s in SIDES for r in sides[s]),
            "failed": failed,
            "metrics": metrics,
        }
    return sections, rows, failures


def print_table(rows: list) -> None:
    print(f"{'workload':10s} {'metric':12s} {'better':6s} {'bound':>5s} "
          f"{'parent':>11s} {'change':>11s} {'delta':>8s}  verdict")
    for w, name, better, bound, p, c, delta, verdict in rows:
        if p is None:
            cells = f"{'-':>11s} {'-':>11s} {'-':>8s}"
        else:
            cells = f"{p:11.4g} {c:11.4g} {delta:+8.1%}"
        print(f"{w:10s} {name:12s} {better:6s} {bound:5.0%} {cells}  "
              f"{verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", default="origin/main",
                        help="ref whose merge base with HEAD is the parent "
                             "(default: origin/main)")
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        base = git("merge-base", "HEAD", args.base)
        head = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except subprocess.CalledProcessError as exc:
        print(f"[perf-gate] error: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    print(f"[perf-gate] parent: merge base {base[:12]} of HEAD and "
          f"{args.base}; change: {head[:12]}"
          f"{' plus uncommitted edits' if dirty else ''}; {PAIRS} pairs per "
          f"workload, {spec['run_seconds']} s each", flush=True)

    try:
        with worktree(base) as parent_tree:
            if not (parent_tree / "hdbench" / "run.py").is_file():
                print(f"[perf-gate] error: merge base {base[:12]} has no "
                      "hdbench/run.py", file=sys.stderr)
                return 2
            runs = measure({"parent": parent_tree, "change": REPO_ROOT},
                           workloads, spec["run_seconds"])
    except subprocess.CalledProcessError as exc:
        print(f"[perf-gate] error: {exc.stderr.strip()}", file=sys.stderr)
        return 2

    sections, rows, failures = judge(runs, spec)
    print_table(rows)
    nproc = len(os.sched_getaffinity(0))
    report = {
        "benchmark": (
            "hdbench: python3 hdbench/run.py --workload W --seed S "
            f"--seconds {spec['run_seconds']} --trace 0, merge base against "
            f"this tree, {PAIRS} interleaved pairs per workload "
            "(benchmarks/perf_gate.py)"
        ),
        "machine": f"{platform.system()}-{platform.machine()}, {nproc} vCPU, "
                   f"{platform.python_implementation()} "
                   f"{platform.python_version()}",
        "change": f"{head}{' plus uncommitted edits' if dirty else ''} "
                  f"against merge base {base} of {args.base}",
        "rounds": {"gate": {
            "note": "seed i is pair i; the parent runs first in even pairs",
            "workloads": sections,
        }},
        "failures": failures,
    }
    REPORT.parent.mkdir(exist_ok=True)
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"[perf-gate] report: {REPORT.relative_to(REPO_ROOT)}")
    if failures:
        print("[perf-gate] FAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("[perf-gate] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
