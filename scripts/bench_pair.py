#!/usr/bin/env python3
"""Alternating benchmark pairs of two commits, summarised into one JSON file.

    python scripts/bench_pair.py BASE CHANGE --out BENCH_<n>.json \\
        [--workload {torus,rim,query} ...] [--pairs 10] [--seed 700] [--seconds 30]
        [--scratch DIR]

Without ``--workload`` every workload runs: torus, rim and query, in that
order; the option, given once or more, picks some of them.

BASE and CHANGE are anything ``git archive`` takes (a commit, a branch, a
tree id: ``git add -A && git write-tree`` names the staged work tree
without committing it); the file records each side's id, tree id and
``src/`` tree id.  Each is unpacked once into the scratch directory
(a fresh temporary one by default), and ``perfbench/run.py --trace 0`` runs
from there, so each side benchmarks its own ``src/`` and its own bench.

Pair i runs both sides on seed ``--seed + i``, base first in even pairs
and change first in odd ones.  Per workload and end-to-end metric the file
records each side's median and quartiles over the pairs, the ratio of the
medians (change / base) and in how many pairs the change was strictly
better (``better`` from BENCHMARK.json).  It also records whether each pair
gave equal pass-0 digests, and a probe of the host.  Plain Python only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("torus", "rim", "query")


def rev_parse(ref: str) -> str:
    return subprocess.run(["git", "rev-parse", ref], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(ref: str, into: Path) -> str:
    """Unpack ``ref`` with ``git archive`` into ``into``; return its tree id."""
    tree = rev_parse(f"{ref}^{{tree}}")
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", tree], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into)
    if archive.wait():
        raise SystemExit(f"git archive {ref} failed")
    return tree


def run_once(where: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its metrics and pass-0 digest."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=where, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{where}: perfbench exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    saved = json.loads((where / "perfbench" / "results"
                        / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "digest": saved["digest"]}


def spread(values: list[float]) -> dict:
    """The median and quartiles of ``values``; all three are the value of a single run."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the ratio and the change's wins."""
    out = {}
    for name in runs[0][0]["metrics"]:
        base = [b["metrics"][name] for b, _ in runs]
        change = [c["metrics"][name] for _, c in runs]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        b, c = spread(base), spread(change)
        out[name] = {"better": better.get(name, "lower"), "base": b, "change": c,
                     "ratio": c["median"] / b["median"] if b["median"] else None,
                     "wins": sum(sign * (y - x) < 0 for x, y in zip(base, change)),
                     "base_runs": base, "change_runs": change}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default: all three)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=700)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--scratch", type=Path)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="mgnet-bench-pair-"))
    sides = {}
    for side in ("base", "change"):
        ref = getattr(args, side)
        where = scratch / side
        sides[side] = {"id": rev_parse(ref), "tree": unpack(ref, where),
                       "src": rev_parse(f"{ref}:src"), "path": where}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report = {"base": {k: sides["base"][k] for k in ("id", "tree", "src")},
              "change": {k: sides["change"][k] for k in ("id", "tree", "src")},
              "seeds": [args.seed, args.seed + args.pairs - 1], "seconds": args.seconds,
              "pairs": args.pairs,
              "host": {"platform": platform.platform(), "python": platform.python_version(),
                       "cpus": os.cpu_count()},
              "workloads": {}}
    for workload in args.workload or WORKLOADS:
        runs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {side: run_once(sides[side]["path"], workload, args.seed + i, args.seconds)
                   for side in order}
            runs.append((got["base"], got["change"]))
            base, change = got["base"]["metrics"], got["change"]["metrics"]
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{name} {base[name]:.4g} -> {change[name]:.4g}"
                for name in ("throughput_per_s", "latency_p50_ms", "latency_p99_ms")),
                flush=True)
        report["workloads"][workload] = {
            "digests_equal": [b["digest"] == c["digest"] for b, c in runs],
            "correct": all(b["correct"] and c["correct"] for b, c in runs),
            "metrics": summarise(runs, better),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # after every workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
