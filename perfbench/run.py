"""Benchmark of the mgnet library and command line.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout: the program is imported from
``src/mgnet`` of that checkout and nowhere else.  One process, one thread,
closed loop with one client.  Inputs come from ``--seed`` (see
workloads.py).  A pass is the whole instance list (torus, rim) or one
chunk of 373 queries (query); a run is a warm-up pass over the tiny inputs
and then a fixed number of passes for ``--seconds`` (harness.passes_for),
so that runs with the same ``--seconds`` attempt the same operations.  On
the torus, each pass is followed by one more round of its M=2 instances.

``--trace 0`` prints the end-to-end metrics of untraced passes, one set
for every workload.  Times are reference times (harness.py: measured time
scaled by a pure-Python probe loop run next to it, which takes the host's
drifting speed out); the raw times are printed above the result line.

    setup_s           median over fresh interpreters of import mgnet + inputs
    throughput_per_s  Tx cells (torus, rim) or queries (query) per second
                      spent inside the program
    latency_p50_ms    per instance (its median over samples) or per query
    latency_p99_ms
    peak_rss_mb       peak resident memory of the measuring process
    ok_rate           operations whose output checks all passed / attempted

``failed`` counts operations with a failed check, the known hex D=2 CoMP-Tx
defect included; ``correct`` is false on any other failure (execute.py).

``--trace 1`` alternates an untraced and a traced pass over the same
inputs and prints the per-layer metrics of the traced passes (medians per
pass, raw times); ``trace.overhead_s`` is traced minus untraced pass time.
Spans and results are written under ``perfbench/results/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Earlier lines repeat each metric by name and unit for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selfcheck
import workloads
from harness import (E2E_UNITS, HERE, REFERENCE_LOOP_S, ROOT, BenchError, deterministic,
                     end_to_end, load_program, measure, measure_traced, passes_for,
                     reference_loop, run_pass, summarize)
from tracing import PER_LAYER_UNITS, SPAN_FIELDS

RESULTS = HERE / "results"
SETUP_SAMPLES = 7

# What the generic end-to-end names are called on each workload.
UNIT_OF_WORK = {"torus": "Tx cells", "rim": "Tx cells", "query": "queries"}
METRIC_ALIASES = {
    "torus": {"throughput_per_s": "cells_per_s"},
    "rim": {"throughput_per_s": "cells_per_s"},
    "query": {"throughput_per_s": "queries_per_s", "latency_p50_ms": "query_p50_ms",
              "latency_p99_ms": "query_p99_ms"},
}


def measure_setup(workload: str, seed: int, samples: int = SETUP_SAMPLES) -> tuple[float, float]:
    """Medians over fresh interpreters of ``import mgnet`` plus input generation.

    Returns (reference seconds, raw seconds); each interpreter runs the
    probe loop right after its timed part.
    """
    ref, raw = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        seconds, probe = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        ref.append(seconds * REFERENCE_LOOP_S / probe)
    return statistics.median(ref), statistics.median(raw)


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:  # read-only; absent off Linux
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "cpu_model": cpu,
            "machine": platform.machine()}


def _print_metrics(workload: str, metrics: dict, units: dict, passes, raw=None) -> None:
    if workload == "query":
        samples = f"n={sum(p.attempted for p in passes)} queries"
    else:
        samples = f"n={passes[0].attempted} instances, each the median of its samples"
    for name, value in metrics.items():
        alias = METRIC_ALIASES.get(workload, {}).get(name)
        note = f" (= {alias})" if alias else ""
        if name.startswith("latency"):
            note += f" over {samples}"
        tail = f" (raw {raw[name]:.6g})" if raw is not None and raw[name] != value else ""
        print(f"  {name}{note}: {value:.6g} {units[name]}{tail}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    mg = load_program()  # first, so that every set-up probe finds compiled bytecode
    setup_s, setup_raw_s = measure_setup(workload, seed) if not trace else (None, None)
    inputs = workloads.make_inputs(workload, seed)
    env = environment()
    print(f"mgnet benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env: " + json.dumps(env))

    warm = run_pass(mg, workload, workloads.make_inputs(workload, seed, tiny=True), 0)
    n = passes_for(workload, seconds)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    raw = None
    if trace:
        passes, metrics, tracers = measure_traced(mg, workload, inputs, max(1, n // 2))
        units = PER_LAYER_UNITS
        with open(f"{stem}.spans.jsonl", "w") as fh:
            fh.write(json.dumps({"span_fields": SPAN_FIELDS}) + "\n")
            for i, tracer in enumerate(tracers):
                tracer.write(fh, i)
    else:
        passes = measure(mg, workload, inputs, n)
        metrics = end_to_end(workload, passes, setup_s)
        raw = end_to_end(workload, passes, setup_raw_s, field="seconds")
        units = E2E_UNITS
    summary = summarize(passes, deterministic(workload, passes))
    if warm.unknown:
        summary["correct"] = False
        summary["unknown_failures"] = sorted(set(summary["unknown_failures"] + warm.unknown))

    probes = [x for p in passes for x in p.probes]
    print(f"passes={len(passes)} operations={summary['attempted']} "
          f"{UNIT_OF_WORK[workload]}/pass={sum(passes[0].units)} digest(pass 0)={passes[0].digest}")
    print(f"host speed: probe loop median {statistics.median(probes) * 1e3:.4g} ms "
          f"(reference {REFERENCE_LOOP_S * 1e3:.4g} ms) over {len(probes)} probes")
    print(f"error_rate: {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']} failed / {summary['attempted']} attempted; "
          f"unknown failures: {summary['unknown_failures'] or 'none'})")
    _print_metrics(workload, metrics, units, passes, raw)

    result = {"correct": summary["correct"], "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "env": env,
                   "digest": passes[0].digest, "passes": len(passes), **summary,
                   "metrics": result["metrics"], "raw_metrics": raw,
                   "probe_s": probes}, fh, indent=1)
    print(json.dumps(result))
    return 0


def setup_probe(workload: str, seed: int) -> int:
    t0 = time.perf_counter()
    load_program()
    workloads.make_inputs(workload, seed)
    print(time.perf_counter() - t0, reference_loop())
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes, and so set and dict layouts, then agree between runs
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload at tiny sizes and check the runner itself")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.self_check:
            return selfcheck.self_check()
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
