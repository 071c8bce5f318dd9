"""Passes, measurement loops and metric arithmetic shared by run.py and selfcheck.py.

On a shared host, such as the 2-vCPU Xeon VM the constants below were
measured on, the speed of a CPU drifts by up to half for minutes at a
time.  So every time among the end-to-end metrics is a reference time: the
measured time times ``REFERENCE_LOOP_S / probe``, where ``probe`` is what
a fixed pure-Python loop (``reference_loop``) took next to the
measurement.  Probes run between operations, at least every
``PROBE_INTERVAL_S``; an operation is scaled by the median of the probes
near it, the two around it and ``PROBE_WINDOW`` more on each side.  A
change to the program moves its time and not the probe's; a slower or
faster host moves both.  Raw times are kept next to the reference times.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import execute
from tracing import PER_LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


# Time of reference_loop on the reference host (2-vCPU Xeon VM, Python 3.11)
# at its usual speed.
REFERENCE_LOOP_S = 0.003
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW = 16
# Passes of one run with --seconds 30.  A pass is the whole instance list
# (torus ~13 s, rim ~6.5 s) or one chunk of 373 queries (~1 s) on the
# reference host, and each torus pass is followed by QUICK_ROUNDS rounds of
# its M=2 instances (~1.2 s).  The number of passes is fixed by --seconds, not
# timed, so that every run with the same --seconds attempts the same
# operations and fails the same checks.  A run with --seconds 30 measures for
# about 43 s (torus), 27 s (rim) or 23 s (query) on the reference host.
PASSES_PER_30_S = {"torus": 3, "rim": 4, "query": 22}
QUICK_ROUNDS = 1


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES_PER_30_S[workload] * seconds / 30))


@functools.cache
def _probe_table() -> tuple[dict, list]:
    """A dict of a few MB, past the L2 cache, and its keys in random order."""
    table = {(i * 7919 % 65536, i % 251): i for i in range(65536)}
    keys = list(table)
    random.Random(0).shuffle(keys)
    return table, keys


_next_keys = itertools.count(0, 2000)  # each run looks up keys it did not touch just before


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    Tuples, small dicts, integer and Fraction arithmetic, as in mgnet, then
    lookups in random order in a dict too large for the L2 cache, as in
    mgnet's large instances; the faster of two runs, so that one interrupt
    does not count.
    """
    table, keys = _probe_table()
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        seen: dict = {}
        acc = Fraction(0)
        for i in range(2500):
            key = (i % 97, i % 13)
            seen[key] = seen.get(key, 0) + 1
            if i % 40 == 0:
                acc += Fraction(i, 7)
        sorted(seen.items())
        start = next(_next_keys) % (len(keys) - 2000)
        total = 0
        for key in keys[start:start + 2000]:
            total += table[key]
        best = min(best, time.perf_counter() - t0)
    return best


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def load_program():
    """Import mgnet from this checkout's ``src``; refuse any other copy."""
    init = SRC / "mgnet" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no mgnet sources at {init}")
    sys.path.insert(0, str(SRC))
    import mgnet
    import mgnet.cli
    import mgnet.figures  # noqa: F401  (loaded so the tracer can patch it)
    if Path(mgnet.__file__).resolve() != init.resolve():
        raise BenchError(f"imported mgnet from {mgnet.__file__}, expected {init}")
    return mgnet


@dataclass
class PassStats:
    ops: list                 # the operations (Instance or Query), in input order
    op_digests: list[str]     # per operation, of its outputs
    units: list[int]          # per operation
    seconds: list[float]      # per operation, time inside the program
    ref_seconds: list[float]  # the same, as reference times
    probes: list[float]       # reference_loop times taken during the pass
    groups: list[int]         # groups[i]: operations run between probes i and i + 1
    wall_s: float             # pass time without the probes
    attempted: int
    failed: int
    unknown: list[str]
    digest: str


def run_pass(mg, workload: str, inputs, index: int, tracer: Tracer | None = None) -> PassStats:
    """Pass ``index``: chunk ``index`` (query) or the whole instance list."""
    run_op = execute.run_query if workload == "query" else execute.run_instance
    ops = inputs.get(index) if workload == "query" else inputs
    results, probes, groups = [], [], []  # groups[i]: operations after probes[i]
    probe_s = 0.0
    gc.collect()
    t0 = last = time.perf_counter()
    for op in ops:
        if workload != "query":
            gc.collect()  # outside the timed region: no instance pays for another's garbage
        if not groups or time.perf_counter() - last >= PROBE_INTERVAL_S:
            p0 = time.perf_counter()
            probes.append(reference_loop())
            last = time.perf_counter()
            probe_s += last - p0
            groups.append(0)
        groups[-1] += 1
        if tracer is None:
            results.append(run_op(mg, op))
            continue
        meta = {"op": repr(op)}
        if getattr(op, "shape", None) == "torus":
            meta["copies"] = op.size
        with tracer.operation(meta):
            r = run_op(mg, op, tracer)
        meta["units"] = r.units
        results.append(r)
    wall = time.perf_counter() - t0 - probe_s
    probes.append(reference_loop())
    scale = []
    for g, n in enumerate(groups):
        near = probes[max(0, g - PROBE_WINDOW):g + 2 + PROBE_WINDOW]
        scale += [REFERENCE_LOOP_S / statistics.median(near)] * n
    digest = hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()
    return PassStats(
        ops=list(ops),
        op_digests=[r.digest for r in results],
        units=[r.units for r in results],
        seconds=[r.seconds for r in results],
        ref_seconds=[r.seconds * k for r, k in zip(results, scale)],
        probes=probes,
        groups=groups,
        wall_s=wall,
        attempted=len(results),
        failed=sum(1 for r in results if r.failures),
        unknown=[f for r in results for f in r.unknown],
        digest=digest,
    )


def measure(mg, workload: str, inputs, passes: int) -> list[PassStats]:
    """``passes`` passes; on the torus each is followed by QUICK_ROUNDS rounds of
    its M=2 instances, which get more samples that way at little cost."""
    out = []
    quick = [op for op in inputs if op.size == 2] if workload == "torus" else []
    for i in range(passes):
        out.append(run_pass(mg, workload, inputs, i))
        out += [run_pass(mg, workload, quick, i) for _ in range(QUICK_ROUNDS if quick else 0)]
    return out


def measure_traced(mg, workload: str, inputs, pairs: int):
    """Untraced/traced pass pairs; per-layer medians over the traced passes."""
    passes, per_pass, tracers = [], [], []
    for i in range(pairs):
        plain = run_pass(mg, workload, inputs, i)
        tracer = Tracer()
        with tracer.patched():
            traced = run_pass(mg, workload, inputs, i, tracer)
        if traced.digest != plain.digest:
            traced.unknown.append("tracing-changed-outputs")
        m = tracer.metrics()
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        passes += [plain, traced]
        per_pass.append(m)
        tracers.append(tracer)
    metrics = {k: (statistics.median_low if unit == "count" else statistics.median)(
        [m[k] for m in per_pass]) for k, unit in PER_LAYER_UNITS.items()}
    return passes, metrics, tracers


def latencies(workload: str, passes: list[PassStats], field: str = "ref_seconds") -> list[float]:
    """Per query (query), or per instance as its median over its samples (torus, rim)."""
    if workload == "query":
        return [x for p in passes for x in getattr(p, field)]
    samples: dict = {}
    for p in passes:
        for op, x in zip(p.ops, getattr(p, field)):
            samples.setdefault(op, []).append(x)
    return [statistics.median(xs) for xs in samples.values()]


def deterministic(workload: str, passes: list[PassStats]) -> bool:
    """Every sample of one instance gave the same outputs (query never repeats one)."""
    digests: dict = {}
    for p in passes:
        for op, d in zip(p.ops, p.op_digests):
            digests.setdefault(op, set()).add(d)
    return workload == "query" or all(len(ds) == 1 for ds in digests.values())


def end_to_end(workload: str, passes: list[PassStats], setup_s: float,
               field: str = "ref_seconds") -> dict[str, float]:
    """End-to-end metrics from reference times (``field="seconds"``: from raw times)."""
    seconds = latencies(workload, passes, field)
    if workload == "query":
        throughput = statistics.median(sum(p.units) / sum(getattr(p, field)) for p in passes)
    else:  # passes[0] is a whole pass
        throughput = sum(passes[0].units) / sum(seconds)
    lat = sorted(x * 1e3 for x in seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        # median_high: the instance times of a torus pass have a gap at their middle
        "latency_p50_ms": statistics.median_high(lat),
        "latency_p99_ms": statistics.quantiles(lat, n=100, method="inclusive")[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": 1 - failed / attempted,
    }


def summarize(passes: list[PassStats], determinism_ok: bool) -> dict:
    unknown = [f for p in passes for f in p.unknown]
    if not determinism_ok:
        unknown.append("passes-with-equal-inputs-gave-different-outputs")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": not unknown, "attempted": attempted,
            "failed": failed, "unknown_failures": sorted(set(unknown))}
