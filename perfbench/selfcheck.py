"""Fast check of the runner itself at tiny sizes (a few seconds).

For every workload: the same seed gives the same inputs and the same
output digest, tracing changes no output and restores every patched name,
every per-layer metric is reported, no unknown check fails, the known
hex D=2 CoMP-Tx defect is counted on the torus, and another seed attempts
and fails as many operations.  The metric names and units must match
BENCHMARK.json, and the reference figure CSVs must match the committed
``out/figures`` when that directory exists.
"""

from __future__ import annotations

import json

import harness
import workloads
from tracing import PER_LAYER_UNITS, Tracer


def _check_workload(mg, workload: str) -> list[str]:
    problems = []
    plain = harness.run_pass(mg, workload, workloads.make_inputs(workload, 7, tiny=True), 0)
    again = harness.run_pass(mg, workload, workloads.make_inputs(workload, 7, tiny=True), 0)
    if plain.digest != again.digest:
        problems.append("same seed gave different digests")
    measured = harness.measure(mg, workload, workloads.make_inputs(workload, 7, tiny=True), 1)
    if not harness.deterministic(workload, measured + [plain]):
        problems.append("samples of one instance gave different outputs")
    other = harness.run_pass(mg, workload, workloads.make_inputs(workload, 8, tiny=True), 0)
    if other.digest == plain.digest:
        problems.append("different seeds gave the same digest")
    if (other.attempted, other.failed) != (plain.attempted, plain.failed):
        problems.append("different seeds attempted or failed a different number of operations")
    if not plain.probes or len(plain.ref_seconds) != plain.attempted:
        problems.append("pass took no host-speed probes")

    originals = {name: getattr(mg.cli, name) for name in ("main", "achievable_region", "assign")}
    tracer = Tracer()
    with tracer.patched():
        traced = harness.run_pass(mg, workload, workloads.make_inputs(workload, 7, tiny=True),
                                  0, tracer)
    if any(getattr(mg.cli, name) is not fn for name, fn in originals.items()):
        problems.append("tracer left a patched name behind")
    if traced.digest != plain.digest:
        problems.append("tracing changed the outputs")
    metrics = tracer.metrics()
    missing = set(PER_LAYER_UNITS) - set(metrics) - {"trace.overhead_s"}
    if missing:
        problems.append(f"per-layer metrics missing: {sorted(missing)}")
    reached = {"torus": "lattice.nearest_masters_calls", "rim": "validation.subnets",
               "query": "cli.main_s"}[workload]
    if not metrics[reached] > 0:
        problems.append(f"traced pass recorded no {reached}")
    if plain.unknown:
        problems.append(f"unknown failures: {sorted(set(plain.unknown))}")
    if workload == "torus" and plain.failed == 0:
        problems.append("the known hex D=2 CoMP-Tx failure was not counted")

    e2e = harness.end_to_end(workload, [plain, again], 0.01)
    if set(e2e) != set(harness.E2E_UNITS):
        problems.append("end-to-end metric names differ from E2E_UNITS")
    return problems


def _check_declared() -> list[str]:
    problems = []
    spec_path = harness.ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != harness.E2E_UNITS:
            problems.append("BENCHMARK.json end_to_end differs from the runner")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared != PER_LAYER_UNITS:
            problems.append("BENCHMARK.json per_layer differs from the runner")
        if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from the runner")
    committed = harness.ROOT / "out" / "figures"
    for name in workloads.FIGURES:
        ref = committed / f"{name}.csv"
        ours = harness.HERE / "expected" / f"{name}.csv"
        if ref.is_file() and ref.read_bytes() != ours.read_bytes():
            problems.append(f"expected/{name}.csv differs from out/figures/{name}.csv")
    return problems


def self_check() -> int:
    mg = harness.load_program()
    problems = _check_declared()
    for workload in workloads.WORKLOADS:
        found = _check_workload(mg, workload)
        print(f"{workload}: {'ok' if not found else '; '.join(found)}")
        problems += found
    print("self-check " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1
