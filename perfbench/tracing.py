"""In-memory spans around mgnet's public functions, recorded from outside.

A traced pass patches each wrapped function on every ``mgnet`` module that
binds it (``cli`` binds ``achievable_region`` at import, for example) and
each wrapped method on its class, then restores the originals.  A span is
(id, parent id, operation id, name, start ns, end ns); the layer is the
part of the name before the first dot.  A layer's self time is the time
in its spans not covered by their child spans.  Functions called hundreds
of thousands of times per pass (``canon``, ``masters``) only count calls.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from execute import LEDGER_COUNTS

LAYERS = ("lattice", "association", "topology", "validation", "loads", "regions",
          "figures", "cli")


def _built(counts, net):
    counts["topology.tx_nodes"] += net.n_tx
    counts["topology.links"] += net.q_tx + net.q_rx


def _validated(counts, result):
    subnets, report = result
    counts["validation.subnets"] += len(subnets)
    counts["validation.violations"] += len(report.violations)
    counts["validation.warnings"] += len(report.warnings)


def _ledger(counts, r):
    counts["loads.messages"] += r.tx_message_total + r.rx_message_total
    values = [getattr(r, k) for k in LEDGER_COUNTS] + [r.mu_tx, r.mu_rx]
    counts["loads.negative_counts"] += sum(v < 0 for v in values)


def _region(counts, region):
    counts["regions.regions"] += 1
    counts["regions.vertices"] += len(region.vertices)


def _figure(counts, series):
    counts["figures.series"] += len(series)


# (module, function or Class.method, span name, hook on the result)
SPANS = (
    ("lattice", "PlaneGeometry.nearest_masters", "lattice.nearest_masters", None),
    ("lattice", "TorusGeometry.nearest_masters", "lattice.nearest_masters", None),
    ("association", "assign", "association.assign", None),
    ("topology", "build_wyner", "topology.build", _built),
    ("topology", "build_hex", "topology.build", _built),
    ("topology", "build_hex_torus", "topology.build", _built),
    ("topology", "build_sectored_hex", "topology.build", _built),
    ("topology", "build_sectored_hex_torus", "topology.build", _built),
    ("validation", "validate", "validation.validate", _validated),
    ("validation", "subnet_decompose", "validation.subnet_decompose", None),
    ("loads", "message_ledger", "loads.ledger", _ledger),
    ("loads", "closed_form", "loads.closed_form", None),
    ("loads", "formulas", "loads.formulas", None),
    ("regions", "achievable_region", "regions.region", _region),
    ("regions", "convex_hull", "regions.hull", None),
    ("regions", "boundary_polyline", "regions.boundary", None),
    ("regions", "outer_polygon_wyner", "regions.outer_polygon", None),
    ("regions", "outer_bound_wyner", "regions.outer_bound", None),
    ("regions", "is_subset", "regions.subset", None),
    ("figures", "build_figure", "figures.figure", _figure),
    ("cli", "main", "cli.main", None),
    ("cli", "make_parser", "cli.parser", None),
)
CALL_COUNTS = (
    ("lattice", "TorusGeometry.masters", "lattice.masters_calls"),
    ("lattice", "TorusGeometry.canon", "lattice.canon_calls"),
)

# Per-layer metrics of one traced pass, with their units.
PER_LAYER_UNITS = {
    "lattice.nearest_masters_s": "s",
    "lattice.nearest_masters_calls": "count",
    "lattice.masters_calls": "count",
    "lattice.canon_calls": "count",
    "association.assign_s": "s",
    "association.assign_us_per_cell.m2": "us",
    "association.assign_us_per_cell.m6": "us",
    "topology.build_s": "s",
    "topology.tx_nodes": "count",
    "topology.links": "count",
    "validation.validate_s": "s",
    "validation.subnet_decompose_s": "s",
    "validation.subnets": "count",
    "validation.violations": "count",
    "validation.warnings": "count",
    "loads.ledger_s": "s",
    "loads.messages": "count",
    "loads.closed_form_calls": "count",
    "loads.mismatches": "count",
    "loads.negative_counts": "count",
    "regions.region_s": "s",
    "regions.hull_s": "s",
    "regions.regions": "count",
    "regions.vertices": "count",
    "figures.figure_s": "s",
    "figures.series": "count",
    "cli.main_s": "s",
    "cli.parser_s": "s",
    "cli.output_bytes": "count",
    "cli.nonzero_exits": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
SPAN_TOTALS = {  # metric -> span name whose durations it sums
    "lattice.nearest_masters_s": "lattice.nearest_masters",
    "association.assign_s": "association.assign",
    "topology.build_s": "topology.build",
    "validation.validate_s": "validation.validate",
    "validation.subnet_decompose_s": "validation.subnet_decompose",
    "loads.ledger_s": "loads.ledger",
    "regions.region_s": "regions.region",
    "regions.hull_s": "regions.hull",
    "figures.figure_s": "figures.figure",
    "cli.main_s": "cli.main",
    "cli.parser_s": "cli.parser",
}


SPAN_FIELDS = ("pass", "id", "parent", "op", "name", "start_ns", "end_ns")


def _mgnet_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "mgnet" or name.startswith("mgnet.")]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.ops: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._stack: list[int] = [0]
        self._op = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def _wrap_span(self, fn, name, hook):
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self._op, name, t0, t1))
            if hook is not None:
                hook(self.counts, result)
            return result
        return traced

    def _wrap_count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def operation(self, meta: dict):
        """Root span of one benchmark operation; ``meta`` is kept with the spans."""
        self._op = next(self._ids)
        self.ops[self._op] = meta
        self._stack = [self._op]
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((self._op, 0, self._op, "bench.op", t0, perf_counter_ns()))
            self._stack = [0]

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers on every loaded mgnet module; restore them on exit."""
        undo = []
        targets = [(m, p, lambda f, n=n, h=h: self._wrap_span(f, n, h)) for m, p, n, h in SPANS]
        targets += [(m, p, lambda f, n=n: self._wrap_count(f, n)) for m, p, n in CALL_COUNTS]
        try:
            for module, path, wrap in targets:
                owner = sys.modules[f"mgnet.{module}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[attr]
                    undo.append((cls, attr, orig))
                    setattr(cls, attr, wrap(orig))
                    continue
                orig = getattr(owner, path)
                wrapper = wrap(orig)
                for mod in _mgnet_modules():
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (all of PER_LAYER_UNITS except the overhead)."""
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            covered[parent] += t1 - t0
        total_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        self_ns: dict[str, int] = defaultdict(int)
        assign_ns: dict[int, int] = defaultdict(int)
        for sid, _, op, name, t0, t1 in self.spans:
            total_ns[name] += t1 - t0
            calls[name] += 1
            self_ns[name.split(".")[0]] += t1 - t0 - covered[sid]
            if name == "association.assign" and "copies" in self.ops[op]:
                assign_ns[self.ops[op]["copies"]] += t1 - t0
        cells: dict[int, int] = defaultdict(int)
        for meta in self.ops.values():
            if "copies" in meta:
                cells[meta["copies"]] += meta.get("units", 0)

        out: dict[str, float] = {k: self.counts[k] for k, unit in PER_LAYER_UNITS.items()
                                 if unit == "count"}
        out.update({k: total_ns[span] / 1e9 for k, span in SPAN_TOTALS.items()})
        out.update({f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS})
        for m in (2, 6):
            out[f"association.assign_us_per_cell.m{m}"] = \
                assign_ns[m] / 1e3 / cells[m] if cells[m] else 0.0
        out["lattice.nearest_masters_calls"] = calls["lattice.nearest_masters"]
        out["loads.closed_form_calls"] = calls["loads.closed_form"]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, fh, pass_index: int) -> None:
        """One JSON line per operation, then one array per span in SPAN_FIELDS order."""
        for op, meta in self.ops.items():
            fh.write(json.dumps({"pass": pass_index, "op": op, "meta": meta}) + "\n")
        for span in self.spans:
            fh.write(json.dumps([pass_index, *span]) + "\n")
