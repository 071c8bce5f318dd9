"""Run one benchmark operation against mgnet and check its outputs.

Every library function is looked up on its module at call time, so the
tracer's patched names are the ones called.  Only the program's own calls
are inside the timed region; output checks and digests run after it.

An operation fails when any of its checks fails.  A failure is *known*
when it is the negative hexagonal D=2 CoMP-transmission prelog (ROADMAP
item 3: ``formulas(HEX, 2, L)["mu_t_tx"] == -L/3``, and the torus ledger
agrees with it).  Known failures are counted like any other failure; only
an unknown one marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import Instance, Query

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

LEDGER_COUNTS = ("precancel_msgs", "fast_share_msgs", "fanin_msgs", "fanout_msgs",
                 "q_dedup", "fast_master_dedup", "tx_message_total", "rx_message_total",
                 "max_tx_link_load", "max_rx_link_load")
KNOWN_DEFECT_FAILURES = {"negative:ledger.tx_message_total", "negative:ledger.mu_tx",
                         "negative:closed_form.mu_tx"}


def known_defect(model: str, D: int, scheme: str, failure: str) -> bool:
    """The negative hex D=2 CoMP-Tx prelog and the counts that reproduce it."""
    if model != "hex":
        return False
    if failure == "negative:sweep.mu_t_tx@D=2":
        return True
    return D == 2 and scheme == "both-tx" and failure in KNOWN_DEFECT_FAILURES


def _unknown(failures: list[str], model: str, D: int, scheme: str) -> list[str]:
    return [f for f in failures if not known_defect(model, D, scheme, f)]


@dataclass
class OpResult:
    units: int                 # Tx cells (torus, rim) or 1 (query)
    seconds: float             # time inside the program
    digest: str
    failures: list[str]
    unknown: list[str]         # the failures that are not the known defect


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _build(mg, inst: Instance, scheme):
    topo = mg.topology
    if inst.shape == "line":
        return topo.build_wyner(inst.size, inst.L)
    if inst.shape == "ball":
        builder = topo.build_hex if inst.model == "hex" else topo.build_sectored_hex
        return builder(inst.size, inst.L)
    model = topo.HEX if inst.model == "hex" else topo.SECTORED
    tau = max(1, mg.association.scheme_tau(model, scheme, inst.D))
    builder = topo.build_hex_torus if inst.model == "hex" else topo.build_sectored_hex_torus
    return builder(tau, inst.size, inst.L)


def run_instance(mg, inst: Instance, tracer=None) -> OpResult:
    """build -> assign -> validate -> ledger -> closed form (-> Wyner region)."""
    scheme = mg.association.SCHEME_ALIASES[inst.scheme]
    region = inside = None
    t0 = perf_counter()
    net = _build(mg, inst, scheme)
    assoc = mg.association.assign(net, inst.D, scheme)
    subnets, report = mg.validation.validate(net, assoc)
    ledger = mg.loads.message_ledger(net, assoc, subnets)
    cf = mg.loads.closed_form(net.model, scheme, inst.D, inst.L)
    if inst.model == "wyner":
        region = mg.regions.achievable_region(net.model, inst.D, inst.L, ledger.mu_tx, ledger.mu_rx)
        inside = mg.regions.is_subset(region, mg.regions.outer_bound_wyner(inst.D, inst.L))
    seconds = perf_counter() - t0

    failures = []
    if not report.ok:
        failures.append("validation-not-ok")
    if (inst.shape == "torus" or inst.model == "wyner") and \
            (ledger.mu_tx, ledger.mu_rx) != (cf.mu_tx, cf.mu_rx):
        failures.append("ledger-mismatch")
        if tracer is not None:
            tracer.count("loads.mismatches")
    values = {f"ledger.{k}": getattr(ledger, k) for k in LEDGER_COUNTS + ("mu_tx", "mu_rx")}
    values.update({f"closed_form.{k}": getattr(cf, k) for k in ("s_f", "s_s", "mu_tx", "mu_rx")})
    failures += [f"negative:{k}" for k, v in values.items() if v < 0]
    if region is not None:
        if not inside:
            failures.append("region-outside-outer-bound")
        if any(v < 0 for p in region.vertices for v in p):
            failures.append("negative:region.vertex")

    roles = "".join(assoc.roles[k].value for k in net.tx_nodes)
    subs = [(len(s.members), s.master, sum(s.gamma.values()), len(s.slow_members))
            for s in subnets]
    digest = _sha(inst, roles, assoc.masters, _json(report.to_json_dict()), subs,
                  _json(ledger.to_json_dict()), _json(cf.to_json_dict()),
                  region.vertices if region is not None else None)
    return OpResult(net.n_tx, seconds, digest, failures,
                    _unknown(failures, inst.model, inst.D, inst.scheme))


@functools.cache
def _expected_figure(name: str) -> str:
    return (EXPECTED_DIR / f"{name}.csv").read_text()


def _nonnegative_fields(obj: dict, prefix: str) -> list[str]:
    return [f"negative:{prefix}.{k}" for k, v in obj.items()
            if isinstance(v, dict) and "num" in v and v["num"] < 0]


def _check_query(q: Query, text: str) -> list[str]:
    if q.kind == "figure":
        return [] if text == _expected_figure(q.argv[-1]) else ["figure-differs-from-reference"]
    if q.kind == "closed-form":
        return _nonnegative_fields(json.loads(text), "closed_form")
    if q.kind == "region" and text.startswith("{"):
        verts = json.loads(text)["vertices"]
        return ["negative:region.vertex"] if any(v["num"] < 0 for p in verts for v in p) else []
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["empty-output"]
    if q.kind == "region":
        bad = any(int(r["s_f_num"]) < 0 or int(r["s_s_num"]) < 0 for r in rows)
        return ["negative:region.vertex"] if bad else []
    return sorted({f"negative:sweep.{k}@D={r['D']}" for r in rows for k, v in r.items()
                   if k != "D" and Fraction(v) < 0})


def run_query(mg, q: Query, tracer=None) -> OpResult:
    """One ``mgnet`` command line through ``mgnet.cli.main`` with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = mg.cli.main(list(q.argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = perf_counter() - t0
    text = out.getvalue()
    if tracer is not None:
        tracer.count("cli.output_bytes", len(text.encode()))
        tracer.count("cli.nonzero_exits", int(code != 0))
    failures = [f"exit-code-{code}"] if code != 0 else _check_query(q, text)
    return OpResult(1, seconds, _sha(q.argv, code, text), failures,
                    _unknown(failures, q.model, q.D, q.scheme))
