"""The decomposition and the ledger against a plain per-node reference.

``ref_subnet_decompose``, ``ref_message_ledger`` and ``ref_link_loads`` keep
the straightforward implementation: a cell set and a rebuilt ``gamma`` per
component, a second pass over every interference edge for the
cross-component check, and a separate link-load pass fed by one
(node, slow interferers, cells) triple per fast node.  The library counts
the same things inside the component BFS and inside ``message_ledger``;
every field of every output must match.

A Wyner line whose period the library proves is decomposed and counted
from one period; those outputs must match both the reference and the
library's own general walk, column by column.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import accumulate
from unittest import mock

import pytest

from mgnet import (HEX, SECTORED, WYNER, LoadReport, Role, Scheme, Subnet,
                   ValidationReport, assign, build_hex, build_sectored_hex,
                   build_wyner, check_params, message_ledger, subnet_decompose, validation)
from mgnet.loads import _asymptotic_denominators, _wyner_q_dedup
from mgnet.validation import hop_budget

from test_loads import _oracle_networks, _raises, valid_range


def ref_components(net, roles):
    owner = [None] * len(roles)
    comps = []
    for start in net.tx_nodes:
        if owner[start] is not None or roles[start] is Role.SILENT:
            continue
        i = len(comps)
        owner[start] = i
        comp = [start]
        for u in comp:
            for v in net.interference[u]:
                if owner[v] is None and roles[v] is not Role.SILENT:
                    owner[v] = i
                    comp.append(v)
        comps.append(sorted(comp))
    return comps, owner


def ref_bfs_hops(adj, allowed, start):
    hops = {start: 0}
    frontier = [start]
    g = 0
    while frontier:
        g += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in allowed and v not in hops:
                    hops[v] = g
                    nxt.append(v)
        frontier = nxt
    return hops


def ref_subnet_decompose(net, assoc):
    report = ValidationReport(hop_budget=hop_budget(assoc.scheme, assoc.D))
    roles = assoc.roles
    comps, owner = ref_components(net, roles)
    relaxed = net.model == WYNER or "radius" in net.params
    master_set = set(assoc.masters)
    adj = net.tx_coop if assoc.scheme.comp_side == "tx" else net.rx_coop
    subnets = []
    for comp in comps:
        slow = tuple(k for k in comp if roles[k] is Role.SLOW)
        cells = {net.tx_cell[k] for k in comp}
        masters = sorted(cells & master_set)
        master = masters[0] if len(masters) == 1 else None
        if len(masters) > 1:
            report.subnets_disjoint = False
            report.violations.append((masters[1], "multi-master"))
        elif not masters and assoc.scheme.cooperative:
            if relaxed:
                report.warnings.append(f"partial-subnet:{comp[0]}")
            else:
                report.master_reachable = False
                report.violations.append((comp[0], "no-master"))
        gamma = {}
        if master is not None:
            hops = ref_bfs_hops(adj, cells, master)
            gamma = {k: hops[c] for k in comp if (c := net.tx_cell[k]) in hops}
            for k in comp:
                if k not in gamma:
                    report.master_reachable = False
                    report.violations.append((k, "unreachable"))
        subnets.append(Subnet(tuple(comp), master, gamma, slow))
    for k in net.tx_nodes:
        i = owner[k]
        if i is None:
            continue
        for j in net.interference[k]:
            o = owner[j]
            if o is not None and o != i:
                report.subnets_disjoint = False
                report.violations.append((k, f"cross-subnet-interference-{j}"))
    return subnets, report


def ref_message_ledger(net, assoc, subnets):
    roles, scheme = assoc.roles, assoc.scheme
    D, L = assoc.D, net.L
    precancel = fast_share = 0
    fast_cells = []
    for k in net.tx_nodes:
        if roles[k] is not Role.FAST:
            continue
        slow_nbrs = [j for j in net.interference[k] if roles[j] is Role.SLOW]
        if slow_nbrs:
            cells = {net.tx_cell[j] for j in slow_nbrs}
            cells.discard(net.tx_cell[k])
            precancel += len(slow_nbrs)
            fast_share += len(cells)
            fast_cells.append((k, slow_nbrs, cells))

    fanin = fast_master_saved = q_dedup = 0
    for sub in subnets:
        fanin += sum(sub.gamma.get(k, 0) for k in sub.slow_members)
        if sub.master is None or not scheme.cooperative:
            continue
        if scheme is Scheme.BOTH_COMP_RX and net.model == WYNER \
                and roles[sub.master] is Role.FAST:
            fast_master_saved += sum(1 for j in net.interference[sub.master]
                                     if roles[j] is Role.SLOW)
        if scheme is Scheme.BOTH_COMP_TX:
            if net.model == WYNER:
                q_dedup += _wyner_q_dedup(D, roles[sub.master])
            else:
                tau = D // 2
                q_dedup += 6 if roles[sub.master] is Role.FAST else 0
                q_dedup += 2 * sum(1 for k in sub.members
                                   if roles[k] is Role.FAST
                                   and 1 <= sub.gamma.get(k, 0) <= tau - 2)
    fanout = fanin
    if scheme is Scheme.BOTH_COMP_RX:
        tx_total, rx_total = precancel, fast_share + fanin + fanout - fast_master_saved
    elif scheme is Scheme.BOTH_COMP_TX:
        tx_total, rx_total = fanin + fanout + precancel - q_dedup, fast_share
    elif scheme is Scheme.SLOW_COMP_RX:
        tx_total, rx_total = 0, fanin + fanout
    elif scheme is Scheme.SLOW_COMP_TX:
        tx_total, rx_total = fanin + fanout, 0
    else:
        tx_total = rx_total = 0
    den_tx, den_rx = _asymptotic_denominators(net)
    mu_tx = Fraction(L * tx_total, den_tx) if den_tx else Fraction(0)
    mu_rx = Fraction(L * rx_total, den_rx) if den_rx else Fraction(0)
    max_tx, max_rx = ref_link_loads(net, assoc, subnets, fast_cells)
    return LoadReport(scheme, D, L, precancel, fast_share, fanin, fanout, q_dedup,
                      fast_master_saved, tx_total, rx_total, mu_tx, mu_rx,
                      max_tx, max_rx, len(subnets))


def ref_link_loads(net, assoc, subnets, fast_cells):
    tx_adj, rx_adj = net.tx_coop, net.rx_coop
    tx_off = list(accumulate(map(len, tx_adj), initial=0))
    rx_off = list(accumulate(map(len, rx_adj), initial=0))
    tx_use, rx_use = [0] * tx_off[-1], [0] * rx_off[-1]
    for k, slow_nbrs, cells in fast_cells:
        for j in slow_nbrs:
            tx_use[tx_off[j] + tx_adj[j].index(k)] += 1
        src = net.tx_cell[k]
        for c in cells:
            rx_use[rx_off[src] + rx_adj[src].index(c)] += 1
    if assoc.scheme.comp_side == "tx":
        coop, off, use = tx_adj, tx_off, tx_use
    else:
        coop, off, use = rx_adj, rx_off, rx_use
    for sub in subnets:
        if sub.master is None:
            continue
        hops = {net.tx_cell[k]: g for k, g in sub.gamma.items()}
        hops[sub.master] = 0
        below = dict.fromkeys(hops, 0)
        for k in sub.slow_members:
            if (c := net.tx_cell[k]) in below:  # an unreachable member sends nothing
                below[c] += 1
        for c in sorted(hops, key=hops.__getitem__, reverse=True):
            n, g = below[c], hops[c]
            if not n or not g:
                continue
            for i, p in enumerate(coop[c]):
                if hops.get(p) == g - 1:
                    break
            use[off[c] + i] += n
            use[off[p] + coop[p].index(c)] += n
            below[p] += n
    return max(tx_use, default=0), max(rx_use, default=0)


def assert_matches_reference(net, D, scheme):
    assoc = assign(net, D, scheme)
    subnets, report = subnet_decompose(net, assoc)
    ref_subnets, ref_report = ref_subnet_decompose(net, assoc)
    assert len(subnets) == len(ref_subnets)
    for sub, ref in zip(subnets, ref_subnets):
        assert (sub.members, sub.master, sub.slow_members) == \
            (ref.members, ref.master, ref.slow_members)
        assert sub.gamma == ref.gamma
    assert report == ref_report
    assert message_ledger(net, assoc, subnets) == ref_message_ledger(net, assoc, ref_subnets)


@pytest.mark.parametrize("model", [WYNER, HEX, SECTORED])
def test_matches_reference_on_oracle_networks(model):
    cases = 0
    for net, D, scheme in _oracle_networks(model):
        assert_matches_reference(net, D, scheme)
        cases += 1
    assert cases > 100


@pytest.mark.parametrize("model, make, Ds", [
    (WYNER, lambda: build_wyner(1000, 3), (2, 6, 10)),
    (HEX, lambda: build_hex(20, 3), (2, 8, 14)),
    (SECTORED, lambda: build_sectored_hex(15, 3), (2, 4, 8)),
], ids=["wyner-1000", "hex-ball-20", "sectorized-ball-15"])
def test_matches_reference_at_scale(model, make, Ds):
    net = make()
    for scheme in Scheme:
        for D in Ds:
            if not _raises(check_params, model, scheme, D, 3):
                assert_matches_reference(net, D, scheme)



COLUMNS = ("members", "starts", "masters", "hop", "order", "order_parent", "order_starts")


def walked(net, assoc):
    """``subnet_decompose`` by the general walk, with the period proof switched off."""
    with mock.patch.object(validation, "_line_period", return_value=None):
        return subnet_decompose(net, assoc)


def assert_period_matches_walk(net, D, scheme):
    """The period path equals the walk on every column, report and ledger field."""
    assoc = assign(net, D, scheme)
    subnets, report = subnet_decompose(net, assoc)
    walk, walk_report = walked(net, assoc)
    P = D + 2 if scheme.cooperative else 2
    assert subnets.period == (P if net.n_tx >= 2 * P else None)
    assert walk.period is None
    for col in COLUMNS:
        assert list(getattr(subnets, col)) == list(getattr(walk, col)), col
    assert report == walk_report
    assert message_ledger(net, assoc, subnets) == message_ledger(net, assoc, walk)
    assert_matches_reference(net, D, scheme)


@cache
def _line(K):
    return build_wyner(K, 3)


def _line_cases():
    """Every valid D <= 12 of every scheme on K = 1..60 and around 1000 = n * P."""
    for scheme in Scheme:
        for D in valid_range(WYNER, scheme, 12):
            P = D + 2 if scheme.cooperative else 2
            n = 1000 // P
            for K in (*range(1, 61), n * P - 1, n * P, n * P + 1):
                yield K, D, scheme


def test_line_period_matches_walk_and_reference():
    periodic = 0
    for K, D, scheme in _line_cases():
        assert_period_matches_walk(_line(K), D, scheme)
        periodic += K >= 2 * (D + 2 if scheme.cooperative else 2)
    assert periodic > 1800


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_line_period_at_bench_scale(scheme):
    assert_period_matches_walk(build_wyner(100_000, 2), 6, scheme)


def _mutated_roles():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    a.roles[2] = Role.FAST  # adjacent to fast 1 and 3
    return net, a


def _merged_runs():
    net = build_wyner(24, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_TX)
    a.roles[8] = Role.SLOW  # the silent node between the first two runs
    return net, a


def _no_masters():
    net = build_wyner(20, 1)
    return net, replace(assign(net, 6, Scheme.SLOW_COMP_RX), masters=())


def _chord():
    line = build_wyner(24, 1)
    adj = list(line.interference)
    adj[15] = (1, 14, 16)  # one-way: node 15 of the second run hears node 1 of the first
    adj = tuple(adj)
    net = replace(line, interference=adj, tx_coop=adj, rx_coop=adj)
    return net, assign(net, 6, Scheme.BOTH_COMP_RX)


def _no_silent():
    net = build_wyner(24, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)  # masters 4, 12, 20 of period 8
    return net, replace(a, roles=[None] + [Role.SLOW] * 24)  # periodic, but no run ends


def _inner_silent():
    net = build_wyner(24, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    a.roles[4::8] = [Role.SILENT] * 3  # period 8 still, but the masters fall silent
    return net, a


def _silent_masters(masters):
    net = build_wyner(24, 1)  # nodes 8, 16 and 24 are silent; node 0 is no node
    return net, replace(assign(net, 6, Scheme.SLOW_COMP_TX), masters=masters)


def _no_coop_master():
    net = build_wyner(8, 1)
    return net, replace(assign(net, 0, Scheme.NO_COOP), masters=(1,))


def _two_hop_links(side):
    line = build_wyner(16, 1)
    # the interference path, but cooperation on one side reaches two cells either way
    coop = ((), *(tuple(j for j in range(k - 2, k + 3) if j != k and 1 <= j <= 16)
                  for k in range(1, 17)))
    net = replace(line, **{f"{side}_coop": coop})
    return net, assign(net, 6, Scheme.SLOW_COMP_TX if side == "tx" else Scheme.SLOW_COMP_RX)


def _cut_links():
    line = build_wyner(16, 1)
    net = replace(line, tx_coop=((),) * 17)  # the interference path, but no Tx cooperation
    return net, assign(net, 6, Scheme.SLOW_COMP_TX)


def _shared_cell():
    line = build_wyner(16, 1)
    tx_cell = list(line.tx_cell)
    tx_cell[1] = 2  # node 1 transmits in cell 2
    net = replace(line, tx_cell=tx_cell)
    return net, assign(net, 6, Scheme.SLOW_COMP_RX)


def _one_way_end(k, nbrs):
    line = build_wyner(20, 1)
    adj = list(line.interference)
    adj[k] = nbrs
    adj = tuple(adj)
    net = replace(line, interference=adj, tx_coop=adj, rx_coop=adj)
    return net, assign(net, 6, Scheme.SLOW_COMP_RX)


def _ring():
    line = build_wyner(20, 1)
    adj = ((), (2, 20), *line.interference[2:-1], (1, 19))  # the tail run joins the first
    net = replace(line, interference=adj, tx_coop=adj, rx_coop=adj)
    return net, assign(net, 6, Scheme.SLOW_COMP_RX)


def _no_rim():
    line = build_wyner(20, 1)
    net = replace(line, model=HEX)  # the same path, but a model with no rim here
    return net, replace(assign(line, 6, Scheme.SLOW_COMP_RX), net=net)


def _long_roles():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_TX)
    return net, replace(a, roles=a.roles + a.roles[1:9])  # one more period past node K


def _swapped_nodes():
    line = build_wyner(24, 1)
    nodes = (*range(1, 23), 24, 23)
    # each adj[k] is (nodes[k - 2], nodes[k]), as on the path, but over swapped nodes
    adj = ((), (2,), *zip(nodes, nodes[2:]), (23,))
    net = replace(line, tx_nodes=nodes, interference=adj, tx_coop=adj, rx_coop=adj)
    return net, assign(net, 6, Scheme.SLOW_COMP_RX)  # no fast node reads the one-way edges


def _short():
    net = build_wyner(13, 1)  # K < 2P for P = 8
    return net, assign(net, 6, Scheme.BOTH_COMP_RX)


@pytest.mark.parametrize("make, violations, warnings", [
    (_mutated_roles, [], []),
    (_merged_runs, [(12, "multi-master")], []),
    (_no_masters, [], ["partial-subnet:1", "partial-subnet:9", "partial-subnet:17"]),
    (_chord, [(15, "cross-subnet-interference-1")], []),
    (_no_silent, [(12, "multi-master")], []),
    (_inner_silent, [], [f"partial-subnet:{k}" for k in range(1, 24, 4)]),
    (lambda: _silent_masters((8, 16, 24)), [], [f"partial-subnet:{k}" for k in (1, 9, 17)]),
    (lambda: _silent_masters((0, 8, 16)), [], [f"partial-subnet:{k}" for k in (1, 9, 17)]),
    (_no_coop_master, [], []),
    (lambda: _two_hop_links("tx"), [], []),
    (lambda: _two_hop_links("rx"), [], []),
    (_cut_links, [(k, "unreachable") for k in range(1, 16) if k % 4], []),
    (_shared_cell, [], []),
    (lambda: _one_way_end(1, (2, 10)), [(12, "multi-master")], ["partial-subnet:17"]),
    (lambda: _one_way_end(20, (1, 19)), [(20, "cross-subnet-interference-1")],
     ["partial-subnet:17"]),
    (_ring, [], []),
    (_no_rim, [(17, "no-master")], []),
    (_long_roles, [], []),
    (_swapped_nodes, [(23, "cross-subnet-interference-22")], ["partial-subnet:23"]),
    (_short, [], ["partial-subnet:9"]),
], ids=["mutated-roles", "merged-runs", "no-masters", "chord", "no-silent", "inner-silent",
        "silent-masters", "masters-from-0", "no-coop-master", "two-hop-tx-links", "two-hop-rx-links", "cut-links",
        "shared-cell", "one-way-start", "one-way-end", "ring",
        "no-rim", "long-roles", "swapped-nodes", "short-line"])
def test_line_period_falls_back_to_the_walk(make, violations, warnings):
    net, assoc = make()
    subnets, report = subnet_decompose(net, assoc)
    assert subnets.period is None
    assert (report.violations, report.warnings) == (violations, warnings)
    ref_subnets, ref_report = ref_subnet_decompose(net, assoc)
    assert report == ref_report
    assert [(s.members, s.master, s.gamma) for s in subnets] == \
        [(s.members, s.master, s.gamma) for s in ref_subnets]
    assert message_ledger(net, assoc, subnets) == ref_message_ledger(net, assoc, ref_subnets)
