"""The decomposition and the ledger against a plain per-node reference.

``ref_subnet_decompose``, ``ref_message_ledger`` and ``ref_link_loads`` keep
the straightforward implementation: a cell set and a rebuilt ``gamma`` per
component, a second pass over every interference edge for the
cross-component check, and a separate link-load pass fed by one
(node, slow interferers, cells) triple per fast node.  The library counts
the same things inside the component BFS and inside ``message_ledger``;
every field of every output must match.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

import pytest

from mgnet import (HEX, SECTORED, WYNER, LoadReport, Role, Scheme, Subnet,
                   ValidationReport, assign, build_hex, build_sectored_hex,
                   build_wyner, check_params, message_ledger, subnet_decompose)
from mgnet.loads import _asymptotic_denominators, _wyner_q_dedup
from mgnet.validation import hop_budget

from test_loads import _oracle_networks, _raises


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
            below[net.tx_cell[k]] += 1
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

