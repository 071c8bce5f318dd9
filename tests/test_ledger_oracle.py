"""The decomposition and the ledger against a plain per-node reference.

``ref_subnet_decompose``, ``ref_message_ledger`` and ``ref_link_loads`` keep
the straightforward implementation: a cell set and a rebuilt ``gamma`` per
component, a second pass over every interference edge for the
cross-component check, and a separate link-load pass fed by one
(node, slow interferers, cells) triple per fast node.  The library counts
the same things inside the component BFS and inside ``message_ledger``;
every field of every output must match.

A Wyner line that its builder returned, with periodic roles, is decomposed
and counted from one period; those outputs must match both the reference
and the library's own general walk, column by column.  A network changed
after its builder returned it takes the walk.
"""

from __future__ import annotations

import copy
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from operator import is_, sub
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mgnet import (HEX, SECTORED, WYNER, LoadReport, Network, Role, Scheme, Subnet,
                   ValidationReport, assign, build_hex, build_hex_torus, build_sectored_hex,
                   build_sectored_hex_torus, build_wyner, check_params, loads, message_ledger,
                   subnet_decompose, validate, validation)
from mgnet.association import scheme_tau
from mgnet.lattice import NEIGHBOR_STEPS, ball, hex_distance, is_master
from mgnet.validation import hop_budget

from test_loads import _oracle_networks, _raises, step_order, valid_range, walk_link_uses


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
            report.violations.append((masters[1], "multi-master"))
        elif not masters and assoc.scheme.cooperative:
            if relaxed:
                report.warnings.append(f"partial-subnet:{comp[0]}")
            else:
                report.violations.append((comp[0], "no-master"))
        gamma = {}
        if master is not None:
            hops = ref_bfs_hops(adj, cells, master)
            gamma = {k: hops[c] for k in comp if (c := net.tx_cell[k]) in hops}
            for k in comp:
                if k not in gamma:
                    report.violations.append((k, "unreachable"))
        subnets.append(Subnet(tuple(comp), master, gamma, slow))
    for k in net.tx_nodes:
        i = owner[k]
        if i is None:
            continue
        for j in net.interference[k]:
            o = owner[j]
            if o is not None and o != i:
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
                q_dedup += D // 2 if roles[sub.master] is Role.FAST else D // 2 - 1
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
    per_tx, per_rx = {WYNER: (2, 2), HEX: (6, 6), SECTORED: (4, 6)}[net.model]  # links per node
    den_tx, den_rx = per_tx * net.n_tx, per_rx * net.n_rx
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



COLUMNS = ("members", "starts", "masters", "hop")


def _and_walk(fn, net, assoc):
    """``fn(net, assoc)`` with the builders' mark ignored, so that it takes the walk."""
    with (mock.patch.object(validation, "as_built", return_value=None),
          mock.patch.object(validation, "builder_rows", return_value=None)):
        return fn(net, assoc)


@pytest.mark.parametrize("make, radius, D", [(build_hex, 9, 8), (build_sectored_hex, 7, 4)],
                         ids=["hex-ball", "sectorized-ball"])
def test_readers_of_every_node_store_every_item_of_a_ball(make, radius, D):
    """The walk, the fast-interference check over every node, the ledger of walked columns,
    ``to_json_dict``, ``==`` and ``hash`` read a ball's adjacency an item at a time, and
    store each item: afterwards every item is stored, and reading it again yields the
    stored tuple itself."""
    net, twin = make(radius, 1), make(radius, 1)
    assoc, twin_assoc = assign(net, D, Scheme.BOTH_COMP_RX), assign(twin, D, Scheme.BOTH_COMP_RX)
    ledger = ref_message_ledger(twin, twin_assoc, ref_subnet_decompose(twin, twin_assoc)[0])
    walk, report = _and_walk(validate, net, assoc)
    assert message_ledger(net, assoc, walk) == ledger
    assert net.to_json_dict() == twin.to_json_dict()
    assert net.interference == twin.interference and twin.rx_coop == net.rx_coop
    assert hash(net.interference) == hash(twin.interference) == hash(tuple(net.interference))
    for adj in (net.interference, net.rx_coop, twin.interference, twin.rx_coop):
        assert None not in adj.memo and all(map(is_, adj, adj.memo))
    assert report.ok and walk.translates is None


@pytest.mark.parametrize("radius, D", [(5, 4), (7, 8)])
def test_walked_ledger_numbers_every_link_of_a_sectorized_ball(radius, D):
    """A walked ledger counts the messages on the links of every Tx node and every cell:
    each directed link (u, v) that a message reached holds the per-path walk's count, and
    is a link of its graph."""
    net = build_sectored_hex(radius, 1)
    assoc = assign(net, D, Scheme.BOTH_COMP_RX)
    walk, report = _and_walk(validate, net, assoc)
    _, tx_use, rx_use = loads._tally(net, assoc, walk, None)
    assert report.ok
    for adj, use, ref in zip((net.tx_coop, net.rx_coop), (tx_use, rx_use),
                             walk_link_uses(net, assoc, walk)):
        assert use == ref and ref
        assert all(v in adj[u] for u, v in use)


def assert_period_matches_walk(net, D, scheme):
    """The period path equals the walk on every column, report and ledger field."""
    assoc = assign(net, D, scheme)
    subnets, report = subnet_decompose(net, assoc)
    walk, walk_report = _and_walk(subnet_decompose, net, assoc)
    K, P = net.n_tx, D + 2 if scheme.cooperative else 2
    whole = (K + 1) // P
    # the runs after the last whole one: the tail run, a class of one copy
    tail = () if K % P in (0, P - 1) else (((whole,), 1),)
    assert subnets.translates == ((((0,), whole), *tail) if K >= 2 * P else None)
    assert walk.translates is None
    for col in COLUMNS:
        assert list(getattr(subnets, col)) == list(getattr(walk, col)), col
    # a proof with whole runs only keeps its starts a range
    assert isinstance(subnets.starts, range) == (K >= 2 * P and not tail)
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


@pytest.mark.parametrize("scheme, K", [(s, K) for K in (100_000, 100_003) for s in Scheme],
                         ids=[s.value + tail for tail in ("", "-tail") for s in Scheme])
def test_line_period_at_bench_scale(scheme, K):
    assert_period_matches_walk(build_wyner(K, 2), 6, scheme)


def _edge_lines(scheme):
    """(D, P, K) of lines where the line proof starts to apply, K = 2P - 1 (walked) and 2P,
    and of one line at each tail length, K + 1 = 0..P-1 mod P."""
    for D in (2, 6) if scheme.cooperative else (0,):
        P = D + 2 if scheme.cooperative else 2
        for K in (2 * P - 1, 2 * P, *range(3 * P - 1, 4 * P - 1)):
            yield D, P, K


@pytest.mark.parametrize("scheme", list(Scheme), ids=[s.value for s in Scheme])
def test_line_proof_columns_at_the_proofs_edges(scheme):
    """The proof's computed columns equal the walk's lists item by item, by negative
    index and by slice (a list wherever the walk's column is one), and so do the
    ``Subnet`` views and the ledger."""
    for D, P, K in _edge_lines(scheme):
        net = build_wyner(K, 2)
        assoc = assign(net, D, scheme)
        subnets, report = subnet_decompose(net, assoc)
        walk, walk_report = _and_walk(subnet_decompose, net, assoc)
        assert (subnets.translates is not None) == (K >= 2 * P), (D, K)
        assert walk.translates is None
        for col in COLUMNS:
            got, ref = getattr(subnets, col), getattr(walk, col)
            n = len(ref)
            assert len(got) == n and (got == ref or col == "starts"), (D, K, col)
            assert [got[i] for i in range(-n, n)] == [ref[i] for i in range(-n, n)], (D, K, col)
            for bad in (n, -n - 1):
                with pytest.raises(IndexError):
                    got[bad]
            ends = (None, 0, 1, D, D + 1, D + 2, n // 2, n - 1, n + 3, -1, -D - 2, -n - 3)
            for s in (slice(a, b, step) for a in ends for b in ends
                      for step in (None, 2, -1, -3, D + 2)):
                part = got[s]
                assert list(part) == list(ref[s]), (D, K, col, s)
                assert isinstance(part, list) == isinstance(ref[s], list), (D, K, col, s)
        assert list(subnets) == list(walk) and report == walk_report, (D, K)
        assert message_ledger(net, assoc, subnets) == message_ledger(net, assoc, walk), (D, K)


def _chunk_flips(C, P, K):
    """The nodes at which one flipped role tests the line proof's chunked compare: inside
    the first chunk (nodes 1..C), the first and last nodes of the second, one in the last
    partial chunk and node K."""
    end = 1 + K // C * C  # the first node of the last partial chunk, K + 1 if none
    flips = {P + 2, K, *(k for k in (C + 1, 2 * C) if k <= K)}
    if end <= K:
        flips.add((end + K) // 2)
    return sorted(flips)


@pytest.mark.parametrize("P, scheme", [(2, Scheme.NO_COOP), (4, Scheme.SLOW_COMP_TX),
                                       (8, Scheme.BOTH_COMP_RX)], ids=["P2", "P4", "P8"])
def test_line_period_chunk_edges(P, scheme):
    """The roles are compared with their first C = P * (4096 // P) in chunks of C, the
    last cut short, and the first chunk with itself shifted by P: a line whose roles
    repeat is proven, and one flipped role anywhere, in the first chunk alone too, takes
    the walk, with the walk's columns, report and ledger."""
    C = P * (4096 // P)
    for K in (C - 1, C, C + 1, 2 * C + P - 1, 3 * C):
        net = build_wyner(K, 1)
        assoc = assign(net, P - 2, scheme)
        assert subnet_decompose(net, assoc)[0].translates is not None, K
        for k in _chunk_flips(C, P, K):
            flipped = replace(assoc, roles=assoc.roles[:])
            flipped.roles[k] = Role.SLOW if flipped.roles[k] is Role.SILENT else Role.SILENT
            subnets, report = subnet_decompose(net, flipped)
            walk, walk_report = _and_walk(subnet_decompose, net, flipped)
            assert subnets.translates is None, (K, k)
            for col in COLUMNS:
                assert getattr(subnets, col) == getattr(walk, col), (K, k, col)
            assert report == walk_report, (K, k)
            assert message_ledger(net, flipped, subnets) == \
                message_ledger(net, flipped, walk), (K, k)


def test_line_period_longer_than_a_chunk():
    """A period longer than 4096 roles is compared one period to a chunk."""
    D = 4100  # P = 4102
    for K in (2 * D + 4, 3 * D + 7):
        assert_period_matches_walk(build_wyner(K, 1), D, Scheme.SLOW_COMP_RX)


def test_proven_line_validate_peak_memory():
    """A proven K = 1e5 line's decomposition holds no K-long list: its roles compare reads
    chunks of 4096, and its columns are computed."""
    net = build_wyner(100_000, 3)
    assoc = assign(net, 6, Scheme.BOTH_COMP_RX)
    tracemalloc.start()
    try:
        subnets, report = subnet_decompose(net, assoc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert subnets.translates is not None and report.ok
    assert peak <= 800_000, peak


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


def _active_run_ends():
    net = build_wyner(24, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    a.roles[8::8] = [Role.SLOW] * 3  # period 8 still, but node P = 8 is not silent
    return net, a


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
    (_active_run_ends, [(12, "multi-master")], []),
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
], ids=["mutated-roles", "merged-runs", "no-masters", "chord", "no-silent", "active-run-ends",
        "inner-silent",
        "silent-masters", "masters-from-0", "no-coop-master", "two-hop-tx-links", "two-hop-rx-links", "cut-links",
        "shared-cell", "one-way-start", "one-way-end", "ring",
        "no-rim", "long-roles", "swapped-nodes", "short-line"])
def test_line_period_falls_back_to_the_walk(make, violations, warnings):
    net, assoc = make()
    subnets, report = subnet_decompose(net, assoc)
    assert subnets.translates is None
    assert (report.violations, report.warnings) == (violations, warnings)
    ref_subnets, ref_report = ref_subnet_decompose(net, assoc)
    assert report == ref_report
    assert [(s.members, s.master, s.gamma) for s in subnets] == \
        [(s.members, s.master, s.gamma) for s in ref_subnets]
    assert message_ledger(net, assoc, subnets) == ref_message_ledger(net, assoc, ref_subnets)


def assert_links_carry_one_subnet(net, assoc, subnets):
    """No Tx or Rx link carries two subnets' messages, so each link's load is one subnet's
    and a proof's ledger may count the template alone."""
    steps = step_order(net)
    for links in zip(*(walk_link_uses(net, assoc, [sub], steps) for sub in subnets)):  # Tx, Rx
        assert sum(map(len, links)) == len(set().union(*links)), (net.params, assoc.D)


def assert_proof_is_walk(net, assoc):
    """Whatever path ``validate`` takes equals the walk on every column, report and ledger
    field.  Returns whether a proof was taken."""
    subnets, report = validate(net, assoc)
    walk, walk_report = _and_walk(validate, net, assoc)
    assert walk.translates is None
    for col in COLUMNS:
        assert list(getattr(subnets, col)) == list(getattr(walk, col)), col
    assert report == walk_report
    assert subnet_decompose(net, assoc)[1] == _and_walk(subnet_decompose, net, assoc)[1]
    assert message_ledger(net, assoc, subnets) == message_ledger(net, assoc, walk)
    if (classes := subnets.translates) is not None:
        # one class list, the template's first: one representative, with at least as many
        # components of its size as it has copies; the copies of every class's
        # representatives hold each member once, and the members are the active nodes
        ((template,), copies), starts = classes[0], subnets.starts
        sizes = list(map(sub, starts[1:], starts))
        assert type(classes) is tuple and sizes.count(sizes[template]) >= copies
        assert sum(n * len(subnets.members_of(reps)) for reps, n in classes) == \
            len(subnets.members) == sum(assoc.roles[k] is not Role.SILENT for k in net.tx_nodes)
    return subnets.translates is not None


def assert_lattice_matches_walk(net, D, scheme, reference=True):
    """The master-lattice path equals the walk on every column, report and ledger field.

    Returns whether the path was taken.
    """
    proven = assert_proof_is_walk(net, assign(net, D, scheme))
    if reference:
        assert_matches_reference(net, D, scheme)
    return proven


@cache
def _ball(model, radius):
    return (build_hex if model == HEX else build_sectored_hex)(radius, 3)


@pytest.mark.parametrize("model, radii, hi_d", [(HEX, range(25), 14), (SECTORED, range(19), 8)],
                         ids=["hex", "sectorized"])
def test_ball_lattice_matches_walk_and_reference(model, radii, hi_d):
    proven = 0
    for scheme in Scheme:
        for D in valid_range(model, scheme, hi_d):
            for radius in radii:
                # the reference is slow: every radius near the least with a translate, then some
                proven += assert_lattice_matches_walk(_ball(model, radius), D, scheme,
                                                      reference=radius < 10 or radius % 4 == 0)
    # every ball but the cooperative sectorized ones of radius 0, whose three sectors are
    # three components of one master; below radius 2 tau + R the template stands alone
    assert proven >= (675 if model == HEX else 315)


@pytest.mark.parametrize("model, radius, D, scheme", [
    *[(HEX, 60, 8, s) for s in Scheme],
    *[(SECTORED, 40, 4, s) for s in (Scheme.BOTH_COMP_RX, Scheme.SLOW_COMP_RX, Scheme.NO_COOP)],
], ids=lambda v: getattr(v, "value", v))
def test_ball_lattice_at_bench_scale(model, radius, D, scheme):
    net = (build_hex if model == HEX else build_sectored_hex)(radius, 2)
    assert assert_lattice_matches_walk(net, D, scheme)
    assoc = assign(net, D, scheme)
    # the translates are the master-lattice points within radius - R of the centre, R the
    # template members' extent (3 on these hex balls, 2 on the sectorized); the rim the rest,
    # the pieces of the cut translates, in classes of one cut up to translation
    subnets = validate(net, assoc)[0]
    walk = _and_walk(validate, net, assoc)[0]
    ((template,), copies), *classes = subnets.translates
    if scheme.cooperative:
        cut, pieces = sum(n for _, n in classes), sum(len(reps) * n for reps, n in classes)
        assert (copies, len(classes), cut, pieces) == (
            (379, 15, 81, 117) if model == SECTORED
            else (211, 12, 30, 30) if scheme.mixed else (133, 12, 24, 24))
        assert copies + pieces == len(walk)
        # the same counts from the plane's lattice points and the template's cells
        nk = len(net.tx_nodes) // len(net.rx_nodes)
        cells = {(net.cell_coords[k // nk], k % nk)
                 for k in subnets.members[subnets.starts[template]:subnets.starts[template + 1]]}
        R = max(hex_distance(x, (0, 0)) for x, _ in cells)
        whole, shapes = 0, []
        for m in ball(radius + R):
            if is_master(m, scheme_tau(model, scheme, D)):
                kept = frozenset((x, k) for x, k in cells
                                 if hex_distance((x[0] + m[0], x[1] + m[1]), (0, 0)) <= radius)
                whole += hex_distance(m, (0, 0)) <= radius - R
                shapes += [kept] if kept and hex_distance(m, (0, 0)) > radius - R else []
        assert (whole, len(set(shapes)), len(shapes)) == (copies, len(classes), cut)
    assert_links_carry_one_subnet(net, assoc, walk)


@cache
def _torus(model, tau, copies):
    return (build_hex_torus if model == HEX else build_sectored_hex_torus)(tau, copies, 3)


def _torus_cases(model):
    """Every scheme, its first three valid D, M = 1..6 copies of its spacing."""
    for scheme in Scheme:
        for D in valid_range(model, scheme, 14 if model == HEX else 6)[:3]:
            tau = scheme_tau(model, scheme, D) if scheme.cooperative else 1
            for copies in range(1, 7):
                yield scheme, D, tau, copies


@pytest.mark.parametrize("model", [HEX, SECTORED])
def test_torus_lattice_matches_walk(model):
    cases = 0
    for scheme, D, tau, copies in _torus_cases(model):
        net = _torus(model, tau, copies)
        # every torus is one orbit of its template: all its subnets are translates
        assert assert_lattice_matches_walk(net, D, scheme, reference=tau * copies <= 4)
        subnets = validate(net, assign(net, D, scheme))[0]
        (_, n), *rim = subnets.translates
        # without cooperation each active node is a subnet
        assert (n, rim) == (copies * copies if scheme.cooperative else len(subnets.members), [])
        cases += 1
    assert cases == (90 if model == HEX else 54)


@pytest.mark.parametrize("model", [HEX, SECTORED])
def test_torus_link_loads_repeat_with_the_master_lattice(model):
    """Routes break ties by unit step, the same in every subnet, so the walk's load on each
    link of a cooperative torus is that on the link moved by (tau, 2 tau) or (2 tau, tau),
    wherever the seam falls."""
    for scheme, D, tau, copies in _torus_cases(model):
        if not scheme.cooperative:
            continue
        net = _torus(model, tau, copies)
        assoc = assign(net, D, scheme)
        _, tx_use, rx_use = loads._tally(net, assoc, _and_walk(validate, net, assoc)[0], None)
        index = {c: i for i, c in enumerate(net.cell_coords)}
        nk = len(net.tx_nodes) // len(net.rx_nodes)
        for da, db in ((tau, 2 * tau), (2 * tau, tau)):
            cell = [index[net.geometry.canon((a + da, b + db))] for a, b in net.cell_coords]
            node = [nk * cell[k // nk] + k % nk for k in net.tx_nodes]
            for use, move in ((tx_use, node), (rx_use, cell)):
                assert use == {(move[u], move[v]): x for (u, v), x in use.items()}, \
                    (D, scheme, copies)


@pytest.mark.parametrize("scheme", [Scheme.BOTH_COMP_RX, Scheme.BOTH_COMP_TX])
@pytest.mark.parametrize("copies, clear, cut", [(4, 11, 5), (6, 29, 7)])
def test_torus_lattice_at_bench_scale(scheme, copies, clear, cut):
    net = build_hex_torus(4, copies, 2)
    assert assert_lattice_matches_walk(net, 8, scheme)
    subnets, _ = validate(net, assign(net, 8, scheme))
    (_, n), *rim_subnets = subnets.translates
    assert (n, rim_subnets) == (clear + cut, [])
    assert all(k is net.tx_nodes[k] for k in subnets.members)  # the nodes' own int objects
    # the seam cuts ``cut`` subnets: a member lies tau or more from its master's domain cell
    coord = net.cell_coords
    assert sum(max(hex_distance(coord[k], coord[s.master]) for k in s.members) >= 4
               for s in subnets) == cut


def test_torus_seam_sets_the_link_maximum():
    """Where the seam falls no longer sets the link maximum: routes break ties by unit
    step, so a subnet that the seam cuts routes like the template, which carries at most
    9 messages on an Rx link, and so does the whole torus (10 when ties went by id)."""
    net = build_sectored_hex_torus(3, 4, 3)
    assoc = assign(net, 6, Scheme.BOTH_COMP_RX)
    subnets, _ = validate(net, assoc)
    ((template,), copies), *rim = subnets.translates
    assert (copies, rim) == (16, [])
    _, _, template_rx = loads._tally(net, assoc, subnets, (((template,), 1),))
    assert max(template_rx.values()) == 9
    walk, _ = _and_walk(validate, net, assoc)
    ledger = message_ledger(net, assoc, subnets)
    assert ledger == message_ledger(net, assoc, walk)
    assert ledger.max_rx_link_load == 9


def test_ball_ledger_counts_every_subnet_when_links_may_be_shared():
    """A sectorized cell may hold active sectors of two subnets, yet no link carries two
    subnets' messages, so each link's load is one subnet's: a proof's ledger, which counts
    the template alone, is the walk's on every sectorized builder ball and torus here."""
    shared_cells = 0
    for scheme in (Scheme.BOTH_COMP_RX, Scheme.SLOW_COMP_RX):
        for D in valid_range(SECTORED, scheme, 8):
            tau = scheme_tau(SECTORED, scheme, D)
            for net in [*map(partial(_ball, SECTORED), range(13)),
                        *(_torus(SECTORED, tau, copies) for copies in range(1, 5))]:
                assoc = assign(net, D, scheme)
                walk, _ = _and_walk(validate, net, assoc)
                assert_links_carry_one_subnet(net, assoc, walk)
                cells = [{net.tx_cell[k] for k in sub.members} for sub in walk]
                shared_cells += sum(map(len, cells)) - len(set().union(*cells))
                proven, _ = validate(net, assoc)
                assert message_ledger(net, assoc, proven) == message_ledger(net, assoc, walk)
    assert shared_cells > 1000


@pytest.mark.parametrize("model, make", [
    (WYNER, lambda: build_wyner(1000, 1)),
    (HEX, lambda: build_hex(20, 1)),
    (SECTORED, lambda: build_sectored_hex(12, 1)),
    (HEX, lambda: build_hex_torus(4, 2, 1)),
    (SECTORED, lambda: build_sectored_hex_torus(2, 3, 1)),
], ids=["wyner-1000", "hex-ball-20", "sectorized-ball-12", "hex-torus-4-2",
        "sectorized-torus-2-3"])
def test_proven_link_loads_are_the_representatives_walk(model, make):
    """A proof's ledger counts each class's representatives once on the links: its link
    maps are the per-path walk's over the representatives, link by link, on a proven
    line, ball and torus of every scheme, the cooperation-free proof's too."""
    net = make()
    D = {WYNER: 6, HEX: 8, SECTORED: 4}[model]
    proofs = 0
    for scheme in Scheme:
        tau = net.params.get("tau")
        if _raises(check_params, model, scheme, D, 1) or \
                tau not in (None, scheme_tau(model, scheme, D)):
            continue  # a scheme that does not run at D, or a torus of another spacing
        assoc = assign(net, D, scheme)
        subnets, report = validate(net, assoc)
        assert report.ok and subnets.translates, scheme
        reps = [subnets[i] for indices, _ in subnets.translates for i in indices]
        _, *uses = loads._tally(net, assoc, subnets, subnets.translates)
        assert uses == list(walk_link_uses(net, assoc, reps)), scheme
        proofs += 1
    assert proofs >= 3


def _ball_case(model=HEX, radius=14, D=8, scheme=Scheme.BOTH_COMP_RX):
    net = (build_hex if model == HEX else build_sectored_hex)(radius, 1)
    return net, assign(net, D, scheme)


def _cell(net, coord):
    return net.cell_coords.index(coord)


def _interior_role(cell):
    net, a = _ball_case()
    a.roles[_cell(net, cell)] = Role.FAST  # next to a fast master
    return net, a


def _periodic_clash():
    net, a = _ball_case()
    for m in a.masters:  # every master's (1, 0) neighbour turns fast, next to the fast master
        x, y = net.cell_coords[m]
        if (x + 1, y) in net.cell_coords:
            a.roles[_cell(net, (x + 1, y))] = Role.FAST
    return net, a


def _dropped_master(cell=(4, 8)):
    net, a = _ball_case()
    return net, replace(a, masters=tuple(m for m in a.masters if m != _cell(net, cell)))


def _slow_separator():
    net, a = _ball_case()
    a.roles[_cell(net, (8, 8))] = Role.SLOW  # the silenced cell between (4, 8) and (8, 4)
    return net, a


def _extra_master(cell):
    net, a = _ball_case()
    return net, replace(a, masters=tuple(sorted({*a.masters, _cell(net, cell)})))


def _silenced_ball_rings():
    net, a = _ball_case()
    for m in a.masters:  # the roles repeat, but each master is alone, away from its subnet
        for nbr in net.interference[m]:
            a.roles[nbr] = Role.SILENT
    return net, a


def _replaced_tuple():
    net, _ = _ball_case()
    adj = list(net.interference)
    u, v = _cell(net, (1, 1)), _cell(net, (-4, -8))
    adj[u] = (*adj[u], v)  # one-way, from the central subnet into the one at (-4, -8)
    adj = tuple(adj)
    net = replace(net, interference=adj, tx_coop=adj, rx_coop=adj)
    return net, assign(net, 8, Scheme.BOTH_COMP_RX)


def _rim_edge_into_translate(corner):
    net, _ = _ball_case()
    adj = list(net.interference)
    u, v = _cell(net, corner), _cell(net, (1, 1))
    adj[u] = (*adj[u], v)  # a rim cell (not proven) hears the central subnet
    adj = tuple(adj)
    net = replace(net, interference=adj, tx_coop=adj, rx_coop=adj)
    return net, assign(net, 8, Scheme.BOTH_COMP_RX)


def _cut_rx_link():
    net, _ = _ball_case(SECTORED, 12, 4)
    rx = list(net.rx_coop)
    c, d = _cell(net, (0, 0)), _cell(net, (0, 1))
    rx[c] = tuple(x for x in rx[c] if x != d)
    rx[d] = tuple(x for x in rx[d] if x != c)
    net = replace(net, rx_coop=tuple(rx))
    return net, assign(net, 4, Scheme.SLOW_COMP_RX)


def _long_ball_roles():
    net, a = _ball_case()
    return net, replace(a, roles=a.roles + a.roles[:7])  # seven more roles past the last cell


def _roles_along(step):
    net, a = _ball_case()
    for k in range(-3, 4):  # (1, 0) is slow, next to the fast master (0, 0)
        if (cell := (1 + step[0] * k, step[1] * k)) in net.cell_coords:
            a.roles[_cell(net, cell)] = Role.FAST
    return net, a


def _at(net, coord, kind=None):
    """The id of the cell at ``coord``, or of its ``kind`` sector."""
    i = _cell(net, coord)
    return i if kind is None else 3 * i + "EWS".index(kind)


# on the radius-14 ball of spacing 4 the template's members lie within 3 of the centre, so
# the masters within 11 of it are translates: (0, 0) and its six neighbours.  The roles must
# repeat with both (4, 8) and (4, -4) wherever both cells lie in the ball, the rim's too
@pytest.mark.parametrize("make, proven, violations", [
    (lambda: _interior_role((8, 5)), False, lambda net: [
        (_at(net, (7, 5)), f"fast-interference-from-{_at(net, (8, 5))}"),
        (_at(net, (8, 4)), f"fast-interference-from-{_at(net, (8, 5))}")]),
    (lambda: _interior_role((4, 9)), False, lambda net: [
        (_at(net, (3, 9)), f"fast-interference-from-{_at(net, (4, 9))}"),
        (_at(net, (4, 8)), f"fast-interference-from-{_at(net, (4, 9))}")]),
    # the clash repeats in every translate: listed in node order, as the walk lists it
    (_periodic_clash, True, lambda net: [
        (_at(net, (-12, -12)), f"fast-interference-from-{_at(net, (-11, -12))}")]),
    (_dropped_master, False, lambda net: []),
    # the centre cell is the template: without its master the whole ball is walked
    (lambda: _dropped_master((0, 0)), False, lambda net: []),
    # joins two translates' subnets, in the separator ring between them
    (_slow_separator, False, lambda net: [(_at(net, (8, 4)), "multi-master")]),
    (lambda: _extra_master((5, 8)), False, lambda net: [(_at(net, (5, 8)), "multi-master")]),
    # a rim master inside the translate at (4, 8)
    (lambda: _extra_master((4, 11)), False, lambda net: [(_at(net, (4, 11)), "multi-master")]),
    # the translates hold the masters alone: the count of active nodes finds the others
    (_silenced_ball_rings, False, lambda net: []),
    (_replaced_tuple, False, lambda net: [
        (_at(net, (1, 1)), f"cross-subnet-interference-{_at(net, (-4, -8))}")]),
    # the rim component is searched first and takes in the central subnet, with its master
    (lambda: _rim_edge_into_translate((-14, -14)), False,
     lambda net: [(_at(net, (0, 0)), "multi-master")]),
    (lambda: _rim_edge_into_translate((14, 0)), False, lambda net: [
        (_at(net, (14, 0)), f"cross-subnet-interference-{_at(net, (1, 1))}")]),
    (_cut_rx_link, False, lambda net: [(_at(net, (0, 2), "S"), "hop-budget-exceeded-3>2")]),
    (_long_ball_roles, False, lambda net: []),
    # the slow cell (1, 0) turned fast with its images under one generator alone
    (lambda: _roles_along((4, 8)), False, lambda net: [
        (_at(net, (-4, -8)), f"fast-interference-from-{_at(net, (-3, -8))}")]),
    (lambda: _roles_along((4, -4)), False, lambda net: [
        (_at(net, (-4, 4)), f"fast-interference-from-{_at(net, (-3, 4))}")]),
], ids=["interior-role", "later-interior-role", "periodic-clash", "dropped-master",
        "dropped-centre-master", "slow-separator", "extra-master", "extra-rim-master",
        "silenced-rings",
        "replaced-tuple", "rim-edge-before", "rim-edge-after", "cut-rx-link", "long-roles",
        "roles-along-one-generator", "roles-along-the-other"])
def test_ball_lattice_falls_back_to_the_walk(make, proven, violations):
    net, assoc = make()
    assert net.has_rim
    subnets, report = validate(net, assoc)
    assert (subnets.translates is not None) == proven
    walk, walk_report = _and_walk(validate, net, assoc)
    for col in COLUMNS:
        assert list(getattr(subnets, col)) == list(getattr(walk, col)), col
    assert report == walk_report
    expected = violations(net)
    assert report.violations[:len(expected)] == expected
    ref_subnets, ref_report = ref_subnet_decompose(net, assoc)
    assert subnet_decompose(net, assoc)[1] == ref_report
    assert [(s.members, s.master, s.gamma) for s in subnets] == \
        [(s.members, s.master, s.gamma) for s in ref_subnets]
    assert message_ledger(net, assoc, subnets) == ref_message_ledger(net, assoc, ref_subnets)


def _rim_copy(net, subnets, near):
    """The lowest member of the rim piece nearest the cell ``near`` that is no class's
    representative: a piece of a cut translate other than its class's first."""
    ((template,), _), *classes = subnets.translates
    members, starts, nk = subnets.members, subnets.starts, len(net.tx_nodes) // len(net.rx_nodes)
    size, reps = starts[template + 1] - starts[template], {j for ix, _ in classes for j in ix}
    copies = [members[starts[j]] for j in range(len(subnets))
              if starts[j + 1] - starts[j] != size and j not in reps]
    return min(copies, key=lambda k: hex_distance(net.cell_coords[k // nk], near))


@pytest.mark.parametrize("edit", ["flip", "master"])
@pytest.mark.parametrize("where", ["side", "corner"])
@pytest.mark.parametrize("model, radius, D", [(HEX, 20, 8), (SECTORED, 12, 4)],
                         ids=["hex", "sectorized"])
def test_ball_rim_copy_edited_falls_back(model, radius, D, where, edit):
    """One copy of a rim class, not its representative, near a side or a corner of the
    ball, with one role flipped or a master added: the ball takes the walk, with the walk's
    columns, report and ledger."""
    net = _ball(model, radius)
    assoc = assign(net, D, Scheme.BOTH_COMP_RX)
    subnets = validate(net, assoc)[0]
    assert subnets.translates[1:]  # proven, with rim classes
    k = _rim_copy(net, subnets, (radius, radius // 2) if where == "side" else (radius, 0))
    if edit == "flip":
        assoc.roles[k] = Role.SLOW if assoc.roles[k] is Role.FAST else Role.FAST
    else:
        cell = net.tx_cell[k]
        assert cell not in assoc.masters
        assoc = replace(assoc, masters=tuple(sorted({*assoc.masters, cell})))
    assert not assert_proof_is_walk(net, assoc)


@pytest.mark.parametrize("model, scheme, D", [
    (HEX, Scheme.BOTH_COMP_RX, 14), (HEX, Scheme.SLOW_COMP_TX, 8),
    (SECTORED, Scheme.SLOW_COMP_RX, 8),
], ids=lambda v: getattr(v, "value", v))
def test_balls_too_small_for_whole_base_rows_are_proven(model, scheme, D):
    """A ball of radius below 3 tau - 1 holds no row a with the cells (a, 0..3 tau - 1),
    so its base rows are read from the cells of several rows of each class: every such
    ball is proven (the template and the rim; the sectorized one of radius 0 has no
    template) and equals the walk and the reference."""
    tau = scheme_tau(model, scheme, D)
    for radius in range(model == SECTORED, 3 * tau - 1):
        assert assert_lattice_matches_walk(_ball(model, radius), D, scheme,
                                           reference=radius < 8), radius


def _base_cells(net, tau):
    """The first cell, in id order, at each position (c, j) of the base rows: the cells
    (a, b) with a % tau == c and (b + tau * (a % 3 tau // tau)) % 3 tau == j."""
    t3, first = 3 * tau, {}
    for i, (a, b) in enumerate(net.cell_coords):
        first.setdefault((a % tau, (b + tau * (a % t3 // tau)) % t3), i)
    return first


@pytest.mark.parametrize("model, radius, D", [(HEX, 14, 8), (SECTORED, 12, 4)],
                         ids=["hex", "sectorized"])
def test_ball_role_flipped_where_the_base_is_read_falls_back(model, radius, D):
    """A role flipped at the first cell of a base-row position, which the proof reads the
    base from, gives the fill the flipped role at each of that cell's twins, whose roles
    differ: the ball takes the walk, with the walk's columns, report and ledger."""
    tau = scheme_tau(model, Scheme.BOTH_COMP_RX, D)
    net = _ball_case(model, radius, D)[0]
    nk = len(net.tx_nodes) // len(net.rx_nodes)
    cells = _base_cells(net, tau)
    assert len(cells) == 3 * tau * tau
    for (c, j), cell in cells.items():
        assoc = assign(net, D, Scheme.BOTH_COMP_RX)
        x = nk * cell + (c + j) % nk
        assoc.roles[x] = Role.SLOW if assoc.roles[x] is Role.SILENT else Role.SILENT
        assert not assert_proof_is_walk(net, assoc), (c, j)


def _torus_case(edit, scheme=Scheme.BOTH_COMP_RX):
    """The hex torus of M = 3 copies of spacing 4 at D = 8, its association edited by
    ``edit(net, assoc, at)``, where ``at(a, b)`` is the id of the cell (a, b) mod the torus."""
    net = build_hex_torus(4, 3, 1)
    index = {c: i for i, c in enumerate(net.cell_coords)}
    assoc = assign(net, 8, scheme)
    return net, edit(net, assoc, lambda a, b: index[net.geometry.canon((a, b))]) or assoc


def _flip(cells):
    def edit(net, assoc, at):
        for a, b in cells:
            assoc.roles[at(a, b)] = Role.FAST  # (1, 0) is slow, next to the fast master (0, 0)
    return edit


def _silenced_rings(net, assoc, at):
    for m in assoc.masters:
        a, b = net.cell_coords[m]
        for da, db in NEIGHBOR_STEPS:
            assoc.roles[at(a + da, b + db)] = Role.SILENT


def _one_master_moved(net, assoc, at):
    """The last master one step along: as many masters as translates, and the template's
    at id 0, but one is not the fill's."""
    a, b = net.cell_coords[assoc.masters[-1]]
    return replace(assoc, masters=tuple(sorted((*assoc.masters[:-1], at(a + 1, b)))))


# the roles must repeat with both generators of the master lattice, (4, 8) and (0, 12) here
@pytest.mark.parametrize("edit, proven", [
    (_flip([(1, 0)]), False),
    (_flip([(1 + 4 * k, 8 * k) for k in range(3)]), False),  # repeats with (4, 8) alone
    (_flip([(1, 12 * k) for k in range(3)]), False),  # repeats with (0, 12) alone
    (_silenced_rings, False),  # repeats, but each master is alone, away from its subnet
    (lambda net, a, at: replace(a, masters=a.masters[:-1]), False),
    (lambda net, a, at: replace(a, masters=tuple(sorted({*a.masters, at(5, 8)}))), False),
    (lambda net, a, at: replace(a, masters=tuple(sorted(at(a + 1, b) for a, b in map(
        net.cell_coords.__getitem__, a.masters)))), False),  # every master one step along:
    # the roles repeat, but the masters are not the fill's, so the torus takes the walk
    (_one_master_moved, False),
], ids=["one-role", "roles-along-one-generator", "roles-along-the-other", "silenced-rings",
        "dropped-master", "extra-master", "moved-masters", "one-master-moved"])
def test_torus_lattice_falls_back_to_the_walk(edit, proven):
    net, assoc = _torus_case(edit)
    subnets, report = validate(net, assoc)
    assert (subnets.translates is not None) == proven
    walk, walk_report = _and_walk(validate, net, assoc)
    for col in COLUMNS:
        assert list(getattr(subnets, col)) == list(getattr(walk, col)), col
    assert report == walk_report
    assert proven or not report.ok
    assert message_ledger(net, assoc, subnets) == message_ledger(net, assoc, walk)


@pytest.mark.parametrize("model, tau, copies, D", [(HEX, 4, 3, 8), (SECTORED, 2, 3, 4)],
                         ids=["hex", "sectorized"])
def test_torus_role_flipped_where_the_base_is_read_falls_back(model, tau, copies, D):
    """A role flipped at a base-row position (c, j), c < tau and j < 3 tau, the start of
    torus row c that the proof reads the base from, or at one twin of it outside the base,
    leaves the roles the fill of no base rows: the torus takes the walk, with the walk's
    columns, report and ledger."""
    net = _torus(model, tau, copies)
    nk, P = len(net.tx_nodes) // len(net.rx_nodes), 3 * tau * copies
    assert assert_proof_is_walk(net, assign(net, D, Scheme.BOTH_COMP_RX))
    # base cell (1, 2) moved by (copies - 1) * (tau, 2 tau), a master-lattice vector
    twin = net.geometry.canon((1 + tau * (copies - 1), 2 + 2 * tau * (copies - 1)))
    assert twin[0] >= tau
    for c, j in [*((c, j) for c in range(tau) for j in range(3 * tau)), twin]:
        assoc = assign(net, D, Scheme.BOTH_COMP_RX)
        x = nk * (c * P + j) + (c + j) % nk
        assoc.roles[x] = Role.SLOW if assoc.roles[x] is Role.SILENT else Role.SILENT
        assert not assert_proof_is_walk(net, assoc), (c, j)


def _no_coop_case(make, size):
    net = make(*size, 1)
    return net, assign(net, 0, Scheme.NO_COOP)


def _silent_turned_fast(net, assoc, nodes=lambda net: net.tx_nodes[net.n_tx // 2:]):
    """The first of ``nodes`` (those past the middle) that is silent and hears a fast node,
    turned fast."""
    roles = assoc.roles
    k = next(k for k in nodes(net)
             if roles[k] is Role.SILENT and any(roles[j] is Role.FAST for j in net.interference[k]))
    roles[k] = Role.FAST
    return net, assoc


def _class_turned(role, active):
    """Every node of the class of the spacing-1 lattice, cells (a, b) with one a + b mod 3 and
    one node kind, of the first active (or silent) node, turned to ``role``: the roles still
    repeat."""
    def edit(net, assoc):
        nk, roles = len(net.tx_nodes) // len(net.rx_nodes), assoc.roles
        key = lambda x: (sum(net.cell_coords[x // nk]) % 3, x % nk)
        turned = key(next(x for x in net.tx_nodes if (roles[x] is not Role.SILENT) == active))
        for x in net.tx_nodes:
            if key(x) == turned:
                roles[x] = role
        return net, assoc
    return edit


def _fast_and_silent_swapped(net, assoc):
    """Each fast node silent, each silent node fast: on hex the centre cell's class is
    silent, and the cells of the other two hear each other."""
    swap = {Role.FAST: Role.SILENT, Role.SILENT: Role.FAST}
    assoc.roles[:] = [swap[r] for r in assoc.roles]
    return net, assoc


def _active_turned_slow(net, assoc):
    assoc.roles[assoc.roles.index(Role.FAST, len(assoc.roles) // 2)] = Role.SLOW
    return net, assoc


def _replaced_network(net, assoc):
    net = replace(net)
    return net, replace(assoc, net=net)


@pytest.mark.parametrize("edit, ok", [
    (_silent_turned_fast, False), (_active_turned_slow, True), (_replaced_network, True),
    # far from the cells that the proof reads: only the roles' repeat finds it
    (partial(_silent_turned_fast, nodes=lambda net: net.tx_nodes[::-1]), False),
    # the roles repeat: the nodes around the centre cell must be fast and hear only silent ones
    (_class_turned(Role.FAST, active=False), False), (_class_turned(Role.SLOW, active=True), True),
    (_fast_and_silent_swapped, False),
], ids=["silent-turned-fast", "active-turned-slow", "replaced", "last-silent-turned-fast",
        "class-turned-fast", "class-turned-slow", "fast-and-silent-swapped"])
@pytest.mark.parametrize("make, size", [
    (build_hex, (9,)), (build_sectored_hex, (7,)), (build_hex_torus, (2, 3)),
    (build_sectored_hex_torus, (1, 4)),
], ids=["hex-ball", "sectorized-ball", "hex-torus", "sectorized-torus"])
def test_cooperation_free_proof_falls_back_to_the_walk(make, size, edit, ok):
    """Without masters and cooperation a builder's ball or torus is proven without the walk,
    unless an active node is not fast or hears another, the roles do not repeat with the
    spacing-1 lattice, or the network is a copy."""
    net, assoc = _no_coop_case(make, size)
    subnets, _ = validate(net, assoc)
    assert subnets.translates == (((0,), len(subnets.members)),)
    net, assoc = edit(net, assoc)
    subnets, report = validate(net, assoc)
    assert subnets.translates is None and report.ok == ok
    assert_proof_is_walk(net, assoc)
    ref_subnets, ref_report = ref_subnet_decompose(net, assoc)
    assert subnet_decompose(net, assoc)[1] == ref_report
    assert [(s.members, s.master, s.gamma) for s in subnets] == \
        [(s.members, s.master, s.gamma) for s in ref_subnets]
    assert message_ledger(net, assoc, subnets) == ref_message_ledger(net, assoc, ref_subnets)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_lattice_proof_equals_the_walk_on_drawn_balls_and_tori(data):
    """A builder's ball or torus with an association of any scheme, no-coop included, at
    most one edit away from ``assign``'s: whether or not a proof is taken, it is the walk."""
    model = data.draw(st.sampled_from((HEX, SECTORED)), "model")
    scheme = data.draw(st.sampled_from(  # the schemes the model runs
        [s for s in Scheme if valid_range(model, s, 2)]), "scheme")
    D = data.draw(st.sampled_from(valid_range(model, scheme, 14 if model == HEX else 8)), "D")
    L = data.draw(st.integers(1, 4), "L")
    # the spacing of the roles' lattice; no-coop roles repeat with 1, on a torus of any spacing
    tau = scheme_tau(model, scheme, D) if scheme.cooperative else 1
    edit = data.draw(st.sampled_from((None, "flip", "drop", "replace", "orbit")), "edit")
    # an orbit on a ball is drawn on one with translates, of radius 3 tau >= 2 tau + R (every
    # template's extent R is at most tau), and often through the template around the centre:
    # there a role repeated along one generator alone differs along the other
    if ball := data.draw(st.booleans(), "ball"):
        radius = st.integers(3 * tau, 3 * tau + 4) if edit == "orbit" else st.integers(0, 20)
        net = (build_hex if model == HEX else build_sectored_hex)(data.draw(radius, "radius"), L)
    else:
        spacing = tau if scheme.cooperative else data.draw(st.integers(1, 4), "spacing")
        net = (build_hex_torus if model == HEX else build_sectored_hex_torus)(
            spacing, data.draw(st.integers(1, 4), "copies"), L)
    assoc, nk = assign(net, D, scheme), len(net.tx_nodes) // len(net.rx_nodes)
    if edit in ("flip", "orbit"):
        nodes = st.sampled_from(net.tx_nodes)
        if ball and edit == "orbit":
            nodes |= st.sampled_from([k for k in net.tx_nodes
                                      if hex_distance(net.cell_coords[k // nk], (0, 0)) < tau])
        k = data.draw(nodes, "node")
        role = data.draw(st.sampled_from([r for r in Role if r is not assoc.roles[k]]), "role")
        assoc.roles[k] = role
    if edit == "orbit":  # the role at k's images under one master-lattice vector too
        va, vb = data.draw(st.sampled_from(
            [(tau, 2 * tau), (tau, -tau), (2 * tau, tau), (0, 3 * tau)]), "vector")
        a, b = net.cell_coords[k // nk]
        for j in range(-20, 21):
            cell = (a + j * va, b + j * vb)
            if (cell := net.geometry.canon(cell) if not net.has_rim else cell) in net.cell_coords:
                assoc.roles[nk * net.cell_coords.index(cell) + k % nk] = role
    elif edit == "drop" and assoc.masters:
        m = data.draw(st.sampled_from(assoc.masters), "master")
        assoc = replace(assoc, masters=tuple(x for x in assoc.masters if x != m))
    elif edit == "drop":  # no master to drop: one is added, so no cooperation-free proof
        assoc = replace(assoc, masters=(data.draw(st.sampled_from(net.rx_nodes), "master"),))
    elif edit == "replace":  # a copy of the network matches no mark, so it takes the walk
        net = replace(net)
        assoc = replace(assoc, net=net)
    proven = assert_proof_is_walk(net, assoc)
    assert not (proven and edit == "replace")
    # every torus is proven, and every ball without cooperation
    assert proven or edit is not None or net.has_rim and scheme.cooperative
    assert not (proven and edit == "drop" and not scheme.cooperative)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_line_proof_equals_the_walk_on_drawn_lines(data):
    """A builder's line with an association of any scheme, at most one edit away from
    ``assign``'s (an orbit repeats a flipped role with the period P): whether or not the
    period proof is taken, it is the walk."""
    scheme = data.draw(st.sampled_from(list(Scheme)), "scheme")
    D = data.draw(st.sampled_from(valid_range(WYNER, scheme, 14)), "D")
    net = build_wyner(data.draw(st.integers(1, 300), "K"), data.draw(st.integers(1, 4), "L"))
    assoc = assign(net, D, scheme)
    edit = data.draw(st.sampled_from((None, "flip", "drop", "replace", "orbit")), "edit")
    if edit in ("flip", "orbit"):
        k = data.draw(st.sampled_from(net.tx_nodes), "node")
        role = data.draw(st.sampled_from([r for r in Role if r is not assoc.roles[k]]), "role")
        P = D + 2 if scheme.cooperative else 2
        for j in (range(k % P or P, len(assoc.roles), P) if edit == "orbit" else (k,)):
            assoc.roles[j] = role
    elif edit == "drop" and assoc.masters:
        m = data.draw(st.sampled_from(assoc.masters), "master")
        assoc = replace(assoc, masters=tuple(x for x in assoc.masters if x != m))
    elif edit == "drop":  # no master to drop: one is added
        assoc = replace(assoc, masters=(data.draw(st.sampled_from(net.rx_nodes), "master"),))
    elif edit == "replace":
        net = replace(net)
        assoc = replace(assoc, net=net)
    proven = assert_proof_is_walk(net, assoc)
    assert not (proven and edit in ("replace", "flip", "drop"))


MARKED = ("model", "tx_nodes", "rx_nodes", "interference", "tx_coop", "rx_coop", "tx_cell",
          "cell_coords")


def _equal_copy(value):
    """An object equal to ``value`` that is not ``value``."""
    if isinstance(value, str):
        other = "".join([*value])
    else:
        other = value[:] if isinstance(value, range) else tuple([*value])
    assert other == value and other is not value
    return other


def _changed(net, how):
    """``net`` copied or changed after its builder returned it, its graph kept."""
    if how == "deepcopy":
        return copy.deepcopy(net)
    if how == "replace":
        return replace(net)
    if how == "rebuilt":  # a hand-made network from the builder's own objects
        return Network(**{f.name: getattr(net, f.name) for f in fields(Network) if f.init})
    if how == "params":
        (key,) = net.params
        net.params[key] += 1
    else:
        setattr(net, how, _equal_copy(getattr(net, how)))
    return net


@pytest.mark.parametrize("how", ["deepcopy", "replace", *MARKED, "params", "rebuilt"])
@pytest.mark.parametrize("make, D", [
    (lambda: build_wyner(45, 1), 6),  # five whole runs of period 8 and a tail
    (lambda: build_hex(14, 1), 8),
    (lambda: build_sectored_hex(12, 1), 4),
], ids=["line", "hex-ball", "sectorized-ball"])
def test_only_a_network_as_its_builder_returned_it_takes_a_proof(make, D, how):
    net = make()
    for name in MARKED:
        hash(getattr(net, name))  # immutable, so that the mark cannot go stale
    assoc = assign(net, D, Scheme.BOTH_COMP_RX)
    proven, proven_report = validate(net, assoc)
    assert proven.translates is not None
    net = _changed(net, how)
    assoc = replace(assoc, net=net)  # the same roles and masters
    subnets, report = validate(net, assoc)
    assert (subnets.translates is not None) == (how == "deepcopy")
    for col in COLUMNS:
        assert list(getattr(subnets, col)) == list(getattr(proven, col)), col
    assert report == proven_report
    ref_subnets, ref_report = ref_subnet_decompose(net, assoc)
    assert subnet_decompose(net, assoc)[1] == ref_report
    assert message_ledger(net, assoc, subnets) == ref_message_ledger(net, assoc, ref_subnets)


def test_ledger_scratch_ends_at_the_last_numbered_cell():
    """The ledger's per-cell scratch stops at the last cell of the nodes it counts; a
    route's parent search that meets a neighbour past it (here each cell lists its higher
    neighbour first) reads that cell as one the route does not reach."""
    line = build_wyner(15, 1)  # two whole runs of period 8
    net = replace(line, rx_coop=tuple(nbrs[::-1] for nbrs in line.rx_coop))
    assoc = assign(net, 6, Scheme.SLOW_COMP_RX)
    walk, report = validate(net, assoc)
    assert report.ok and walk.translates is None
    # the walk's columns, read as a proof would give them: run 1 a translate of run 0
    proven = validation.Subnets(assoc, walk.members, walk.starts, walk.masters, walk.hop,
                                (((0,), 2),))
    assert message_ledger(net, assoc, proven) == message_ledger(net, assoc, walk) == \
        ref_message_ledger(net, assoc, ref_subnet_decompose(net, assoc)[0])


def test_ledger_names_a_missing_link():
    net, _ = _swapped_nodes()
    assoc = assign(net, 6, Scheme.BOTH_COMP_RX)  # fast node 23 hears slow 22, which lacks 23
    subnets, _ = validate(net, assoc)
    with pytest.raises(ValueError, match=r"fast node 23 hears slow node 22, but tx_coop "
                                         r"has no link 22 -> 23"):
        message_ledger(net, assoc, subnets)
    rx = list(net.rx_coop)
    rx[23] = (24,)  # the Rx side now lacks 23 -> 24 as well; tx_coop is checked first
    net2 = replace(net, rx_coop=tuple(rx), tx_coop=tuple(
        (*a, 23) if k == 22 else a for k, a in enumerate(net.tx_coop)))
    assoc2 = replace(assoc, net=net2)
    subnets2, _ = validate(net2, assoc2)
    with pytest.raises(ValueError, match=r"fast node 23 hears slow node 22, but rx_coop has "
                                         r"no link 23 -> 22"):
        message_ledger(net2, assoc2, subnets2)
    line = build_wyner(16, 1)
    rx = list(line.rx_coop)
    rx[3] = (2,)  # master 4 reaches cell 3, which has no link back
    net3 = replace(line, rx_coop=tuple(rx))
    assoc3 = assign(net3, 6, Scheme.SLOW_COMP_RX)
    subnets3, report3 = validate(net3, assoc3)
    assert report3.ok
    with pytest.raises(ValueError, match=r"cell 3 has no link both ways in rx_coop to a cell "
                                         r"one hop nearer master 4"):
        message_ledger(net3, assoc3, subnets3)
