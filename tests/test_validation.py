"""Structural validation: fast independence, decomposition, reachability."""

from __future__ import annotations

import tracemalloc
import types
from collections.abc import Sequence
from dataclasses import replace

import pytest

import mgnet
from mgnet import (HEX, Association, Network, Role, Scheme, Subnet, Subnets, ValidationReport,
                   assign, build_hex, build_hex_torus, build_sectored_hex,
                   build_sectored_hex_torus, build_wyner, check_round_split,
                   message_ledger, subnet_decompose, validate)
from mgnet.validation import hop_budget


def test_round_split():
    assert check_round_split(Scheme.BOTH_COMP_RX, 6) == (1, 5)
    assert check_round_split(Scheme.BOTH_COMP_TX, 10) == (9, 1)
    assert check_round_split(Scheme.NO_COOP, 0) == (0, 0)
    assert check_round_split(Scheme.SLOW_COMP_RX, 6) == (0, 6)
    for scheme in (Scheme.BOTH_COMP_RX, Scheme.SLOW_COMP_TX):
        with pytest.raises(ValueError):
            check_round_split(scheme, 0)
    for scheme, d in ((Scheme.BOTH_COMP_RX, 6), (Scheme.SLOW_COMP_TX, 4), (Scheme.NO_COOP, 2)):
        d_tx, d_rx = check_round_split(scheme, d)
        assert d_tx + d_rx <= d
    # the hop budget, read from the round split, keeps the per-scheme rules it replaced
    for scheme in Scheme:
        for d in range(2 if scheme.cooperative else 0, 27, 2):
            old = (d - 2) // 2 if scheme.mixed else d // 2 if scheme.cooperative else 0
            assert hop_budget(scheme, d) == old, (scheme, d)


def test_wyner_fast_independence():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    assert validate(net, a)[1].fast_independent

    a.roles[2] = Role.FAST  # adjacent to fast 1 and 3
    _, bad = validate(net, a)
    assert not bad.fast_independent
    assert any(n == 2 for n, _ in bad.violations)


def test_wyner_decomposition():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    subnets, rep = subnet_decompose(net, a)
    assert rep.subnets_disjoint
    assert [s.members for s in subnets] == [tuple(range(1, 8)), tuple(range(9, 16))]
    assert [s.master for s in subnets] == [4, 12]
    assert subnets[0].gamma[2] == 2 and subnets[0].gamma[6] == 2


def test_hex_decomposition_subnet_size():
    net = build_hex_torus(4, 2, 1)
    a = assign(net, 8, Scheme.BOTH_COMP_RX)
    subnets, rep = subnet_decompose(net, a)
    assert rep.subnets_disjoint
    assert len(subnets) == 4
    assert all(len(s.members) == 37 for s in subnets)  # 1 + (3/4) D (D-2)


def test_all_silent_gives_zero_subnets():
    net = build_wyner(8, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    for k in net.tx_nodes:
        a.roles[k] = Role.SILENT
    subnets, _ = subnet_decompose(net, a)
    assert list(subnets) == []


def test_hex_fast_pairs_exhaustive():
    net = build_hex_torus(4, 2, 1)
    a = assign(net, 8, Scheme.BOTH_COMP_RX)
    fast = set(a.nodes_with(Role.FAST))
    for k in fast:
        assert not fast & set(net.interference[k])
    assert validate(net, a)[1].fast_independent


def test_reachability_budgets():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    _, rep = validate(net, a)
    assert rep.master_reachable and rep.hop_budget == 2

    s = assign(net, 6, Scheme.SLOW_COMP_RX)
    subnets, rep = validate(net, s)
    assert rep.master_reachable and rep.hop_budget == 3
    assert max(g for sub in subnets for g in sub.gamma.values()) == 3


def test_budget_zero_fails():
    net = hand_built(((1,), (0,)), ((1,), (0,)), range(2))
    a = Association(net, Scheme.BOTH_COMP_RX, 2, [Role.FAST, Role.SLOW], (0,))
    subnets, rep = validate(net, a)
    assert list(subnets) == [Subnet((0, 1), 0, {0: 0, 1: 1}, (1,))]
    assert rep.violations == [(1, "hop-budget-exceeded-1>0")]
    assert not rep.master_reachable


def test_wyner_gamma_sum_oracle():
    # D/2 + 1 even: per-subnet gamma sum is (D^2/4 - 1) / 2
    for D in (6, 10):
        net = build_wyner(D + 2, 1)
        a = assign(net, D, Scheme.BOTH_COMP_RX)
        subnets, _ = subnet_decompose(net, a)
        total = sum(subnets[0].gamma[k] for k in subnets[0].slow_members)
        assert total == (D * D // 4 - 1) // 2
    # D/2 + 1 odd: D^2 / 8
    for D in (4, 8):
        net = build_wyner(D + 2, 1)
        a = assign(net, D, Scheme.BOTH_COMP_RX)
        subnets, _ = subnet_decompose(net, a)
        total = sum(subnets[0].gamma[k] for k in subnets[0].slow_members)
        assert total == D * D // 8


def test_hex_gamma_sum_and_layer_counts():
    for D in (8, 14):
        net = build_hex_torus(D // 2, 1, 1)
        a = assign(net, D, Scheme.BOTH_COMP_RX)
        subnets, _ = subnet_decompose(net, a)
        sub = subnets[0]
        total = sum(sub.gamma[k] for k in sub.slow_members)
        assert total == (D**3 - 3 * D * D + 4) // 6
        for i in range(1, D // 2):
            assert sum(1 for k in sub.members if sub.gamma[k] == i) == 6 * i
        # slow cells per layer follow the 4i / 4i+2 / 4i-2 rule
        for i in range(1, D // 2):
            n = sum(1 for k in sub.slow_members if sub.gamma[k] == i)
            assert n == {0: 4 * i, 1: 4 * i + 2, 2: 4 * i - 2}[i % 3]


def test_hex_slow_only_layer_sizes():
    D = 8
    net = build_hex_torus(D // 2 + 1, 1, 1)
    a = assign(net, D, Scheme.SLOW_COMP_RX)
    subnets, _ = subnet_decompose(net, a)
    sub = subnets[0]
    for i in range(1, D // 2 + 1):
        assert sum(1 for k in sub.members if sub.gamma[k] == i) == 6 * i


def test_sectorized_validation():
    net = build_sectored_hex_torus(2, 1, 1)
    a = assign(net, 4, Scheme.BOTH_COMP_RX)
    subnets, rep = validate(net, a)
    assert rep.ok
    assert len(subnets) == 1
    assert max(subnets[0].gamma.values()) == 2  # ring sectors sit D/2 cell hops out
    assert max(subnets[0].gamma[k] for k in subnets[0].slow_members) == 1


def test_wyner_partial_subnet_is_warned_not_failed():
    net = build_wyner(20, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    subnets, rep = validate(net, a)
    assert rep.ok
    assert any(w.startswith("partial-subnet") for w in rep.warnings)


@pytest.mark.parametrize("make", [lambda: build_wyner(41, 2), lambda: build_hex(5, 1),
                                  lambda: build_hex_torus(2, 2, 1),
                                  lambda: build_sectored_hex(4, 1),
                                  lambda: build_sectored_hex_torus(3, 2, 1)])
def test_no_coop_decomposition_is_lone_fast_nodes(make):
    net = make()
    a = assign(net, 0, Scheme.NO_COOP)
    subnets, rep = subnet_decompose(net, a)
    assert list(subnets) == [Subnet((k,), None, {}, ()) for k in a.nodes_with(Role.FAST)]
    assert rep == ValidationReport(hop_budget=0)


def test_masterless_cooperative_line_warns_per_component():
    net = build_wyner(6, 1)  # shorter than one whole D=6 subnet
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    assert a.masters == ()
    subnets, rep = subnet_decompose(net, a)
    assert list(subnets) == [Subnet((1, 2, 3, 4, 5, 6), None, {}, (2, 4, 6))]
    assert rep == ValidationReport(hop_budget=2, warnings=["partial-subnet:1"])


def hand_built(interference, rx_coop, tx_cell):
    """A hexagonal-model network given by its adjacency alone (no coordinates)."""
    nodes = tuple(range(len(interference)))
    return Network(model=HEX, L=1, tx_nodes=nodes, rx_nodes=nodes,
                   interference=interference, tx_coop=interference, rx_coop=rx_coop,
                   q_tx=sum(map(len, interference)), q_rx=sum(map(len, rx_coop)),
                   tx_cell=tx_cell)


def test_two_masters_in_one_component():
    net = build_wyner(8, 1)
    a = Association(net, Scheme.SLOW_COMP_RX, 6, [None] + [Role.SLOW] * 8, (2, 6))
    subnets, rep = validate(net, a)
    assert rep.violations == [(6, "multi-master")]
    assert not rep.subnets_disjoint and rep.master_reachable
    assert [(s.members, s.master, s.gamma) for s in subnets] == [(tuple(range(1, 9)), None, {})]


def test_whole_torus_subnet_without_master():
    net = build_hex_torus(4, 1, 1)
    a = replace(assign(net, 8, Scheme.BOTH_COMP_RX), masters=())
    _, rep = validate(net, a)
    assert rep.violations == [(0, "no-master")]
    assert not rep.master_reachable and rep.warnings == []


# tx_cell as the identity range (a node is its own cell) and as a plain list
@pytest.mark.parametrize("tx_cell", [range(3), [0, 1, 2]], ids=["range", "list"])
def test_members_without_a_cooperation_path_are_unreachable(tx_cell):
    net = hand_built(((1,), (0, 2), (1,)), ((), (), ()), tx_cell)
    a = Association(net, Scheme.SLOW_COMP_RX, 6, [Role.SLOW] * 3, (0,))
    subnets, rep = subnet_decompose(net, a)
    assert rep.violations == [(1, "unreachable"), (2, "unreachable")]
    assert list(subnets) == [Subnet((0, 1, 2), 0, {0: 0}, (0, 1, 2))]
    # the merged report names each unreachable member once
    _, rep = validate(net, a)
    assert rep.violations == [(1, "unreachable"), (2, "unreachable")]
    assert not rep.master_reachable


def test_one_way_interference_between_components():
    net = hand_built(((), (0,)), ((), ()), range(2))
    a = Association(net, Scheme.NO_COOP, 0, [Role.FAST] * 2, ())
    subnets, rep = validate(net, a)
    assert rep.violations == [(1, "fast-interference-from-0"),
                              (1, "cross-subnet-interference-0")]
    assert [s.members for s in subnets] == [(0,), (1,)]
    assert not rep.fast_independent and not rep.subnets_disjoint


@pytest.mark.parametrize("tx_cell", [range(6), [0, 1, 2, 3, 4, 5]], ids=["range", "list"])
def test_cross_component_violations_come_in_node_order(tx_cell):
    # the component {2, 5} is searched before node 3, but 3's edge is listed first
    net = hand_built(((), (), (5,), (0,), (), (1, 2)), ((),) * 6, tx_cell)
    a = Association(net, Scheme.NO_COOP, 0, [Role.SLOW] * 6, ())
    subnets, rep = subnet_decompose(net, a)
    assert [s.members for s in subnets] == [(0,), (1,), (2, 5), (3,), (4,)]
    assert rep.violations == [(3, "cross-subnet-interference-0"),
                              (5, "cross-subnet-interference-1")]


def test_subnets_are_columns_with_views_on_demand():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    subnets, _ = subnet_decompose(net, a)
    assert isinstance(subnets, Sequence) and isinstance(subnets, Subnets)
    assert subnets.members == list(range(1, 8)) + list(range(9, 16))
    assert list(subnets.starts) == [0, 7, 14]
    assert subnets.masters == [4, 12] and subnets.assoc is a
    assert subnets.hop[1:8] == [3, 2, 1, 0, 1, 2, 3] and subnets.hop[8] is None
    view = subnets[-1]
    assert view == Subnet(tuple(range(9, 16)), 12, {k: abs(k - 12) for k in range(9, 16)},
                          (10, 12, 14))
    assert subnets[1] == view and subnets[1] is not view  # built anew, never kept
    with pytest.raises(IndexError):
        subnets[2]


def test_no_coop_subnets_memory_per_subnet():
    net = build_wyner(100_000, 1)
    a = assign(net, 0, Scheme.NO_COOP)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        subnets, _ = subnet_decompose(net, a)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(subnets) == 50_000
    assert kept <= 90 * len(subnets), f"{kept / len(subnets):.0f} bytes per subnet"


def test_proven_line_subnets_memory_per_subnet():
    """A proven line's members and hops are computed: what a decomposition keeps grows
    with its subnets (the masters), not with its nodes."""
    net = build_wyner(100_000, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        subnets, _ = subnet_decompose(net, a)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert subnets.translates == (0, 12_500, ()) and len(subnets) == 12_500
    assert kept <= 90 * len(subnets), f"{kept / len(subnets):.0f} bytes per subnet"


def test_proven_line_ledger_memory():
    """The ledger of a proven line without a tail numbers run 0 alone, so its per-cell
    scratch stops there: its peak stays below one list of K + 1 slots (800 kB)."""
    net = build_wyner(100_000, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    subnets, _ = subnet_decompose(net, a)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ledger = message_ledger(net, a, subnets)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert subnets.translates == (0, 12_500, ()) and ledger.n_subnets == 12_500
    assert peak < 100_000, f"{peak} bytes at the peak"


def test_package_exports_no_modules():
    assert len(set(mgnet.__all__)) == len(mgnet.__all__)
    for name in mgnet.__all__:
        assert not isinstance(getattr(mgnet, name), types.ModuleType), name
    assert "Subnets" in mgnet.__all__ and "shifted_mod" not in mgnet.__all__
    assert "assign" in mgnet.__all__  # the one assignment entry point
    assert not {"assign_wyner", "assign_hex", "assign_sectored"} & set(mgnet.__all__)


@pytest.mark.parametrize("master", [-1, 3, 99])
def test_a_master_that_is_no_node_is_no_master(master):
    net = hand_built(((1,), (0, 2), (1,)), ((1,), (0, 2), (1,)), range(3))
    a = Association(net, Scheme.SLOW_COMP_RX, 6, [Role.SLOW] * 3, (master,))
    subnets, rep = subnet_decompose(net, a)
    assert subnets.masters == [None]
    assert rep.violations == [(0, "no-master")]


@pytest.mark.parametrize("outside", [(-1,), (10**6,), (-5, 10**6)])
def test_ball_with_every_master_outside_gives_the_walks_output(outside):
    net = build_hex(4, 1)
    a = replace(assign(net, 8, Scheme.BOTH_COMP_RX), masters=outside)
    copy = replace(net)  # an unmarked copy takes the general walk
    subnets, rep = subnet_decompose(net, a)
    walk, walk_rep = subnet_decompose(copy, replace(a, net=copy))
    assert subnets.translates is None and walk.translates is None
    for col in ("members", "starts", "masters", "hop"):
        assert list(getattr(subnets, col)) == list(getattr(walk, col)), col
    assert rep == walk_rep and rep.violations == []
    assert subnets.masters == [None] * len(subnets)
    assert rep.warnings == [f"partial-subnet:{subnets.members[j]}" for j in subnets.starts[:-1]]


VERDICTS = ("fast_independent", "subnets_disjoint", "master_reachable")


@pytest.mark.parametrize("code, failed", [
    ("fast-interference-from-2", "fast_independent"),
    ("multi-master", "subnets_disjoint"),
    ("cross-subnet-interference-4", "subnets_disjoint"),
    ("no-master", "master_reachable"),
    ("unreachable", "master_reachable"),
    ("hop-budget-exceeded-3>2", "master_reachable"),
])
def test_verdicts_are_read_off_the_violations(code, failed):
    rep = ValidationReport(2, [(1, code)], ["partial-subnet:5"])
    assert {v: getattr(rep, v) for v in VERDICTS} == {v: v != failed for v in VERDICTS}
    assert not rep.ok and ValidationReport(2, [], ["partial-subnet:5"]).ok
    with pytest.raises(AttributeError):
        setattr(rep, failed, True)
    assert list(rep.to_json_dict()) == [*VERDICTS, "hop_budget", "violations", "warnings"]
