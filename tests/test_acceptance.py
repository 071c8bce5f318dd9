"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every numeric comparison here is exact rational equality unless the
criterion itself is about figure-coordinate rounding (criterion 8, where
the reference figures carry 3-4 decimal digits, so agreement is checked to
1e-3).  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from mgnet import (HEX, SECTORED, WYNER, MgPoint, Role, Scheme,
                   achievable_region, assign, build_hex_torus,
                   build_sectored_hex_torus, build_wyner, closed_form,
                   finite_prelogs, hex_distance, is_subset, mixed_subnet_counts,
                   message_ledger, outer_bound_wyner, outer_polygon_wyner,
                   validate)
from mgnet.association import scheme_tau
from mgnet.figures import build_figure
from mgnet.loads import formulas

ALL_SCHEMES = list(Scheme)
SECTOR_SCHEMES = [Scheme.BOTH_COMP_RX, Scheme.SLOW_COMP_RX, Scheme.NO_COOP]


@contextmanager
def criterion(n, text):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {n} ({text}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({text}): PASS")


def run_scheme(net, D, scheme):
    assoc = assign(net, D, scheme)
    subnets, rep = validate(net, assoc)
    assert rep.ok, rep.violations
    return assoc, subnets, message_ledger(net, assoc, subnets)


def torus_for(model, D, scheme, L, copies=1):
    tau = scheme_tau(model, scheme, D)
    build = build_hex_torus if model == HEX else build_sectored_hex_torus
    return build(tau, copies, L)


def test_criterion_1_wyner_closed_forms():
    with criterion(1, "Wyner closed forms, exact"):
        for D in (2, 4, 6, 8, 10):
            for L in (1, 3):
                f = formulas(WYNER, D, L)
                assert f["s_f_both"] == F(L, 2)
                assert f["s_s_both"] == F(L * D, 2 * (D + 2))
                assert f["s_max"] == F(L * (D + 1), D + 2)
                assert f["s_nocoop"] == F(L, 2)
                assert f["mu_r_tx"] == F(L * D, 2 * (D + 2))
                branch = 1 if (D // 2 + 1) % 2 == 0 else 2
                assert f["mu_r_rx"] == L * (F(D) + F(D * D, 4) - branch) / (2 * (D + 2))
                assert f["mu_t_tx"] == F(L * D, 8)
                assert f["mu_s_rx"] == F(L * D, 4)
                for scheme in ALL_SCHEMES:
                    net = build_wyner(D + 2, L)
                    _, _, led = run_scheme(net, D, scheme)
                    cf = closed_form(WYNER, scheme, D, L)
                    assert (led.mu_tx, led.mu_rx) == (cf.mu_tx, cf.mu_rx)
        f6 = formulas(WYNER, 6, 3)
        assert (f6["mu_r_tx"], f6["mu_r_rx"], f6["mu_t_tx"], f6["mu_s_rx"]) == \
            (F(9, 8), F(21, 8), F(9, 4), F(9, 2))
        f10 = formulas(WYNER, 10, 3)
        assert (f10["mu_r_tx"], f10["mu_r_rx"], f10["mu_t_tx"], f10["mu_s_rx"]) == \
            (F(5, 4), F(17, 4), F(15, 4), F(15, 2))


def test_criterion_2_wyner_oracle_equivalence_and_convergence():
    with criterion(2, "Wyner ledger oracle equivalence + 1/K convergence"):
        D, L = 6, 3
        for scheme in ALL_SCHEMES:
            for m in (1, 2, 4):
                net = build_wyner(m * (D + 2), L)
                _, _, led = run_scheme(net, D, scheme)
                cf = closed_form(WYNER, scheme, D, L)
                assert (led.mu_tx, led.mu_rx) == (cf.mu_tx, cf.mu_rx)
        # finite-K prelogs (denominator 2K - 2) converge like C / K up to K = 2^12
        base = build_wyner(D + 2, L)
        _, _, led1 = run_scheme(base, D, Scheme.BOTH_COMP_RX)
        t_tx, t_rx = led1.tx_message_total, led1.rx_message_total
        cf = closed_form(WYNER, Scheme.BOTH_COMP_RX, D, L)
        for m in (1, 2, 4, 16, 64, 256, 512):
            K = m * (D + 2)
            assert K <= 2**12
            net = build_wyner(K, L)
            _, _, led = run_scheme(net, D, Scheme.BOTH_COMP_RX)
            fin_tx, fin_rx = finite_prelogs(led, net)
            assert abs(fin_tx - cf.mu_tx) <= F(L * t_tx, K)
            assert abs(fin_rx - cf.mu_rx) <= F(L * t_rx, K)


def test_criterion_3_region_and_outer_bound_geometry():
    with criterion(3, "region geometry vs outer bound"):
        D, L = 6, 3
        region = achievable_region(WYNER, D, L, F(9, 8), F(21, 8))
        expected = {MgPoint(F(0), F(0)), MgPoint(F(0), F(21, 8)),
                    MgPoint(F(3, 2), F(9, 8)), MgPoint(F(3, 2), F(0))}
        assert set(region.vertices) == expected
        assert region == outer_polygon_wyner(D, L)

        r2 = achievable_region(WYNER, D, L, F(1, 2), F(9, 2))
        v = {p.s_f: p for p in r2.vertices}
        s1 = (v[F(2, 3)].s_s - v[F(0)].s_s) / (v[F(2, 3)].s_f - F(0))
        s2 = (v[F(3, 2)].s_s - v[F(2, 3)].s_s) / (v[F(3, 2)].s_f - v[F(2, 3)].s_f)
        assert s1 == -1 and s2 == F(-7, 4)

        hp = outer_bound_wyner(D, L)
        grid = [F(i, 4) for i in range(20)]
        for mu_tx in grid:
            for mu_rx in grid:
                assert is_subset(achievable_region(WYNER, D, L, mu_tx, mu_rx), hp)


def test_criterion_4_hex_subnet_counts():
    with criterion(4, "hexagonal per-subnet counts, exact"):
        elapsed = {}
        for D in (2, 8, 14):
            t0 = time.perf_counter()
            r = D // 2 - 1
            cells = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                     if hex_distance((a, b), (0, 0)) <= r]
            fast = sum(1 for (a, b) in cells if (a + b) % 3 == 0)
            assert mixed_subnet_counts(D) == (fast, len(cells) - fast)
            assert mixed_subnet_counts(D) == (D * D // 4 - D // 2 + 1, D * D // 2 - D)

            net = build_hex_torus(D // 2, 1, 1)
            _, _, led = run_scheme(net, D, Scheme.BOTH_COMP_RX)
            assert led.precancel_msgs == (3 * D * D - 10 * D + 8) // 2
            assert led.rx_message_total == (2 * D**3 + 3 * D * D - 30 * D + 32) // 6
            _, _, led_tx = run_scheme(net, D, Scheme.BOTH_COMP_TX)
            assert led_tx.q_dedup == D * D // 2 - 3 * D + 10
            assert led_tx.tx_message_total == (2 * D**3 - 12 * D - 28) // 6

            slow_net = build_hex_torus(D // 2 + 1, 1, 1)
            _, _, led_s = run_scheme(slow_net, D, Scheme.SLOW_COMP_RX)
            assert 2 * led_s.fanin_msgs == D * (D + 2) * (D + 1) // 2
            elapsed[D] = time.perf_counter() - t0

        net8 = build_hex_torus(4, 1, 1)
        a8, sub8, led8 = run_scheme(net8, 8, Scheme.BOTH_COMP_RX)
        _, _, led8t = run_scheme(net8, 8, Scheme.BOTH_COMP_TX)
        gamma_slow = sum(sub8[0].gamma[k] for k in sub8[0].slow_members)
        assert (len(a8.nodes_with(Role.FAST)), len(a8.nodes_with(Role.SLOW))) == (13, 24)
        assert led8.precancel_msgs == 60
        assert led8t.q_dedup == 18
        assert led8t.tx_message_total == 150  # = 2*54 + 60 - 18
        assert gamma_slow == 54
        assert elapsed[14] < 10.0


def test_criterion_5_hex_prelogs_and_mgs():
    with criterion(5, "hexagonal MGs and prelogs at D=8, L=3, exact from ledgers"):
        D, L = 8, 3
        net = build_hex_torus(4, 1, L)
        assoc, _, led = run_scheme(net, D, Scheme.BOTH_COMP_RX)
        n = net.n_tx
        assert F(L * len(assoc.nodes_with(Role.FAST)), n) == F(13, 16)
        assert F(L * len(assoc.nodes_with(Role.SLOW)), n) == F(3, 2)
        assert led.mu_tx == F(5, 8)
        assert led.mu_rx == F(7, 4)
        _, _, led_tx = run_scheme(net, D, Scheme.BOTH_COMP_TX)
        assert led_tx.mu_tx == F(25, 16)
        slow_net = build_hex_torus(5, 1, L)
        s_assoc, _, led_s = run_scheme(slow_net, D, Scheme.SLOW_COMP_RX)
        assert F(L * len(s_assoc.nodes_with(Role.SLOW)), slow_net.n_tx) == F(61, 25)
        assert led_s.mu_rx == F(12, 5)

        fig8 = dict(build_figure("fig8"))
        pts = set(fig8["muRx>=2.4 muTx>=0.625"])
        assert MgPoint(F(0), F(61, 25)) in pts
        assert MgPoint(F(13, 16), F(3, 2)) in pts


def test_criterion_6_sectorized_counts_and_forms():
    with criterion(6, "sectorized per-subnet counts and closed forms, exact"):
        L = 3
        for D in (2, 4, 8):
            net = torus_for(SECTORED, D, Scheme.BOTH_COMP_RX, L)
            assoc, _, led = run_scheme(net, D, Scheme.BOTH_COMP_RX)
            n_active = len(assoc.nodes_with(Role.FAST)) + len(assoc.nodes_with(Role.SLOW))
            assert n_active == 9 * D * D // 4 - 3 * D // 2
            assert len(assoc.nodes_with(Role.FAST)) == 3 * D * D // 4
            assert led.precancel_msgs == 3 * D * (D - 1)
            assert led.rx_message_total == D * (2 * D * D - 5) // 2
            f = formulas(SECTORED, D, L)
            assert f["s_max"] == F(L * (3 * D - 2), 3 * D)
            assert (f["s_f_both"], f["s_s_both"]) == (F(L, 3), F(L * (2 * D - 2), 3 * D))
            assert f["mu_r_tx"] == F(L * (D - 1), 3 * D)
            assert f["mu_r_rx"] == F(L * (2 * D * D - 5), 9 * D)
            assert f["mu_s_rx"] == F(L * (D - 1), 3)
            assert (led.mu_tx, led.mu_rx) == (f["mu_r_tx"], f["mu_r_rx"])
        f4 = formulas(SECTORED, 4, 3)
        assert f4["s_max"] == F(5, 2)
        assert (f4["s_f_both"], f4["s_s_both"]) == (F(1), F(3, 2))
        assert (f4["mu_r_tx"], f4["mu_r_rx"], f4["mu_s_rx"]) == (F(3, 4), F(9, 4), F(3))


GRID = [(WYNER, D, s) for D in (2, 4, 6, 8, 10) for s in ALL_SCHEMES] + \
       [(HEX, D, s) for D in (2, 8, 14) for s in ALL_SCHEMES] + \
       [(SECTORED, D, s) for D in (2, 4, 8) for s in SECTOR_SCHEMES]


def _mutate(net, assoc):
    """Flip one role so that some structural check must fail."""
    roles = assoc.roles
    if assoc.scheme is Scheme.NO_COOP or assoc.scheme.mixed:
        # activate a silenced node next to a fast one
        for k in net.tx_nodes:
            if roles[k] is Role.SILENT and \
                    any(roles[j] is Role.FAST for j in net.interference[k]):
                roles[k] = Role.FAST
                return
        raise AssertionError("no silent node adjacent to a fast one")
    # slow-only: waking a separator merges two subnets (two masters, or
    # unreachable nodes on a torus seeing itself)
    for k in net.tx_nodes:
        if roles[k] is Role.SILENT:
            roles[k] = Role.SLOW
            return
    raise AssertionError("no silent node to flip")


def test_criterion_7_validation_grid_and_mutations():
    with criterion(7, "validation passes on the grid; mutations are caught"):
        for model, D, scheme in GRID:
            if model == WYNER:
                net = build_wyner(2 * (D + 2), 1)
            else:
                copies = 2 if scheme.cooperative else 1
                if scheme is Scheme.NO_COOP:
                    net = torus_for(model, max(D, 2), Scheme.BOTH_COMP_RX, 1, copies=2)
                else:
                    net = torus_for(model, D, scheme, 1, copies=copies)
            assoc = assign(net, D, scheme)
            subnets, rep = validate(net, assoc)
            assert rep.ok, (model, D, scheme, rep.violations)
            assert not rep.violations

            _mutate(net, assoc)
            _, bad = validate(net, assoc)
            assert bad.violations, (model, D, scheme, "mutation not caught")


REFERENCE_POLYLINES = {
    # plotted coordinates of the reference figures (their own rounding)
    "fig5a": {
        "outer bound": [(0, 2.625), (1.5, 1.125), (1.5, 0)],
        "muRx>=2.625 muTx>=1.125": [(0, 2.625), (1.5, 1.125), (1.5, 0)],
        "muRx>=1.125 muTx>=2.25": [(0, 2.625), (1.5, 1.125), (1.5, 0)],
        "muRx>=4.5 muTx=0.5": [(0, 2.625), (0.6666, 1.9583), (1.5, 0.5), (1.5, 0)],
        "muRx=0.5 muTx>=4.5": [(0, 2.625), (0.6666, 1.9583), (1.5, 0.5), (1.5, 0)],
        "muRx=0.5 muTx=1": [(0, 2.0), (1.5, 0.5), (1.5, 0)],
        "muRx=1 muTx=0.5": [(0, 1.928), (1.5, 0.428), (1.5, 0)],
    },
    "fig5b": {
        "outer bound": [(0, 2.75), (1.5, 1.25), (1.5, 0)],
        "muRx>=4.25 muTx>=1.25": [(0, 2.75), (1.5, 1.25), (1.5, 0)],
        "muRx>=1.25 muTx>=3.75": [(0, 2.75), (1.5, 1.25), (1.5, 0)],
        "muRx>=7.5 muTx=0.5": [(0, 2.75), (0.6, 2.15), (1.5, 0.5), (1.5, 0)],
        "muRx=0.5 muTx>=7.5": [(0, 2.75), (0.6, 2.15), (1.5, 0.5), (1.5, 0)],
        "muRx=0.5 muTx=1": [(0, 2.0), (1.5, 0.5), (1.5, 0)],
        "muRx=1 muTx=0.5": [(0, 1.928), (1.5, 0.428), (1.5, 0)],
    },
    "fig8": {
        "muRx>=2.4 muTx>=0.625": [(0, 2.44), (0.8125, 1.5), (1, 0)],
        "muRx>=0.625 muTx>=2.4": [(0, 2.44), (0.8125, 1.5), (1, 0)],
        "1.75<=muRx<2.4 muTx>=0.625": [(0, 2.3125), (0.8125, 1.5), (1, 0)],
        "muRx>=0.625 1.5625<=muTx<2.4": [(0, 2.3125), (0.8125, 1.5), (1, 0)],
        "muRx>=2.4 muTx=0.1": [(0, 2.44), (0.13, 2.2896), (0.97, 0.24), (1, 0)],
        "muRx=0.1 muTx>=2.4": [(0, 2.44), (0.13, 2.2896), (0.97, 0.24), (1, 0)],
        "muRx=0.5 muTx=1": [(0, 1.6), (0.88, 0.96), (1, 0)],
        "muRx=1 muTx=0.5": [(0, 1.6), (0.8928, 0.8571), (1, 0)],
    },
    "fig10": {
        "muRx>=2.25 muTx>=0.75": [(0, 2.5), (1, 1.5), (1, 0)],
        "muRx>=3 muTx=0.1": [(0, 2.5), (0.1333, 2.3667), (1, 0.2), (1, 0)],
        "muRx=2 muTx=0.1": [(0, 1.2), (1, 0.2), (1, 0)],
    },
}


def test_criterion_8_figure_reproduction():
    with criterion(8, "figure datasets match plotted coordinates to 3 decimals"):
        for name, expected in REFERENCE_POLYLINES.items():
            series = dict(build_figure(name))
            assert set(series) == set(expected)
            for label, pts in expected.items():
                got = series[label]
                assert len(got) == len(pts), (name, label, got)
                for (xf, yf), p in zip(pts, got):
                    assert abs(float(p.s_f) - xf) <= 1e-3, (name, label, p)
                    assert abs(float(p.s_s) - yf) <= 1e-3, (name, label, p)
        # the exact rationals behind the rounded figure coordinates
        fig5a = dict(build_figure("fig5a"))
        assert fig5a["muRx>=4.5 muTx=0.5"][1] == MgPoint(F(2, 3), F(47, 24))
        assert fig5a["muRx=1 muTx=0.5"][0] == MgPoint(F(0), F(27, 14))
        fig8 = dict(build_figure("fig8"))
        assert fig8["muRx>=2.4 muTx=0.1"][1] == MgPoint(F(13, 100), F(1431, 625))
        assert fig8["muRx=1 muTx=0.5"][1] == MgPoint(F(25, 28), F(6, 7))
        fig10 = dict(build_figure("fig10"))
        assert fig10["muRx>=3 muTx=0.1"][1] == MgPoint(F(2, 15), F(71, 30))


def test_build_figure_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown figure 'nosuch'; choose from"):
        build_figure("nosuch")
