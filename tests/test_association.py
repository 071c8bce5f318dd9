"""Role assignment and master designation for all schemes and models."""

from __future__ import annotations

import re
from dataclasses import fields, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_loads import valid_range

from mgnet import (Network, Role, Scheme, assign, build_hex, build_hex_torus,
                   build_sectored_hex, build_sectored_hex_torus, build_wyner,
                   check_params, hex_distance, valid_d)
from mgnet.association import _sector_fast_kind, _sector_silenced, scheme_tau
from mgnet.lattice import PlaneGeometry, TorusGeometry, is_master
from mgnet.topology import HEX, SECTOR_KINDS, SECTORED, WYNER, builder_rows


def test_wyner_mixed_assignment():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    assert a.nodes_with(Role.SILENT) == [8, 16]
    assert [k for k in a.nodes_with(Role.FAST) if k <= 7] == [1, 3, 5, 7]
    assert [k for k in a.nodes_with(Role.SLOW) if k <= 7] == [2, 4, 6]
    assert a.masters == (4, 12)


def test_wyner_no_coop():
    net = build_wyner(16, 1)
    a = assign(net, 6, Scheme.NO_COOP)
    active = a.nodes_with(Role.FAST)
    assert len(active) == 8
    assert all(abs(x - y) > 1 for x in active for y in active if x != y)


def test_wyner_slow_only():
    net = build_wyner(16, 1)  # K = 2 (D + 2) at D = 6
    a = assign(net, 6, Scheme.SLOW_COMP_RX)
    assert len(a.nodes_with(Role.SLOW)) == 14
    assert len(a.masters) == 2


def test_wyner_partial_tail_has_no_master():
    net = build_wyner(20, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    assert a.masters == (4, 12)
    assert a.roles[17] is Role.FAST  # pattern continues into the tail


def test_wyner_rejects_bad_d():
    net = build_wyner(8, 1)
    with pytest.raises(ValueError):
        assign(net, 5, Scheme.BOTH_COMP_RX)
    with pytest.raises(ValueError):
        assign(net, 0, Scheme.SLOW_COMP_RX)


def brute_subnet_counts(D):
    """Enumerate the mixed-scheme subnet of one master directly."""
    r = D // 2 - 1
    cells = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
             if hex_distance((a, b), (0, 0)) <= r]
    fast = sum(1 for (a, b) in cells if (a + b) % 3 == 0)
    return fast, len(cells) - fast


@pytest.mark.parametrize("D,expected", [(2, (1, 0)), (8, (13, 24)), (14, (43, 84))])
def test_hex_mixed_per_subnet_counts(D, expected):
    assert brute_subnet_counts(D) == expected
    net = build_hex_torus(D // 2, 1, 1)
    a = assign(net, D, Scheme.BOTH_COMP_RX)
    assert len(a.nodes_with(Role.FAST)) == expected[0]
    assert len(a.nodes_with(Role.SLOW)) == expected[1]


def test_hex_no_coop_is_independent():
    net = build_hex(4, 1)
    a = assign(net, 0, Scheme.NO_COOP)
    active = set(a.nodes_with(Role.FAST))
    for k in active:
        assert not active & set(net.interference[k])


def test_hex_slow_only_ring():
    # the silenced cells around one master form the full layer D/2 + 1
    D = 8
    net = build_hex(7, 1)
    a = assign(net, D, Scheme.SLOW_COMP_RX)
    ring = [i for i in net.tx_nodes
            if hex_distance(net.cell_coords[net.tx_cell[i]], (0, 0)) == D // 2 + 1]
    assert len(ring) == 3 * D + 6
    assert all(a.roles[i] is Role.SILENT for i in ring)


def test_hex_roles_partition():
    net = build_hex_torus(4, 2, 1)
    a = assign(net, 8, Scheme.BOTH_COMP_RX)
    counts = {r: len(a.nodes_with(r)) for r in Role}
    assert sum(counts.values()) == net.n_tx


def test_hex_master_lattice():
    net = build_hex(9, 1)
    a = assign(net, 8, Scheme.BOTH_COMP_RX)
    coords = [net.cell_coords[net.tx_cell[m]] for m in a.masters]
    assert all(is_master(c, 4) for c in coords)
    assert all(hex_distance(c1, c2) >= 8 for c1 in coords for c2 in coords if c1 != c2)
    assert (0, 0) in coords


def test_hex_asymptotic_fraction_exact_on_torus():
    from fractions import Fraction
    for D, m in ((8, 1), (8, 2), (14, 1)):
        net = build_hex_torus(D // 2, m, 1)
        a = assign(net, D, Scheme.BOTH_COMP_RX)
        frac = Fraction(len(a.nodes_with(Role.FAST)), net.n_tx)
        assert frac == Fraction(D * D - 2 * D + 4, 3 * D * D)


def test_hex_rejects_unsupported_d():
    net = build_hex(4, 1)
    for D in (4, 6, 10, 12):
        with pytest.raises(ValueError):
            assign(net, D, Scheme.BOTH_COMP_RX)
        with pytest.raises(ValueError):
            assign(net, D, Scheme.SLOW_COMP_RX)


def test_hex_torus_tau_mismatch_rejected():
    net = build_hex_torus(4, 1, 1)
    with pytest.raises(ValueError, match="tau=4"):
        assign(net, 8, Scheme.SLOW_COMP_RX)  # needs tau = 5


@pytest.mark.parametrize("scheme", [Scheme.BOTH_COMP_RX, Scheme.SLOW_COMP_RX])
def test_sectorized_torus_tau_mismatch_rejected(scheme):
    net = build_sectored_hex_torus(2, 1, 1)
    with pytest.raises(ValueError, match="tau=2"):
        assign(net, 6, scheme)  # needs tau = 3


@pytest.mark.parametrize("model,build", [(HEX, build_hex_torus),
                                         (SECTORED, build_sectored_hex_torus)])
def test_no_coop_assigns_on_a_torus_of_any_tau(model, build):
    # no-coop roles read no master lattice, so no torus spacing is a mismatch
    for tau in range(1, 7):
        for copies in (1, 2):
            for D in (0, 8):
                assert_matches_reference(build(tau, copies, 1), Scheme.NO_COOP, D)


def test_sectorized_counts():
    D = 4
    net = build_sectored_hex_torus(D // 2, 1, 1)
    a = assign(net, D, Scheme.BOTH_COMP_RX)
    assert len(a.nodes_with(Role.FAST)) == 3 * D * D // 4 == 12
    assert len(a.nodes_with(Role.SLOW)) == 6 * D * D // 4 - 3 * D // 2 == 18
    s = assign(net, D, Scheme.SLOW_COMP_RX)
    assert len(s.nodes_with(Role.SLOW)) == 9 * D * D // 4 - 3 * D // 2 == 30


def test_sectorized_no_coop_independent():
    net = build_sectored_hex_torus(2, 2, 1)
    a = assign(net, 0, Scheme.NO_COOP)
    active = set(a.nodes_with(Role.FAST))
    assert len(active) == net.n_rx  # one sector per cell
    for t in active:
        assert not active & set(net.interference[t])


def test_sectorized_rejects_comp_tx():
    net = build_sectored_hex_torus(2, 1, 1)
    for scheme in (Scheme.BOTH_COMP_TX, Scheme.SLOW_COMP_TX):
        with pytest.raises(ValueError):
            assign(net, 4, scheme)


def test_assign_dispatch():
    assert assign(build_wyner(8, 1), 6, Scheme.NO_COOP).scheme is Scheme.NO_COOP
    assert assign(build_hex(2, 1), 0, Scheme.NO_COOP).scheme is Scheme.NO_COOP


def test_check_params_says_what_the_builders_say_about_L():
    for L in (0, -2):
        message = f"^L={L}: need L >= 1$"
        for build, args in ((build_wyner, (4,)), (build_hex, (2,)), (build_hex_torus, (1, 1)),
                            (build_sectored_hex, (2,)), (build_sectored_hex_torus, (1, 1))):
            with pytest.raises(ValueError, match=message):
                build(*args, L)
        for model in (WYNER, HEX, SECTORED):
            with pytest.raises(ValueError, match=message):
                check_params(model, Scheme.NO_COOP, 0, L)


@pytest.mark.parametrize("model", [WYNER, HEX, SECTORED])
def test_check_params_reads_the_valid_d_rows(model):
    for scheme in Scheme:
        if model == SECTORED and scheme.comp_side == "tx":  # one message at every D
            row, message = (0, 0), "the sectorized model only supports CoMP reception"
            with pytest.raises(ValueError, match=f"^{message}$"):
                valid_d(model, scheme)
        elif not scheme.cooperative:
            row, message = (0, 1), "D={}: need D >= 0"
        elif model == HEX:
            row, message = (2, 6), r"D={}: .*\(D/2 - 1\) mod 3 == 0"
        else:
            row, message = (2, 2), "D={}: cooperative schemes need an even D >= 2"
        if row[1]:
            assert valid_d(model, scheme)[:2] == row, scheme
        for D in range(-1, 30):
            valid = row[1] > 0 and D in range(row[0], 30, row[1])
            try:
                check_params(model, scheme, D, 1)
            except ValueError as exc:
                assert not valid and re.fullmatch(message.format(D), str(exc)), (scheme, D)
            else:
                assert valid, (scheme, D)
    with pytest.raises(ValueError, match="^unknown model 'ring'$"):
        valid_d("ring", Scheme.NO_COOP)


def test_assign_checks_the_parameters_once(monkeypatch):
    import mgnet.association as association
    calls = []

    def counting(*args):
        calls.append(args)
        return check_params(*args)

    monkeypatch.setattr(association, "check_params", counting)
    for net, D, scheme in ((build_wyner(8, 1), 6, Scheme.BOTH_COMP_RX),
                           (build_hex_torus(4, 1, 2), 8, Scheme.BOTH_COMP_TX),
                           (build_sectored_hex_torus(2, 1, 3), 4, Scheme.SLOW_COMP_RX),
                           (build_hex(2, 1), 0, Scheme.NO_COOP)):
        calls.clear()
        assign(net, D, scheme)
        assert calls == [(net.model, scheme, D, net.L)]
    net = build_hex(2, 1)
    net.L = 0
    with pytest.raises(ValueError, match="^L=0: need L >= 1$"):
        assign(net, 0, Scheme.NO_COOP)
    net.model = "nosuch"
    net.L = 1
    with pytest.raises(ValueError, match="unknown model 'nosuch'"):
        assign(net, 0, Scheme.NO_COOP)


def test_association_json():
    net = build_wyner(8, 1)
    a = assign(net, 6, Scheme.BOTH_COMP_RX)
    doc = a.to_json_dict()
    assert doc["scheme"] == "BothCompRx"
    assert doc["roles"]["8"] == "X" and doc["roles"]["1"] == "F" and doc["roles"]["2"] == "S"
    assert doc["masters"] == [4]


def reference_roles(net, D, scheme):
    """Roles and masters by one ``nearest_masters`` call per cell.

    A frozen copy of the per-cell association path, kept as the oracle for
    the per-class one in ``assign``.
    """
    roles = [None] * len(net.tx_cell)
    if scheme is Scheme.NO_COOP:
        for t in net.tx_nodes:
            if net.model == HEX:
                a, b = net.cell_coords[net.tx_cell[t]]
                roles[t] = Role.FAST if (a + b) % 3 == 0 else Role.SILENT
            else:
                roles[t] = Role.FAST if SECTOR_KINDS[t % 3] == "W" else Role.SILENT
        return roles, ()
    tau = scheme_tau(net.model, scheme, D)
    layers = [net.geometry.nearest_masters(c, tau) for c in net.cell_coords]
    masters = []
    for i in net.rx_nodes:
        c = net.cell_coords[i]
        dist, hits = layers[i]
        if is_master(c, tau):
            masters.append(i)
        if net.model == HEX:
            if dist == tau:
                roles[i] = Role.SILENT
            elif scheme.mixed and (c[0] + c[1]) % 3 == 0:
                roles[i] = Role.FAST
            else:
                roles[i] = Role.SLOW
            continue
        if dist < tau:
            fast = _sector_fast_kind(hits[0][1]) if scheme.mixed else None
            for t in range(3 * i, 3 * i + 3):
                roles[t] = Role.FAST if SECTOR_KINDS[t % 3] == fast else Role.SLOW
        else:
            assert dist == tau
            silenced = {frozenset(_sector_silenced(delta, tau)) for _, delta in hits}
            assert len(silenced) == 1
            (silenced,) = silenced
            for t in range(3 * i, 3 * i + 3):
                kind = SECTOR_KINDS[t % 3]
                if kind in silenced:
                    roles[t] = Role.SILENT
                else:
                    roles[t] = Role.FAST if scheme.mixed else Role.SLOW
    return roles, tuple(masters)


def valid_cases(model, max_D):
    """(scheme, D) for every scheme the model runs with D <= max_D (no-coop at D=0 only)."""
    for scheme in [Scheme.NO_COOP] + [s for s in Scheme if s.cooperative]:
        Ds = valid_range(model, scheme, max_D)
        for D in (Ds[:1] if scheme is Scheme.NO_COOP else Ds):
            yield scheme, D


def assert_matches_reference(net, scheme, D):
    a = assign(net, D, scheme)
    roles, masters = reference_roles(net, D, scheme)
    assert a.roles == roles, (net.params, scheme, D)
    assert a.masters == masters, (net.params, scheme, D)


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("model,build", [(HEX, build_hex_torus),
                                         (SECTORED, build_sectored_hex_torus)])
def test_assign_matches_per_cell_path_on_tori(model, build, tau, copies):
    net = build(tau, copies, 1)
    ran = 0
    for scheme, D in valid_cases(model, 2 * tau + 2):
        if scheme.cooperative and scheme_tau(model, scheme, D) != tau:
            continue
        assert_matches_reference(net, scheme, D)
        ran += scheme.cooperative
    # tau = 3 is no hex spacing: D/2 = 3 and D/2 + 1 = 3 both break (D/2 - 1) % 3 == 0
    assert ran or (model == HEX and tau == 3)


@pytest.mark.parametrize("radius", range(16))
@pytest.mark.parametrize("model,build", [(HEX, build_hex), (SECTORED, build_sectored_hex)])
def test_assign_matches_per_cell_path_on_balls(model, build, radius):
    net = build(radius, 1)
    for scheme, D in valid_cases(model, 2 * radius + 4):
        assert_matches_reference(net, scheme, D)


@pytest.mark.parametrize("model,build,D,scheme", [
    (HEX, build_hex_torus, 8, Scheme.BOTH_COMP_RX),
    (HEX, build_hex_torus, 8, Scheme.BOTH_COMP_TX),
    (SECTORED, build_sectored_hex_torus, 8, Scheme.SLOW_COMP_RX),
    (HEX, build_hex, 14, Scheme.SLOW_COMP_RX),  # one cell, tau = 8
    (SECTORED, build_sectored_hex, 14, Scheme.SLOW_COMP_RX),
])
def test_assign_looks_up_each_master_class_once(monkeypatch, model, build, D, scheme):
    tau = scheme_tau(model, scheme, D)
    net = build(0, 1) if build in (build_hex, build_sectored_hex) else build(tau, 6, 1)
    calls = []
    for geometry in (PlaneGeometry, TorusGeometry):
        def counting(self, c, t, real=geometry.nearest_masters):
            calls.append(c)
            return real(self, c, t)

        monkeypatch.setattr(geometry, "nearest_masters", counting)
    a = assign(net, D, scheme)
    assert 1 <= len(calls) <= tau  # one per base row, not one per class
    monkeypatch.undo()
    assert (a.roles, a.masters) == reference_roles(net, D, scheme)


def test_every_nearest_master_gives_a_layer_cell_one_silenced_set():
    # the sectorized assignment reads the layer rule of the first nearest master alone
    layer = 0
    for tau in range(1, 31):
        geometry = TorusGeometry(tau, 1)
        for c in geometry.cells():
            dist, hits = geometry.nearest_masters(c, tau)
            assert dist <= tau, (tau, c)
            if dist == tau:
                layer += 1
                silenced = {frozenset(_sector_silenced(delta, tau)) for _, delta in hits}
                assert len(silenced) == 1, (tau, c, silenced)
    assert layer > 0


def _unmarked(net, how):
    """``net`` with the builder's rows lost: a copy, new coordinates or a hand-made twin."""
    if how == "replace":
        return replace(net)
    if how == "cell_coords":  # the same cells in a new tuple
        net.cell_coords = tuple([*net.cell_coords])
        return net
    assert how == "hand-made"
    return Network(**{f.name: getattr(net, f.name) for f in fields(Network) if f.init})


EDITS = ("replace", "cell_coords", "hand-made")
BUILDERS = {(HEX, "ball"): build_hex, (SECTORED, "ball"): build_sectored_hex,
            (HEX, "torus"): build_hex_torus, (SECTORED, "torus"): build_sectored_hex_torus}


@pytest.mark.parametrize("how", EDITS)
@pytest.mark.parametrize("model, shape, size, D, scheme", [
    (HEX, "ball", 9, 8, Scheme.BOTH_COMP_RX),
    (HEX, "torus", 2, 14, Scheme.SLOW_COMP_TX),
    (HEX, "ball", 7, 0, Scheme.NO_COOP),
    (SECTORED, "ball", 8, 4, Scheme.BOTH_COMP_RX),
    (SECTORED, "torus", 3, 6, Scheme.SLOW_COMP_RX),
])
def test_assign_without_builder_rows_matches_per_cell_path(model, shape, size, D, scheme, how):
    build = BUILDERS[model, shape]
    net = build(size, 1) if shape == "ball" else build(scheme_tau(model, scheme, D), size, 1)
    assert builder_rows(net) is not None
    net = _unmarked(net, how)
    assert builder_rows(net) is None
    assert_matches_reference(net, scheme, D)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_assign_matches_per_cell_path_with_or_without_builder_rows(data):
    model = data.draw(st.sampled_from((HEX, SECTORED)), "model")
    scheme, D = data.draw(st.sampled_from(list(valid_cases(model, 14))), "scheme, D")
    shape = data.draw(st.sampled_from(("ball", "torus")), "shape")
    build = BUILDERS[model, shape]
    if shape == "ball":
        net = build(data.draw(st.integers(0, 12), "radius"), 1)
    else:
        tau = scheme_tau(model, scheme, D) if scheme.cooperative else data.draw(
            st.integers(1, 5), "tau")
        net = build(tau, data.draw(st.integers(1, 3), "copies"), 1)
    how = data.draw(st.sampled_from((None, *EDITS)), "edit")
    if how is not None:
        net = _unmarked(net, how)
    assert (builder_rows(net) is None) == (how is not None)
    assert_matches_reference(net, scheme, D)


def test_builder_rows_are_the_domain_rows_and_lines_have_none():
    ball, torus = build_hex(3, 1), build_sectored_hex_torus(2, 2, 1)
    assert builder_rows(build_wyner(20, 1)) is None
    for net in (ball, torus):
        rows = builder_rows(net)
        assert [(a, b) for a, lo, hi in rows for b in range(lo, hi + 1)] == list(net.cell_coords)
    torus.params["copies"] = 3
    assert builder_rows(torus) is None
