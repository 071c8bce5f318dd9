"""Network construction: adjacency, link counts, degree bounds, symmetry."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from mgnet import (HEX, SECTORED, build_hex, build_hex_torus, build_sectored_hex,
                   build_sectored_hex_torus, build_wyner, hex_distance)
from mgnet.lattice import NEIGHBOR_STEPS, TorusGeometry
from mgnet.topology import SECTOR_KINDS, SECTOR_RULE, network_from_json_dict


def brute_hexdist(c1, c2):
    # independent of the library: cube-coordinate distance
    x1, z1 = c1[0], c1[1] - c1[0]
    x2, z2 = c2[0], c2[1] - c2[0]
    y1, y2 = -x1 - z1, -x2 - z2
    return max(abs(x1 - x2), abs(y1 - y2), abs(z1 - z2))


def test_wyner_basic():
    net = build_wyner(4, 2)
    assert net.interference[2] == (1, 3)
    assert net.q_tx == net.q_rx == 6

    net1 = build_wyner(1, 1)
    assert net1.interference[1] == ()
    assert net1.q_tx == net1.q_rx == 0

    net16 = build_wyner(16, 3)
    assert net16.q_tx == 30
    assert all(len(net16.interference[k]) == 2 for k in range(2, 16))


def test_wyner_rejects_bad_args():
    with pytest.raises(ValueError):
        build_wyner(0, 1)
    with pytest.raises(ValueError):
        build_wyner(4, 0)


def test_hex_distance_examples():
    assert hex_distance((0, 0), (1, 1)) == 1
    assert hex_distance((0, 0), (2, -1)) == 3
    for d in (2, 8, 14):
        assert hex_distance((0, 0), (d // 2, 0)) == d // 2


coords = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


@given(coords, coords, coords)
def test_hex_distance_is_a_metric(a, b, c):
    assert hex_distance(a, b) == hex_distance(b, a)
    assert (hex_distance(a, b) == 0) == (a == b)
    assert hex_distance(a, c) <= hex_distance(a, b) + hex_distance(b, c)
    assert hex_distance(a, b) == brute_hexdist(a, b)


def test_hex_ball_counts():
    net = build_hex(1, 1)
    assert net.n_tx == 7
    center = [i for i, c in net.coords.items() if c == (0, 0)][0]
    assert len(net.interference[center]) == 6

    net2 = build_hex(2, 3)
    assert net2.n_tx == 19
    # independent oracle: ordered pairs at hex distance one
    cells = list(net2.coords.values())
    pairs = sum(1 for c1 in cells for c2 in cells if c1 != c2 and brute_hexdist(c1, c2) == 1)
    assert pairs == 84
    assert net2.q_rx == 84


def test_hex_neighbor_rule():
    net = build_hex(3, 1)
    idx = {c: i for i, c in net.coords.items()}
    assert idx[(1, 1)] in net.interference[idx[(0, 0)]]
    assert idx[(1, -1)] not in net.interference[idx[(0, 0)]]


def test_hex_reciprocity_and_degree_bound():
    net = build_hex(3, 1)
    for k, nbrs in net.interference.items():
        assert len(nbrs) <= 6
        for j in nbrs:
            assert k in net.interference[j]
    interior = [i for i, c in net.coords.items() if hex_distance(c, (0, 0)) <= 2]
    assert all(len(net.interference[i]) == 6 for i in interior)


def test_hex_rotation_symmetry():
    net = build_hex(3, 1)
    idx = {c: i for i, c in net.coords.items()}
    rot = lambda c: (c[1] - c[0], -c[0])
    edges = {(net.coords[a], net.coords[b]) for a in net.tx_nodes for b in net.interference[a]}
    assert {(rot(a), rot(b)) for a, b in edges} == edges


def test_hex_torus_counts():
    for tau, m in ((2, 1), (4, 1), (4, 2)):
        net = build_hex_torus(tau, m, 1)
        assert net.n_tx == 3 * m * m * tau * tau
        assert all(len(v) == 6 for v in net.interference.values())
        assert net.q_rx == 6 * net.n_tx


def test_sector_rule_is_symmetric_and_rotation_invariant():
    # symmetry
    for k, items in SECTOR_RULE.items():
        for k2, (da, db) in items:
            assert (k, (-da, -db)) in [(x, s) for x, s in SECTOR_RULE[k2]]
    # 2*pi/3 rotation with the kind cycle E -> W -> S
    cyc = {"E": "W", "W": "S", "S": "E"}
    rot = lambda s: (-s[1], s[0] - s[1])
    for k, items in SECTOR_RULE.items():
        rotated = {(cyc[k2], rot(s)) for k2, s in items}
        assert rotated == set(SECTOR_RULE[cyc[k]])


def test_sectorized_interior_degree_and_cells():
    net = build_sectored_hex(3, 1)
    for t in net.tx_nodes:
        coord, kind = net.coords[t]
        nbrs = net.interference[t]
        assert all(net.tx_cell[n] != net.tx_cell[t] for n in nbrs)  # no intra-cell interference
        if hex_distance(coord, (0, 0)) <= 1:
            assert len(nbrs) == 4
            assert len({net.tx_cell[n] for n in nbrs}) == 3  # 2 + 1 + 1 over three cells
        else:
            assert len(nbrs) <= 4


def test_sectorized_isolated_cell():
    net = build_sectored_hex(0, 1)
    assert net.n_tx == 3
    assert net.q_tx == 0
    assert all(net.interference[t] == () for t in net.tx_nodes)


def test_sectorized_rx_side():
    net = build_sectored_hex(2, 1)
    assert net.n_rx == 19
    assert net.q_rx == 84  # same 6-neighbour cell graph as the plain hex model
    # Tx cooperation equals sector interference adjacency
    assert net.tx_coop == net.interference
    # brute-force count of directed interfering-sector pairs
    assert net.q_tx == sum(len(v) for v in net.interference.values())


def test_sectorized_torus_regular():
    net = build_sectored_hex_torus(2, 1, 1)
    assert net.n_rx == 12 and net.n_tx == 36
    assert all(len(v) == 4 for v in net.interference.values())
    assert net.q_tx == 4 * net.n_tx and net.q_rx == 6 * net.n_rx


def reference_torus_json(model, tau, copies, L):
    """``to_json_dict`` of a torus built with ``canon`` on every neighbour step."""
    geo = TorusGeometry(tau, copies)
    index = {c: i for i, c in enumerate(geo.cells())}
    nbr = lambda c, d: index[geo.canon((c[0] + d[0], c[1] + d[1]))]
    pairs = lambda adj: [[i, j] for i in sorted(adj) for j in adj[i]]
    cell_pairs = pairs({i: sorted({nbr(c, d) for d in NEIGHBOR_STEPS}) for c, i in index.items()})
    if model == HEX:
        nodes = [{"id": i, "coord": list(c)} for c, i in index.items()]
        tx_pairs = cell_pairs
    else:
        nodes = [{"id": 3 * i + j, "coord": list(c), "kind": k}
                 for c, i in index.items() for j, k in enumerate(SECTOR_KINDS)]
        tx_pairs = pairs({3 * i + j: sorted({3 * nbr(c, d) + SECTOR_KINDS.index(k2)
                                             for k2, d in SECTOR_RULE[k]})
                          for c, i in index.items() for j, k in enumerate(SECTOR_KINDS)})
    return {"model": model, "L": L, "params": {"tau": tau, "copies": copies},
            "nodes": nodes, "interference": tx_pairs, "tx_coop": tx_pairs,
            "rx_coop": cell_pairs, "q_tx": len(tx_pairs), "q_rx": len(cell_pairs)}


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
def test_torus_builders_match_canon_on_every_step(tau, copies):
    # on the 1x1 and 2x2 tori wraps give duplicate neighbours and self-loops
    assert build_hex_torus(tau, copies, 2).to_json_dict() == \
        reference_torus_json(HEX, tau, copies, 2)
    assert build_sectored_hex_torus(tau, copies, 2).to_json_dict() == \
        reference_torus_json(SECTORED, tau, copies, 2)


def test_network_json_round_trip():
    for net in (build_wyner(10, 2), build_hex(2, 1), build_hex_torus(4, 1, 3),
                build_sectored_hex(1, 2), build_sectored_hex_torus(2, 1, 1)):
        clone = network_from_json_dict(net.to_json_dict())
        assert clone.interference == net.interference
        assert clone.rx_coop == net.rx_coop
        assert (clone.q_tx, clone.q_rx) == (net.q_tx, net.q_rx)
        assert clone.to_json_dict() == net.to_json_dict()


FIVE_NETWORKS = {
    "wyner": lambda: build_wyner(10, 2),
    "hex-ball": lambda: build_hex(2, 1),
    "hex-torus": lambda: build_hex_torus(4, 1, 3),
    "sectorized-ball": lambda: build_sectored_hex(2, 2),
    "sectorized-torus": lambda: build_sectored_hex_torus(2, 1, 1),
}


@pytest.mark.parametrize("make", FIVE_NETWORKS.values(), ids=FIVE_NETWORKS.keys())
def test_network_shape(make):
    net = make()
    assert list(net.coords) == list(net.tx_nodes)  # Tx coordinates only, no cell keys
    assert list(net.cell_coords) == list(net.rx_nodes)
    assert {net.cell_of(t) for t in net.tx_nodes} <= set(net.rx_nodes)
    if net.model != SECTORED:
        assert net.cell_coords is net.coords
        assert all(net.cell_of(t) == t for t in net.tx_nodes)
        return
    for i in net.rx_nodes:
        sectors = net.cell_sectors[i]
        assert sorted(sectors) == [t for t in net.tx_nodes if net.cell_of(t) == i]
        assert sorted(net.coords[t][1] for t in sectors) == sorted(SECTOR_KINDS)
        assert all(net.coords[t][0] == net.cell_coords[i] for t in sectors)
