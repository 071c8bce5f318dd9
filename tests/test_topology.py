"""Network construction: adjacency, link counts, degree bounds, symmetry."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given

from mgnet import (HEX, SECTORED, WYNER, build_hex, build_hex_torus, build_sectored_hex,
                   build_sectored_hex_torus, build_wyner, hex_distance)
from mgnet.association import Scheme, assign, check_params, scheme_tau
from mgnet.lattice import NEIGHBOR_STEPS, TorusGeometry, ball, row_cells
from mgnet.topology import (SECTOR_KINDS, SECTOR_RULE, _GridAdjacency, _LineAdjacency, _RowCells,
                            as_built,
                            builder_rows)
from test_lattice import old_canon


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


@pytest.mark.parametrize("build,args,message", [
    (build_wyner, (0, 1), "K=0: need K >= 1"),
    (build_wyner, (4, 0), "L=0: need L >= 1"),
    (build_hex, (-1, 1), "radius=-1: need radius >= 0"),
    (build_sectored_hex, (2, -2), "L=-2: need L >= 1"),
    (build_hex_torus, (0, 1, 1), "tau=0: need tau >= 1"),
    (build_hex_torus, (4, 0, 1), "copies=0: need copies >= 1"),
    (build_sectored_hex_torus, (2, 1, 0), "L=0: need L >= 1"),
])
def test_builders_name_the_bad_argument(build, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*args)


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
    center = net.cell_coords.index((0, 0))
    assert len(net.interference[center]) == 6

    net2 = build_hex(2, 3)
    assert net2.n_tx == 19
    # independent oracle: ordered pairs at hex distance one
    cells = [net2.cell_coords[net2.tx_cell[i]] for i in net2.tx_nodes]
    pairs = sum(1 for c1 in cells for c2 in cells if c1 != c2 and brute_hexdist(c1, c2) == 1)
    assert pairs == 84
    assert net2.q_rx == 84


def test_hex_neighbor_rule():
    net = build_hex(3, 1)
    idx = {c: i for i, c in enumerate(net.cell_coords)}
    assert idx[(1, 1)] in net.interference[idx[(0, 0)]]
    assert idx[(1, -1)] not in net.interference[idx[(0, 0)]]


def test_hex_reciprocity_and_degree_bound():
    net = build_hex(3, 1)
    for k in net.tx_nodes:
        nbrs = net.interference[k]
        assert len(nbrs) <= 6
        for j in nbrs:
            assert k in net.interference[j]
    interior = [i for i in net.tx_nodes
                if hex_distance(net.cell_coords[net.tx_cell[i]], (0, 0)) <= 2]
    assert all(len(net.interference[i]) == 6 for i in interior)


def test_hex_rotation_symmetry():
    net = build_hex(3, 1)
    idx = {c: i for i, c in enumerate(net.cell_coords)}
    rot = lambda c: (c[1] - c[0], -c[0])
    at = [net.cell_coords[c] for c in net.tx_cell]
    edges = {(at[a], at[b]) for a in net.tx_nodes for b in net.interference[a]}
    assert {(rot(a), rot(b)) for a, b in edges} == edges


def test_hex_torus_counts():
    for tau, m in ((2, 1), (4, 1), (4, 2)):
        net = build_hex_torus(tau, m, 1)
        assert net.n_tx == 3 * m * m * tau * tau
        assert all(len(net.interference[i]) == 6 for i in net.tx_nodes)
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
    # the builders' inner runs rely on every partner sitting one hex step away
    assert all(s in NEIGHBOR_STEPS for items in SECTOR_RULE.values() for _, s in items)


def test_sectorized_interior_degree_and_cells():
    net = build_sectored_hex(3, 1)
    for t in net.tx_nodes:
        coord = net.cell_coords[net.tx_cell[t]]
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
    assert net.q_tx == sum(len(net.interference[t]) for t in net.tx_nodes)


def test_sectorized_torus_regular():
    net = build_sectored_hex_torus(2, 1, 1)
    assert net.n_rx == 12 and net.n_tx == 36
    assert all(len(net.interference[t]) == 4 for t in net.tx_nodes)
    assert net.q_tx == 4 * net.n_tx and net.q_rx == 6 * net.n_rx


# each sector kind's partners in unit-step order: by cell offset, then by kind
SECTOR_STEPS = {k: sorted(rule, key=lambda kd: (kd[1], SECTOR_KINDS.index(kd[0])))
                for k, rule in SECTOR_RULE.items()}


def reference_json(model, cells, cell_nbrs, cell_at, params, L):
    """``to_json_dict`` of a network on ``cells``, built over a coordinate dict.

    ``cell_nbrs(c, index)`` gives the ids of the cells next to cell ``c`` and
    ``cell_at(c, d, index)`` the id of the cell ``d`` away from it, or None.
    A sector's partners are listed in unit-step order (``SECTOR_STEPS``).
    """
    index = {c: i for i, c in enumerate(cells)}
    pairs = lambda adj: [[i, j] for i in sorted(adj) for j in adj[i]]
    # a neighbour appears once, at its first step
    cell_pairs = pairs({i: list(dict.fromkeys(cell_nbrs(c, index))) for c, i in index.items()})
    if model == HEX:
        nodes = [{"id": i, "coord": list(c)} for c, i in index.items()]
        tx_pairs = cell_pairs
    else:
        nodes = [{"id": 3 * i + j, "coord": list(c), "kind": k}
                 for c, i in index.items() for j, k in enumerate(SECTOR_KINDS)]
        tx_pairs = pairs({3 * i + j: [3 * n + SECTOR_KINDS.index(k2)
                                      for k2, d in SECTOR_STEPS[k]
                                      if (n := cell_at(c, d, index)) is not None]
                          for c, i in index.items() for j, k in enumerate(SECTOR_KINDS)})
    return {"model": model, "L": L, "params": params,
            "nodes": nodes, "interference": tx_pairs, "tx_coop": tx_pairs,
            "rx_coop": cell_pairs, "q_tx": len(tx_pairs), "q_rx": len(cell_pairs)}


def torus_step(geo):
    """The id in ``index`` of the cell ``d`` away from cell ``c`` of torus ``geo``: the cell
    with its iterative wrap (``old_canon``), which defines torus identity apart from the
    builders' own ``canon``."""
    ids = {}  # iterative wrap -> id, from the first index asked

    def at(c, d, index):
        if not ids:
            ids.update((old_canon(geo, x), i) for x, i in index.items())
        return ids[old_canon(geo, (c[0] + d[0], c[1] + d[1]))]
    return at


def reference_torus_json(model, tau, copies, L):
    """``to_json_dict`` of a torus built with the iterative wrap on every neighbour step,
    each cell's neighbours in unit-step order."""
    geo = TorusGeometry(tau, copies)
    at = torus_step(geo)
    return reference_json(model, geo.cells(),
                          lambda c, index: [at(c, d, index) for d in sorted(NEIGHBOR_STEPS)], at,
                          {"tau": tau, "copies": copies}, L)


def assert_ids_are_the_node_objects(net):
    # a neighbour id is the node table's own int object, never a copy of it
    for adj, nodes in ((net.interference, net.tx_nodes), (net.rx_coop, net.rx_nodes)):
        assert all(j is nodes[j] for nbrs in adj for j in nbrs)


# tau 1..5 x copies 1..4, plus the bench's larger tori: hex D=14 (tau 7, 8) at M=2 and
# the size ladder, hex tau=4 and sectorized tau=2 at M=6
@pytest.mark.parametrize("tau, copies", [(tau, copies) for tau in range(1, 6)
                                         for copies in range(1, 5)]
                         + [(7, 2), (8, 2), (4, 6), (2, 6)])
def test_torus_builders_match_canon_on_every_step(tau, copies):
    # small tori have rows with no inner run, large ones rows with a long run
    hexes, sectors = build_hex_torus(tau, copies, 2), build_sectored_hex_torus(tau, copies, 2)
    assert hexes.to_json_dict() == reference_torus_json(HEX, tau, copies, 2)
    assert sectors.to_json_dict() == reference_torus_json(SECTORED, tau, copies, 2)
    assert_ids_are_the_node_objects(hexes)
    assert_ids_are_the_node_objects(sectors)
    # the shortest torus lattice vector has hex norm 2 * tau * copies, so no unit step
    # returns to its cell, and two reach one cell only on the three-cell torus; there
    # the four sector partners still differ in kind or cell
    for adj, degree, short in ((hexes.interference, 6, tau * copies == 1),
                               (sectors.rx_coop, 6, tau * copies == 1),
                               (sectors.interference, 4, False)):
        assert not any(i in nbrs for i, nbrs in enumerate(adj))
        assert all(len(nbrs) <= degree for nbrs in adj)
        assert any(len(nbrs) < degree for nbrs in adj) == short


@pytest.mark.parametrize("model, tau, copies", [(SECTORED, 4, 2), (SECTORED, 2, 6), (HEX, 4, 6)])
def test_torus_build_calls_no_canon(model, tau, copies):
    # the seam is crossed by rotating whole rows of the parallelogram domain, never cell by cell
    build = build_hex_torus if model == HEX else build_sectored_hex_torus
    with mock.patch.object(TorusGeometry, "canon", side_effect=AssertionError) as canon:
        net = build(tau, copies, 2)
    assert canon.call_count == 0
    assert net.to_json_dict() == reference_torus_json(model, tau, copies, 2)


def brute_ball(radius):
    return sorted((a, b) for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)
                  if brute_hexdist((a, b), (0, 0)) <= radius)


def ball_step(c, d, index):
    return index.get((c[0] + d[0], c[1] + d[1]))


def reference_ball_json(model, radius, L):
    """``to_json_dict`` of a ball: its cells and neighbours found by ``hex_distance``, O(n^2)."""
    return reference_json(
        model, brute_ball(radius),
        lambda c, index: [i for x, i in index.items() if brute_hexdist(c, x) == 1],
        ball_step, {"radius": radius}, L)


def reference_step_ball_json(model, radius, L):
    """``to_json_dict`` of a ball: each cell's neighbours are its six unit steps, in order,
    looked up in the coordinate dict, so it runs at the bench's radii."""
    return reference_json(
        model, brute_ball(radius),
        lambda c, index: [i for d in sorted(NEIGHBOR_STEPS)
                          if (i := ball_step(c, d, index)) is not None],
        ball_step, {"radius": radius}, L)


@pytest.mark.parametrize("radius", range(9))
def test_ball_builders_match_the_coordinate_dict(radius):
    hexes, sectors = build_hex(radius, 2), build_sectored_hex(radius, 2)
    assert hexes.to_json_dict() == reference_ball_json(HEX, radius, 2)
    assert sectors.to_json_dict() == reference_ball_json(SECTORED, radius, 2)
    assert_ids_are_the_node_objects(hexes)
    assert_ids_are_the_node_objects(sectors)


# the rim workload's balls: hex radius 60 and sectorized radius 40
@pytest.mark.parametrize("build, radius", [(build_hex, 60), (build_sectored_hex, 40)])
def test_bench_balls_match_the_unit_step_dict(build, radius):
    net = build(radius, 3)
    assert net.to_json_dict() == reference_step_ball_json(net.model, radius, 3)
    assert_ids_are_the_node_objects(net)


@pytest.mark.parametrize("build", [build_hex, build_sectored_hex])
def test_large_ball_ids_are_the_node_objects(build):
    # CPython shares the ints up to 256 anyway; a radius-20 ball has ids far above
    assert_ids_are_the_node_objects(build(20, 1))


@pytest.mark.parametrize("make,domain", [
    (lambda: build_hex(7, 1), lambda: ball(7)),
    (lambda: build_sectored_hex(7, 1), lambda: ball(7)),
    (lambda: build_hex_torus(3, 2, 1), lambda: TorusGeometry(3, 2).cells()),
    (lambda: build_sectored_hex_torus(3, 2, 1), lambda: TorusGeometry(3, 2).cells()),
], ids=["hex-ball", "sectorized-ball", "hex-torus", "sectorized-torus"])
def test_node_tables_follow_the_cell_order(make, domain):
    net, cells = make(), domain()
    assert list(net.cell_coords) == cells
    if net.model == HEX:
        assert net.tx_cell == range(len(cells))
        return
    assert [(net.cell_coords[net.tx_cell[t]], SECTOR_KINDS[t % 3]) for t in net.tx_nodes] == \
        [(c, k) for c in cells for k in SECTOR_KINDS]
    assert list(net.tx_cell) == [t // 3 for t in range(3 * len(cells))]
    for i, c in enumerate(cells):  # sector 3i + j is kind SECTOR_KINDS[j] of cell i
        sectors = range(3 * i, 3 * i + 3)
        assert [(net.cell_coords[net.tx_cell[t]], SECTOR_KINDS[t % 3]) for t in sectors] == \
            [(c, k) for k in SECTOR_KINDS]
        assert [net.tx_cell[t] for t in sectors] == [i, i, i]


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
    # dense ids: every Tx table has one slot per id, and only Wyner's slot 0 is unused
    first = 1 if net.model == WYNER else 0
    assert list(net.tx_nodes) == list(range(first, len(net.tx_cell)))
    assert len(net.interference) == len(net.tx_coop) == len(net.tx_cell)
    assert list(net.rx_nodes) == list(range(first, len(net.cell_coords)))
    assert len(net.rx_coop) == len(net.cell_coords)
    assert {net.tx_cell[t] for t in net.tx_nodes} <= set(net.rx_nodes)
    assert net.tx_coop is net.interference
    assert net.has_rim != ("tau" in net.params)  # a builder's network is a torus or has a rim
    if net.model != SECTORED:
        assert net.rx_coop is net.interference
        assert net.tx_cell == range(len(net.cell_coords))
        assert all(net.tx_cell[t] == t for t in net.tx_nodes)
        return
    for i in net.rx_nodes:
        sectors = range(3 * i, 3 * i + 3)
        assert list(sectors) == [t for t in net.tx_nodes if net.tx_cell[t] == i]
        assert sorted(SECTOR_KINDS[t % 3] for t in sectors) == sorted(SECTOR_KINDS)
        assert all(net.cell_coords[net.tx_cell[t]] == net.cell_coords[i] for t in sectors)


# sha256 of json.dumps(..., sort_keys=True) of net.to_json_dict() (scheme None) and
# of assoc.to_json_dict(), recorded when every per-node table was an int-keyed dict; the
# two torus networks' again when torus neighbours came to be listed in unit-step order
PIN_D = {"wyner": 4, "hex-ball": 8, "hex-torus": 8, "sectorized-ball": 4, "sectorized-torus": 4}
JSON_PINS = {
    ("wyner", None): "20ca8929bda12378f58b6ecd57ec91119530db4bcf6b5dec1f32ec7251c8a696",
    ("wyner", "BOTH_COMP_RX"): "b04fbb4c358fd07fae718ad82eefb35be149c16f262fcc0506d21e8e07043ace",
    ("wyner", "BOTH_COMP_TX"): "db8eb7c78e0aca7f973156dfa4646aa3d8aa8ca76aa01fc0efe330f75c0fd69f",
    ("wyner", "SLOW_COMP_RX"): "9cfdb9405964dd5e9ccbba0cb5961f8c817f9dd53cfeb985d940ee4dff24fb5c",
    ("wyner", "SLOW_COMP_TX"): "737fe28e9ccc806787519ebefbde7e78f1dc75e7d6d58035bd30bb9c4ca3be44",
    ("wyner", "NO_COOP"): "730135b772fdd0c6201bcab49686aa08f75f3ebbcb2e7371ab0ca7bbe871ad0c",
    ("hex-ball", None): "b515acdad45c16df43f8dea3ee53ae490b27ed74f9f5771274352c1a83d8ad49",
    ("hex-ball", "BOTH_COMP_RX"): "53caf29f4886c2ffdbd121b3ee575a2640236b0bbf326f24a82050ca295dde58",
    ("hex-ball", "BOTH_COMP_TX"): "7348d01b044a392b874798b9d94fa38b7091a5b8c4263f9339ebcc5b297f96f5",
    ("hex-ball", "SLOW_COMP_RX"): "87dfa970f3287c2135fa881815aa36a2fa521bc150b72d8117129f2a21e4dcbe",
    ("hex-ball", "SLOW_COMP_TX"): "1e0fb1699e6894bde9d71f8520af92b7c42f4f3d25ffb6b922e27cae0acc4ed4",
    ("hex-ball", "NO_COOP"): "dc9bfe73d31fb1efe6f32f161c88909ae285b61fe103219ba1fce8a2a568b373",
    ("hex-torus", None): "9e7058dda67fc7170638e0f325abb5a60e01e0eb8ac11bef87faa0f883a5e655",
    ("hex-torus", "BOTH_COMP_RX"): "83a5f32b66c941c164a40eb15b77b25fc5eb83bc10b484ae722acff4cf85084e",
    ("hex-torus", "BOTH_COMP_TX"): "051cb66e6f3f0ab4825bb501e1fe476333bee10fca22f043814483004af2a721",
    ("hex-torus", "NO_COOP"): "0f2fccc60811811927b3b22e184bbdf380c69a9a579deb6a1765feb0942a0b73",
    ("sectorized-ball", None): "959a909c1b6c34607e87421893f1002523c035f26a845931f47ccfcaed28aa4b",
    ("sectorized-ball", "BOTH_COMP_RX"): "66ab6e225fe1a62a930f3e857113e3c402bc05120a73fa9fb31effc69f1f9437",
    ("sectorized-ball", "SLOW_COMP_RX"): "1ad3428b203fe639d7177315f191d29e4ccaaaac8205d01fbd29899846d74a20",
    ("sectorized-ball", "NO_COOP"): "89150c3c341b80264309409d19326e713e720a2a2dfea884dff623127aedb170",
    ("sectorized-torus", None): "965d263506fbe1eb7454f234aec0ae3409701fe861406b773a67085e6175d822",
    ("sectorized-torus", "BOTH_COMP_RX"): "1e879b4cdded8eaeca237bef7d4ea213d74774c10e79e37dc115553b96cc7f26",
    ("sectorized-torus", "SLOW_COMP_RX"): "fde7c5f3dca9948676f8631bdd641dcfc07d8600b5e2d5f93a8779e9e41536a1",
    ("sectorized-torus", "NO_COOP"): "5ad0b2a3469ebd926c15199e5d2d0880a05ae25ec42e6a6293da7a7d51c34ea6",
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _pinned_schemes(net, D):
    """The schemes valid at D on ``net``; a torus only fits the schemes of its own spacing."""
    for scheme in Scheme:
        try:
            check_params(net.model, scheme, D, net.L)
        except ValueError:
            continue
        if "tau" in net.params and scheme.cooperative and \
                scheme_tau(net.model, scheme, D) != net.params["tau"]:
            continue
        yield scheme


@pytest.mark.parametrize("name", FIVE_NETWORKS)
def test_json_is_byte_identical_to_the_dict_tables(name):
    net = FIVE_NETWORKS[name]()
    got = {(name, None): _sha(net.to_json_dict())}
    for scheme in _pinned_schemes(net, PIN_D[name]):
        got[(name, scheme.name)] = _sha(assign(net, PIN_D[name], scheme).to_json_dict())
    assert got == {key: pin for key, pin in JSON_PINS.items() if key[0] == name}


@pytest.mark.parametrize("K", [1, 2, 3, 10, 33])
def test_wyner_slot_zero_is_no_node(K):
    net = build_wyner(K, 1)
    assert net.q_tx == net.q_rx == 2 * K - 2
    assert net.interference[0] == () and 0 not in net.tx_nodes
    doc = net.to_json_dict()
    assert [n["id"] for n in doc["nodes"]] == list(range(1, K + 1))
    assert all(0 not in pair for key in ("interference", "tx_coop", "rx_coop")
               for pair in doc[key])
    assert len(doc["interference"]) == net.q_tx
    for scheme in Scheme:
        for D in range(9):
            if scheme.cooperative and (D < 2 or D % 2):
                continue
            assoc = assign(net, D, scheme)
            assert assoc.roles[0] is None
            assert list(assoc.to_json_dict()["roles"]) == [str(k) for k in range(1, K + 1)]


def test_wyner_build_memory_per_node():
    n = 100_000
    tracemalloc.start()
    try:
        net = build_wyner(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n_tx == n
    assert peak <= 240 * n, f"{peak / n:.0f} bytes per node"


def _stored_line_adjacency(K):
    """The tuple of neighbour tuples a line's builder once stored."""
    nodes = tuple(range(1, K + 1))
    return ((), ()) if K == 1 else ((), nodes[1:2], *zip(nodes, nodes[2:]), nodes[-2:-1])


@pytest.mark.parametrize("K", [*range(1, 61), 100_000])
def test_wyner_adjacency_is_computed_like_the_stored_tuple(K):
    net = build_wyner(K, 3)
    adj, ref = net.interference, _stored_line_adjacency(K)
    assert net.tx_coop is adj and net.rx_coop is adj and not isinstance(adj, tuple)
    assert len(adj) == len(ref) == K + 1
    assert list(adj) == list(ref)
    assert all(adj[k] == ref[k] for k in range(-(K + 1), K + 1))
    for s in (slice(None), slice(1, None), slice(None, None, -1), slice(-3, None),
              slice(2, -2, 3), slice(5, 1, -2), slice(K - 1, K + 5), slice(-K - 9, 2)):
        assert adj[s] == ref[s]
    for bad in (K + 1, -(K + 2)):
        with pytest.raises(IndexError, match="^tuple index out of range$"):
            adj[bad]
    assert adj == ref and ref == adj and not adj != ref and not ref != adj
    assert hash(adj) == hash(ref)
    assert adj != ref[:-1] and ref[:-1] != adj and adj != list(ref)
    for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert as_built(twin) == K and twin.interference == ref
    with pytest.raises(AttributeError):
        adj.K = K + 1
    with pytest.raises(AttributeError):
        adj.extra = ()
    assert adj == ref


@pytest.mark.parametrize("K", [1, 2, 7])
def test_line_adjacency_takes_index_items_and_compares_by_k(K):
    adj, ref = _LineAdjacency(K), _stored_line_adjacency(K)
    assert adj[True] == ref[True] and adj[False] == ref[False] == ()
    assert adj == _LineAdjacency(K) and not adj != _LineAdjacency(K)
    assert adj != _LineAdjacency(K + 1) and not adj == _LineAdjacency(K + 1)
    assert repr(adj) == f"_LineAdjacency({K})"


@pytest.mark.parametrize("make, sizes", [
    (build_hex, [(r,) for r in range(13)]),
    (build_sectored_hex, [(r,) for r in range(13)]),
    (build_hex_torus, [(tau, M) for tau in (1, 2) for M in range(1, 5)]),
    (build_sectored_hex_torus, [(tau, M) for tau in (1, 2) for M in range(1, 5)]),
], ids=["hex-balls", "sectorized-balls", "hex-tori", "sectorized-tori"])
def test_builder_cells_are_computed_like_the_tuple_of_their_rows(make, sizes):
    for size in sizes:
        net = make(*size, 1)
        cells, ref = net.cell_coords, tuple(row_cells(builder_rows(net)))
        assert isinstance(cells, _RowCells) and len(cells) == len(ref) == net.n_rx
        assert all(cells[i] == ref[i] for i in range(-len(ref), len(ref)))
        assert list(cells) == list(ref) and list(reversed(cells)) == list(reversed(ref))
        n = len(ref)
        for s in (slice(None), slice(1, None), slice(None, None, -1), slice(-3, None),
                  slice(2, -2, 3), slice(5, 1, -2), slice(n - 1, n + 5), slice(-n - 9, 2)):
            assert cells[s] == ref[s]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError, match="^tuple index out of range$"):
                cells[bad]
        assert cells[False] == ref[False] and cells[-True] == ref[-True]
        assert all(cells.index(c) == i and c in cells for i, c in enumerate(ref))
        a0, lo, hi = ref[0][0], min(b for _, b in ref), max(b for _, b in ref)
        outside = [(a, b) for a in range(a0 - 2, ref[-1][0] + 3) for b in range(lo - 2, hi + 3)
                   if (a, b) not in ref]
        for c in [*outside, (0.5, 0), (1.0, 1.0), (0, 0, 0), [0, 0], "ab", 7, None]:
            assert (c in cells) == (c in ref), c
            assert cells.count(c) == ref.count(c)
            if c in ref:
                assert cells.index(c) == ref.index(c)
            else:
                with pytest.raises(ValueError):
                    cells.index(c)
        last = ref[-1]
        assert cells.index(last, n - 1) == n - 1 and cells.index(last, -1) == n - 1
        with pytest.raises(ValueError):
            cells.index(last, 0, n - 1)
        assert cells == ref and ref == cells and not cells != ref and not ref != cells
        assert cells != ref[:-1] and ref[:-1] != cells and cells != list(ref)
        assert cells == _RowCells(tuple(builder_rows(net))) and hash(cells) == hash(ref)
        twin = pickle.loads(pickle.dumps(cells))
        assert type(twin) is _RowCells and twin == ref and twin.rows == cells.rows
        for name in ("rows", "starts", "extra"):
            with pytest.raises(AttributeError):
                setattr(cells, name, ())
        with pytest.raises(AttributeError):
            del cells.rows
        with pytest.raises(TypeError):
            cells[0] = (0, 0)
        assert cells == ref


def stored_adjacency(model, size):
    """(interference, rx_coop) of a ball (size (radius,)) or a torus (size (tau, copies)) as
    the tuples a builder once stored: each node's neighbours at its unit steps, in order,
    looked up in the coordinate dict or reached by the iterative wrap, the first step to a
    node kept."""
    geo = len(size) == 2 and TorusGeometry(*size)
    cells, step = (geo.cells(), torus_step(geo)) if geo else (brute_ball(*size), ball_step)
    index = {c: i for i, c in enumerate(cells)}
    first = lambda nbrs: tuple(dict.fromkeys(j for j in nbrs if j is not None))
    cells = tuple(first(step(c, d, index) for d in sorted(NEIGHBOR_STEPS)) for c in index)
    if model == HEX:
        return cells, cells
    sectors = tuple(first(3 * j + SECTOR_KINDS.index(k2) for k2, d in SECTOR_STEPS[k]
                          if (j := step(c, d, index)) is not None)
                    for c in index for k in SECTOR_KINDS)
    return sectors, cells


TORUS_SIZES = [(1, 1), (1, 2), (2, 1), (3, 2), (4, 6), (2, 6)]  # the bench's (4, 6) and (2, 6)


# every ball of radius 0..12, and the rim workload's: hex radius 60, sectorized radius 40;
# tori from the three-cell one, where two steps reach one cell, to the torus workload's largest
@pytest.mark.parametrize("make, sizes", [(build_hex, [(r,) for r in [*range(13), 60]]),
                                         (build_sectored_hex, [(r,) for r in [*range(13), 40]]),
                                         (build_hex_torus, TORUS_SIZES),
                                         (build_sectored_hex_torus, TORUS_SIZES)],
                         ids=["hex-balls", "sectorized-balls", "hex-tori", "sectorized-tori"])
def test_builder_adjacency_is_computed_like_the_stored_tuple(make, sizes):
    for size in sizes:
        refs = dict(zip(("interference", "rx_coop"), stored_adjacency(make(*size, 1).model,
                                                                      size)))
        for name, ref in refs.items():
            n = len(ref)
            net = make(*size, 1)  # fresh: items are computed one at a time
            adj = getattr(net, name)
            nodes = net.tx_nodes if name == "interference" else net.rx_nodes
            assert isinstance(adj, _GridAdjacency) and len(adj) == n
            assert adj.memo == [None] * n  # the build, q_tx and q_rx included, computed none
            assert net.tx_coop is net.interference and (net.rx_coop is adj) == (n == net.n_rx)
            assert all(adj[i] == ref[i] for i in range(-n, n))
            assert all(j is nodes[j] for i in range(n) for j in adj[i])
            for s in (slice(None), slice(1, None), slice(None, None, -1), slice(-3, None),
                      slice(2, -2, 3), slice(5, 1, -2), slice(n - 1, n + 5), slice(-n - 9, 2)):
                assert adj[s] == ref[s]
            for bad in (n, -n - 1):
                with pytest.raises(IndexError, match="^tuple index out of range$"):
                    adj[bad]
            assert adj[False] == ref[False] and adj[-True] == ref[-True]
            twin = make(*size, 1)  # fresh, half its items computed first: iteration does the rest
            other = getattr(twin, name)
            assert [other[i] for i in range(0, n, 2)] == list(ref[::2])
            assert list(other) == list(ref) and list(reversed(other)) == list(reversed(ref))
            nodes = twin.tx_nodes if name == "interference" else twin.rx_nodes
            assert all(j is nodes[j] for nbrs in other for j in nbrs)
            for a, b in ((adj, ref), (other, ref), (adj, other)):
                assert a == b and b == a and not a != b and not b != a
            assert hash(adj) == hash(ref) == hash(getattr(make(*size, 1), name))
            assert adj != ref[:-1] and ref[:-1] != adj and adj != list(ref)
            assert adj[s] == ref[s] and all(adj[i] == ref[i] for i in range(-n, n))  # stored
            assert (net.q_tx if name == "interference" else net.q_rx) == sum(map(len, tuple(adj)))
            for copied in (copy.deepcopy(twin), pickle.loads(pickle.dumps(twin))):
                assert builder_rows(copied) == builder_rows(twin) is not None
                assert type(getattr(copied, name)) is _GridAdjacency
                assert getattr(copied, name) == ref
            for slot in ("args", "flat", "memo", "extra"):
                with pytest.raises(AttributeError):
                    setattr(adj, slot, ())
            with pytest.raises(AttributeError):
                del adj.memo
            with pytest.raises(TypeError):
                adj[0] = ()
            assert adj == ref
