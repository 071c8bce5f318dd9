"""Construction of the three cellular interference network models.

* Wyner linear network: K cells on a line, each interfering with its two
  neighbours; cooperation links mirror the interference links, so the
  directed link totals are 2K-2.
* Hexagonal network: cells on the axial hex lattice, 6-regular interference
  and cooperation in the interior.
* Sectorized hexagonal network: three 120-degree transmitter sectors per
  cell (kinds "E", "W", "S", dividers pointing at the edge midpoints
  towards neighbours (0,1), (-1,-1), (1,0)).  A sector wedge touches one
  neighbour cell across a full edge and two more across half edges, which
  gives every sector exactly four interfering sectors spread over three
  neighbouring cells; sectors of the same cell never interfere.  Receiver
  cooperation stays cell-to-cell (6 neighbours), transmitter cooperation
  follows the sector interference graph (4 neighbours).

Node ids are dense: every per-node table (``interference``, ``tx_coop``,
``coords``, ``tx_cell``; ``rx_coop``, ``cell_coords``, ``cell_sectors``
per Rx cell) is a sequence indexed by the id itself.  Hex and sectorized
ids run 0..n-1.  Wyner keeps the 1-based cell numbers 1..K of the paper, so
its tables carry an unused slot 0 (empty adjacency, no role) that is never
in ``tx_nodes``.  ``Network.cell_of`` is one lookup in ``tx_cell``: the
identity range for Wyner and hex, where a node is its own cell and
``cell_coords`` is the very sequence ``coords``; in the sectorized model
``coords`` holds (cell coordinate, kind) per sector and ``tx_cell`` maps a
sector to its cell.  Per-cell code uses these and needs no model branch.
Adjacency is a tuple of sorted tuples, and equal relations share one
object (``tx_coop is interference`` in every model).

Finite instances come in two flavours: hex-distance balls of a given
radius (edge effects at the rim) and tori holding M x M whole subnets of a
given master spacing tau (no edge effects; used by the exact count
oracles).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .lattice import (Coord, NEIGHBOR_STEPS, PlaneGeometry, TorusGeometry,
                      ball)

WYNER = "WynerLinear"
HEX = "Hexagonal"
SECTORED = "SectorizedHexagonal"

SECTOR_KINDS = ("E", "W", "S")

# Interfering sectors of each sector kind, as (kind, cell offset) pairs.
# Two partners sit in the full-edge neighbour, one in each half-edge
# neighbour.  The relation is symmetric, 4-regular and invariant under the
# 2*pi/3 rotation (a,b) -> (-b, a-b) with the kind cycle E -> W -> S.
SECTOR_RULE: dict[str, tuple[tuple[str, Coord], ...]] = {
    "E": (("W", (1, 1)), ("S", (1, 1)), ("W", (1, 0)), ("S", (0, 1))),
    "W": (("E", (-1, 0)), ("S", (-1, 0)), ("S", (0, 1)), ("E", (-1, -1))),
    "S": (("E", (0, -1)), ("W", (0, -1)), ("E", (-1, -1)), ("W", (1, 0))),
}


@dataclass
class Network:
    """Immutable-by-convention interference/cooperation topology."""

    model: str
    L: int
    tx_nodes: tuple[int, ...]
    rx_nodes: tuple[int, ...]
    interference: tuple[tuple[int, ...], ...]  # I_k: tx nodes heard at node k's receiver unit
    tx_coop: tuple[tuple[int, ...], ...]
    rx_coop: tuple[tuple[int, ...], ...]  # per Rx cell
    q_tx: int
    q_rx: int
    params: dict = field(default_factory=dict)
    coords: Sequence = field(default=(), repr=False)  # per Tx node
    cell_coords: Sequence = field(default=(), repr=False)  # per Rx cell
    tx_cell: Sequence[int] = field(default=(), repr=False)  # Tx node -> Rx cell
    cell_sectors: Sequence[tuple[int, ...]] = field(default=(), repr=False)  # sectorized only
    geometry: object | None = field(default=None, repr=False)

    @property
    def n_tx(self) -> int:
        return len(self.tx_nodes)

    @property
    def n_rx(self) -> int:
        return len(self.rx_nodes)

    def cell_of(self, tx: int) -> int:
        """The Rx cell that Tx node ``tx`` sits in."""
        return self.tx_cell[tx]

    def to_json_dict(self) -> dict:
        if self.model == SECTORED:
            nodes = [{"id": t, "coord": list(self.coords[t][0]), "kind": self.coords[t][1]}
                     for t in self.tx_nodes]
        elif self.model == HEX:
            nodes = [{"id": t, "coord": list(self.coords[t])} for t in self.tx_nodes]
        else:
            nodes = [{"id": t, "coord": t} for t in self.tx_nodes]
        pairs = lambda adj: [[a, b] for a, nbrs in enumerate(adj) for b in nbrs]
        return {
            "model": self.model,
            "L": self.L,
            "params": self.params,
            "nodes": nodes,
            "interference": pairs(self.interference),
            "tx_coop": pairs(self.tx_coop),
            "rx_coop": pairs(self.rx_coop),
            "q_tx": self.q_tx,
            "q_rx": self.q_rx,
        }


def _need_at_least(**sizes: tuple[int, int]) -> None:
    """Raise ValueError naming the first size argument below its least value.

    Keyword values are (value, least) pairs; the message reads like
    ``check_params``: ``copies=0: need copies >= 1``.
    """
    for name, (value, least) in sizes.items():
        if value < least:
            raise ValueError(f"{name}={value}: need {name} >= {least}")


def network_from_json_dict(obj: dict) -> Network:
    """Rebuild a network from its serialized parameters (adjacency is re-derived)."""
    model, L, p = obj["model"], obj["L"], obj["params"]
    if model == WYNER:
        return build_wyner(p["K"], L)
    if model == HEX:
        if "tau" in p:
            return build_hex_torus(p["tau"], p["copies"], L)
        return build_hex(p["radius"], L)
    if model == SECTORED:
        if "tau" in p:
            return build_sectored_hex_torus(p["tau"], p["copies"], L)
        return build_sectored_hex(p["radius"], L)
    raise ValueError(f"unknown model {model!r}")


def build_wyner(K: int, L: int) -> Network:
    """Linear network with cells 1..K; node k interferes with k-1 and k+1.

    Slot 0 of every table is unused, so that a cell's id is its number.
    """
    _need_at_least(K=(K, 1), L=(L, 1))
    ids = range(K + 1)
    nodes = tuple(ids[1:])
    if K == 1:
        adj: tuple[tuple[int, ...], ...] = ((), ())
    else:  # the neighbour tuples share the int objects of ``nodes``
        adj = ((), nodes[1:2], *zip(nodes, nodes[2:]), nodes[-2:-1])
    q = 2 * K - 2
    return Network(
        model=WYNER, L=L, tx_nodes=nodes, rx_nodes=nodes,
        interference=adj, tx_coop=adj, rx_coop=adj,
        q_tx=q, q_rx=q, params={"K": K},
        coords=ids, cell_coords=ids, tx_cell=ids,
    )


def _cell_adjacency(index: dict[Coord, int], canon) -> tuple[tuple[int, ...], ...]:
    """6-neighbour graph of the cells in ``index`` (canonical coordinate -> id).

    ``index`` lists the cells in id order.  Keys are canonical, so a raw
    neighbour found in ``index`` is already the canonical one; only a step
    across a torus seam needs ``canon``.
    """
    adj = []
    for c in index:
        nbrs = []
        for da, db in NEIGHBOR_STEPS:
            n = (c[0] + da, c[1] + db)
            j = index.get(n)
            if j is None:
                j = index.get(canon(n))
            if j is not None:
                nbrs.append(j)
        adj.append(tuple(sorted(set(nbrs))))
    return tuple(adj)


def _hex_from_cells(cells: list[Coord], L: int, canon, params: dict,
                    geometry) -> Network:
    adj = _cell_adjacency({c: i for i, c in enumerate(cells)}, canon)
    q = sum(map(len, adj))
    ids = range(len(cells))
    nodes = tuple(ids)
    return Network(
        model=HEX, L=L, tx_nodes=nodes, rx_nodes=nodes,
        interference=adj, tx_coop=adj, rx_coop=adj,
        q_tx=q, q_rx=q, params=params,
        coords=cells, cell_coords=cells, tx_cell=ids,
        geometry=geometry,
    )


def build_hex(radius: int, L: int) -> Network:
    """Hexagonal network on the radius-``radius`` hex ball around the origin."""
    _need_at_least(radius=(radius, 0), L=(L, 1))
    return _hex_from_cells(ball(radius), L, lambda c: c,
                           {"radius": radius}, PlaneGeometry())


def build_hex_torus(tau: int, copies: int, L: int) -> Network:
    """Hexagonal network on a torus of ``copies`` x ``copies`` whole spacing-``tau`` subnets."""
    _need_at_least(tau=(tau, 1), copies=(copies, 1), L=(L, 1))
    geo = TorusGeometry(tau, copies)
    return _hex_from_cells(geo.cells(), L, geo.canon,
                           {"tau": tau, "copies": copies}, geo)


def _sectored_from_cells(cells: list[Coord], L: int, canon, params: dict,
                         geometry) -> Network:
    """Sector ``3 * i + j`` is the ``SECTOR_KINDS[j]`` sector of cell ``i``."""
    index = {c: i for i, c in enumerate(cells)}
    rx_nodes = tuple(range(len(cells)))
    tx_nodes = tuple(range(3 * len(cells)))
    kind_idx = {k: j for j, k in enumerate(SECTOR_KINDS)}
    rules = [[(kind_idx[k2], da, db) for k2, (da, db) in SECTOR_RULE[k]]
             for k in SECTOR_KINDS]

    interference = []
    for c in cells:
        for rule in rules:
            nbrs = []
            for j2, da, db in rule:
                # canonical keys: canon only when the raw cell is off the domain
                n = (c[0] + da, c[1] + db)
                j = index.get(n)
                if j is None:
                    j = index.get(canon(n))
                if j is not None:
                    nbrs.append(3 * j + j2)
            interference.append(tuple(sorted(set(nbrs))))
    interference = tuple(interference)
    q_tx = sum(map(len, interference))

    rx_coop = _cell_adjacency(index, canon)
    q_rx = sum(map(len, rx_coop))
    return Network(
        model=SECTORED, L=L, tx_nodes=tx_nodes, rx_nodes=rx_nodes,
        interference=interference, tx_coop=interference, rx_coop=rx_coop,
        q_tx=q_tx, q_rx=q_rx, params=params,
        coords=[(c, k) for c in cells for k in SECTOR_KINDS], cell_coords=cells,
        tx_cell=[i for i in rx_nodes for _ in SECTOR_KINDS],
        cell_sectors=[tx_nodes[3 * i:3 * i + 3] for i in rx_nodes],
        geometry=geometry,
    )


def build_sectored_hex(radius: int, L: int) -> Network:
    """Sectorized hexagonal network (3 Tx sectors per cell, one 3L-antenna Rx per cell)."""
    _need_at_least(radius=(radius, 0), L=(L, 1))
    return _sectored_from_cells(ball(radius), L, lambda c: c,
                                {"radius": radius}, PlaneGeometry())


def build_sectored_hex_torus(tau: int, copies: int, L: int) -> Network:
    _need_at_least(tau=(tau, 1), copies=(copies, 1), L=(L, 1))
    geo = TorusGeometry(tau, copies)
    return _sectored_from_cells(geo.cells(), L, geo.canon,
                                {"tau": tau, "copies": copies}, geo)
