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
``tx_cell``; ``rx_coop`` and ``cell_coords`` per Rx cell) is a sequence
indexed by the id itself.  Hex and sectorized ids run 0..n-1.
Wyner keeps the 1-based cell numbers 1..K of the paper, so its tables carry
an unused slot 0 (empty adjacency, no role) that is never in ``tx_nodes``,
the ``range`` 1..K.
A Tx node's Rx cell is one lookup in ``tx_cell``: the identity range for
Wyner and hex, where a node is its own cell; in the sectorized model sector
``3 * i + j`` is the ``SECTOR_KINDS[j]`` sector of cell ``i`` and ``tx_cell``
maps a sector to its cell.  So node t sits at ``cell_coords[tx_cell[t]]``.
Per-cell code uses these and needs no model branch.
Adjacency is a sequence of tuples that list each node's neighbours in
unit-step order (``_HEX_STEPS``, ``_SECTOR_STEPS``; the lower cell first on
a line), which a translation keeps: on a line and a ball this is id order,
while a torus's wrapped neighbours keep their step's place.  Equal
relations share one object (``tx_coop is interference`` in every model).
Adjacency is computed, not stored.  A line's cell k hears k - 1 and k + 1,
so ``_LineAdjacency`` returns that pair (clipped to 1..K) on access.  A
ball's or torus's is read off one flat grid of its ids (``_GridAdjacency``),
an item on its first access, which stores it.  Its ``cell_coords`` are
computed from its rows (``_RowCells``).  All three equal, hash, index,
slice and iterate like the tuple they stand for (``_Computed``), reading
one item at a time.

Every builder marks the ``Network`` it returns (``_marked``): ``as_built``
and ``builder_rows`` tell in O(1) whether a network is still exactly a
builder's line, or ball or torus (then with its rows (a, lo, hi) in id
order), so that ``association`` may fill roles a row at a time and
``validation`` may prove a network by its period or its master lattice
without re-proving its structure.  Every marked object is immutable; a
reassigned field, a changed ``params``, a ``dataclasses.replace`` copy or
a hand-made ``Network`` matches no mark.

Hex and sectorized networks are written once, by ``_from_rows``, from
their node kinds and the domain's rows (``lattice.ball_rows``,
``TorusGeometry.rows``): cell (a, b) has id ``base[a] + b``, with no
per-cell neighbour lookup and no ``canon`` call.  ``q_tx`` and ``q_rx`` are the
steps per cell times the cells that keep a step: a unit step leaves a radius-r
ball from 2r + 1 cells, and no torus cell (a torus's steps are deduplicated).

Finite instances come in two flavours: hex-distance balls of a given
radius (edge effects at the rim) and tori holding M x M whole subnets of a
given master spacing tau (no edge effects; used by the exact count
oracles).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter, is_

from .lattice import (Coord, NEIGHBOR_STEPS, PlaneGeometry, Row, TorusGeometry, ball_rows,
                      torus_canon)

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

# The adjacency builder's offset tables: per node kind, the sorted steps
# (da, db, kind of the neighbour node).  A hex cell is one kind with the six
# unit steps; SECTOR_RULE gives the three sector kinds.
_HEX_STEPS = (tuple(sorted((da, db, 0) for da, db in NEIGHBOR_STEPS)),)
_SECTOR_STEPS = tuple(tuple(sorted((da, db, SECTOR_KINDS.index(k2))
                                   for k2, (da, db) in SECTOR_RULE[k]))
                      for k in SECTOR_KINDS)

# Directed links per Tx node and per Rx cell on the unbounded line or plane (``loads``).
PLANE_LINKS = {WYNER: (2, 2), HEX: (len(_HEX_STEPS[0]),) * 2,
               SECTORED: (len(_SECTOR_STEPS[0]), len(_HEX_STEPS[0]))}


@dataclass
class Network:
    """Immutable-by-convention interference/cooperation topology."""

    model: str
    L: int
    tx_nodes: Sequence[int]
    rx_nodes: Sequence[int]
    # I_k: tx nodes heard at node k's receiver unit, computed on access (see above)
    interference: Sequence[tuple[int, ...]]
    tx_coop: Sequence[tuple[int, ...]]
    rx_coop: Sequence[tuple[int, ...]]  # per Rx cell
    q_tx: int
    q_rx: int
    params: dict = field(default_factory=dict)
    cell_coords: Sequence = field(default=(), repr=False)  # per Rx cell
    tx_cell: Sequence[int] = field(default=(), repr=False)  # Tx node -> Rx cell
    geometry: object | None = field(default=None, repr=False)
    # (the _MARKED fields, params, rows) as a builder returned them; see ``_marked``
    _mark: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_tx(self) -> int:
        return len(self.tx_nodes)

    @property
    def n_rx(self) -> int:
        return len(self.rx_nodes)

    @property
    def has_rim(self) -> bool:
        """A line or a ball, whose rim may clip subnets; never a torus or a hand-built net."""
        return self.model == WYNER or "radius" in self.params

    def to_json_dict(self) -> dict:
        if self.model == WYNER:
            nodes = [{"id": t, "coord": t} for t in self.tx_nodes]
        else:
            nodes = [{"id": t, "coord": list(self.cell_coords[self.tx_cell[t]])}
                     for t in self.tx_nodes]
        if self.model == SECTORED:
            for node in nodes:
                node["kind"] = SECTOR_KINDS[node["id"] % 3]
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


_MARKED = attrgetter("model", "tx_nodes", "rx_nodes", "interference", "tx_coop", "rx_coop",
                     "tx_cell", "cell_coords")


def _marked(net: Network, rows: list[Row] | None = None) -> Network:
    """``net``, marked as its builder returns it, with the marked fields' objects, its
    params and a ball's or torus's rows."""
    net._mark = (_MARKED(net), dict(net.params), None if rows is None else tuple(rows))
    return net


def _intact_mark(net: Network) -> tuple | None:
    """``net``'s mark while its marked fields are the builder's objects and its params
    the builder's; None otherwise."""
    if net._mark is None:
        return None
    fields, params = net._mark[:2]
    return net._mark if all(map(is_, fields, _MARKED(net))) and net.params == params else None


def as_built(net: Network) -> int | None:
    """K of a line that is exactly what ``build_wyner`` returned; None for any other
    network."""
    mark = _intact_mark(net)
    return mark and mark[1].get("K")


def builder_rows(net: Network) -> tuple[Row, ...] | None:
    """The rows (a, lo, hi) of a ball or torus exactly as its builder returned it, in
    id order; None for any other network.  ``association`` fills roles along them, a
    master-lattice proof needs them, and a torus's seam lies at their ends."""
    mark = _intact_mark(net)
    return mark and mark[2]


def _need_at_least(**sizes: tuple[int, int]) -> None:
    """Raise ValueError naming the first size argument below its least value.

    Keyword values are (value, least) pairs; the message reads like
    ``check_params``: ``copies=0: need copies >= 1``.
    """
    for name, (value, least) in sizes.items():
        if value < least:
            raise ValueError(f"{name}={value}: need {name} >= {least}")


class _Computed(Sequence):
    """A tuple (a list if ``_kind`` is list) computed on access from the one argument in
    its first slot: immutable, and equal to that tuple in items, slices, ``==``, hash and
    pickling.  ``__getitem__`` takes an int i in range straight to ``_item(i)``, anything
    else by ``range``'s rules; ``index``, ``in`` and iteration read item by item, as
    ``Sequence``'s do.  ``__init__`` fills ``__slots__`` in order."""

    __slots__ = ()
    _kind = tuple

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __getitem__(self, i):
        if i.__class__ is int and 0 <= i < len(self):
            return self._item(i)
        try:
            i = range(len(self))[i]  # an index in range, or a range for a slice
        except IndexError:
            raise IndexError(f"{self._kind.__name__} index out of range") from None
        return self._kind(map(self._item, i)) if i.__class__ is range else self._item(i)

    def __eq__(self, other) -> bool:  # a tuple's or list's == with a _Computed defers to it
        kind = self._kind
        return kind(self) == other if isinstance(other, (kind, _Computed)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return type(self), (getattr(self, self.__slots__[0]),)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({getattr(self, self.__slots__[0])!r})"


class _LineAdjacency(_Computed):
    """The adjacency ``((), (2,), (1, 3), ..., (K - 1,))`` of cells 1..K on a line."""

    __slots__ = ("K",)

    def __len__(self) -> int:
        return self.K + 1

    def _item(self, k: int) -> tuple[int, ...]:
        return ((k - 1, k + 1) if 1 < k < self.K else
                tuple(j for j in (k - 1, k + 1) if 0 < j <= self.K) if k else ())


class _RowCells(_Computed):
    """The cells ``lattice.row_cells(rows)`` of a ball's or torus's rows: cell i is (a, lo + i
    - start) of the last row (a, lo, hi) whose first id ``start`` is at most i."""

    __slots__ = ("rows", "starts")

    def __init__(self, rows: tuple[Row, ...]) -> None:
        super().__init__(rows, [0, *accumulate(hi - lo + 1 for _, lo, hi in rows)])

    def __len__(self) -> int:
        return self.starts[-1]

    def _item(self, i: int) -> Coord:
        r = bisect_right(self.starts, i) - 1
        return (self.rows[r][0], self.rows[r][1] + i - self.starts[r])


def build_wyner(K: int, L: int) -> Network:
    """Linear network with cells 1..K; node k interferes with k-1 and k+1.

    Slot 0 of every table is unused, so that a cell's id is its number.
    The one adjacency object is computed on access (``_LineAdjacency``).
    """
    _need_at_least(K=(K, 1), L=(L, 1))
    ids = range(K + 1)
    nodes = ids[1:]
    adj = _LineAdjacency(K)
    q = 2 * K - 2
    return _marked(Network(
        model=WYNER, L=L, tx_nodes=nodes, rx_nodes=nodes,
        interference=adj, tx_coop=adj, rx_coop=adj,
        q_tx=q, q_rx=q, params={"K": K},
        cell_coords=ids, tx_cell=ids,
    ))


class _GridAdjacency(_Computed):
    """A ball's or torus's adjacency, from ``(rows, kinds, nodes, mt)`` (mt = tau * M on
    a torus, None on a ball): item x is the nodes at the steps (da, db, k2) of
    ``kinds[x % nk]`` from node x, in step order, less empty seats.

    A flat list holds the ids of every kind, W cells to a row: node x of row r
    sits at ``offs[r] + x``, and each step is one offset from there.  A ball's
    is its bounding box with an empty row above and below and one empty column
    at the right, which is also the seat left of the next row's first column.
    A torus's is its rows of ids (``lattice``), each twice between margin
    columns, and margin rows turned at the seam, so no seat is empty; on the
    torus of mt == 1 a step to the cell of an earlier step is dropped.  An item
    is stored when first read.
    """

    __slots__ = ("args", "flat", "nstarts", "offs", "steps", "memo")

    def __init__(self, args: tuple) -> None:
        rows, kinds, nodes, mt = args
        nk = len(kinds)
        nstarts = [0, *accumulate(nk * (hi - lo + 1) for _, lo, hi in rows)]  # rows' first nodes
        if mt is None:  # row r's first cell (a, lo) at seat (r, lo - b0)
            W, b0 = len(rows) + 1, rows[0][1]
            seats = [(r, lo - b0) for r, (_, lo, _) in enumerate(rows, 1)]
            flat = [None] * (nk * W * (len(rows) + 2))
            for (q, c), i, j in zip(seats, nstarts, nstarts[1:]):
                flat[nk * (q * W + c):nk * (q * W + c) + j - i] = nodes[i:j]
        else:  # row a, ids nk * P * a .., at seat (a + 1, 1)
            P, W = 3 * mt, 6 * mt + 2
            # the first step to each cell, in step order: the steps are sorted
            kinds = [sorted({(*torus_canon((da, db), mt), k2): (da, db, k2)
                             for da, db, k2 in ks[::-1]}.values()) for ks in kinds]
            seats, flat = [(a + 1, 1) for a in range(mt)], []
            for q in range(-1, mt + 1):  # row q from its cell (q, -1), turned at the seam
                a, b = torus_canon((q, -1), mt)
                flat += (nodes[nk * P * a:nk * P * (a + 1)] * 4)[nk * b:nk * (b + W)]
        offs = [0, *(nk * (q * W + c) - i for (q, c), i in zip(seats, nstarts))]
        steps = [[nk * (da * W + db) + k2 - k for da, db, k2 in ks] for k, ks in enumerate(kinds)]
        super().__init__(args, flat, nstarts, offs, steps, [None] * len(nodes))

    def __len__(self) -> int:
        return len(self.memo)

    def __getitem__(self, x):
        try:
            nbrs = self.memo[x]
        except IndexError:
            raise IndexError("tuple index out of range") from None
        if nbrs.__class__ is tuple:
            return nbrs
        if x.__class__ is not int or x < 0:  # a slice, a negative index, a bool
            return super().__getitem__(x)
        flat, f = self.flat, self.offs[bisect_right(self.nstarts, x)] + x
        nbrs = self.memo[x] = tuple([j for d in self.steps[x % len(self.steps)]
                                     if (j := flat[f + d]) is not None])
        return nbrs

    _item = __getitem__


def _from_rows(model: str, kinds: tuple[tuple[tuple[int, int, int], ...], ...], rows: list[Row],
               L: int, mt: int | None, params: dict, geometry) -> Network:
    """The marked network of ``kinds`` (``_HEX_STEPS`` or ``_SECTOR_STEPS``) over the cells
    of ``rows``, a ball's or (if ``mt``) a torus's: node ``len(kinds) * i + j`` is kind j of
    cell i.  With one kind a node is its own cell, and the cell-to-cell cooperation is the
    interference."""
    cells = _RowCells(tuple(rows))
    nk = len(kinds)
    ids = range(len(cells))
    rx_nodes = tuple(ids)
    tx_nodes = rx_nodes if nk == 1 else tuple(range(nk * len(cells)))
    interference = _GridAdjacency((cells.rows, kinds, tx_nodes, mt))
    rx_coop = interference if nk == 1 else _GridAdjacency((cells.rows, _HEX_STEPS, rx_nodes, mt))
    # a unit step leaves a radius-r ball from the r + 1 cells of the side it crosses (so (1, 0)
    # leaves row r whole) and r cells of the next side; it leaves no torus cell
    keep = len(cells) - (0 if mt else 2 * params["radius"] + 1)
    q_tx, q_rx = (keep * sum(map(len, adj.steps)) for adj in (interference, rx_coop))
    return _marked(Network(
        model=model, L=L, tx_nodes=tx_nodes, rx_nodes=rx_nodes,
        interference=interference, tx_coop=interference, rx_coop=rx_coop,
        q_tx=q_tx, q_rx=q_rx, params=params, cell_coords=cells, geometry=geometry,
        tx_cell=ids if nk == 1 else tuple(chain.from_iterable(zip(*[rx_nodes] * nk))),
    ), cells.rows)


def _ball(model: str, kinds, radius: int, L: int) -> Network:
    _need_at_least(radius=(radius, 0), L=(L, 1))
    return _from_rows(model, kinds, ball_rows(radius), L, None, {"radius": radius},
                      PlaneGeometry())


def _torus(model: str, kinds, tau: int, copies: int, L: int) -> Network:
    _need_at_least(tau=(tau, 1), copies=(copies, 1), L=(L, 1))
    geo = TorusGeometry(tau, copies)
    return _from_rows(model, kinds, geo.rows(), L, tau * copies,
                      {"tau": tau, "copies": copies}, geo)


def build_hex(radius: int, L: int) -> Network:
    """Hexagonal network on the radius-``radius`` hex ball around the origin."""
    return _ball(HEX, _HEX_STEPS, radius, L)


def build_hex_torus(tau: int, copies: int, L: int) -> Network:
    """Hexagonal network on a torus of ``copies`` x ``copies`` whole spacing-``tau`` subnets."""
    return _torus(HEX, _HEX_STEPS, tau, copies, L)


def build_sectored_hex(radius: int, L: int) -> Network:
    """Sectorized hexagonal network (3 Tx sectors per cell, one 3L-antenna Rx per cell)."""
    return _ball(SECTORED, _SECTOR_STEPS, radius, L)


def build_sectored_hex_torus(tau: int, copies: int, L: int) -> Network:
    return _torus(SECTORED, _SECTOR_STEPS, tau, copies, L)
