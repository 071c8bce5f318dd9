"""Cell / sector association rules: who is silent, fast, slow, and who is a master.

The cooperative schemes silence a sparse separator set so that the active
cells split into non-interfering subnets, each owning one master node that
every slow node can reach within the conferencing budget.

Hexagonal models: masters sit on the sublattice of spacing tau (tau = D/2
when both message types are sent, D/2 + 1 when only delay-tolerant data is
sent) and the silenced separator is the set of cells at hex distance
exactly tau from the master lattice.  In the mixed scheme the fast cells
are those with (a + b) % 3 == 0, which is an independent set of the
6-neighbour interference graph.

Sectorized model: the layer-D/2 separator silences whole corner cells at
(D/2, D/2), (-D/2, 0), (0, -D/2) relative to a master, keeps the corner
cells at (D/2, 0), (0, D/2), (-D/2, -D/2) fully active, and silences one
sector of each non-corner layer cell; three all-slow spokes of cells run
from the master towards the silenced corners, every other interior cell
has exactly one fast sector, and all active layer-D/2 sectors are fast.
The orientation of the per-cell choices is pinned by the requirement that
fast sectors never interfere and that the per-subnet load counts close
(see tests); it is the unique such orientation for the sector geometry of
this model.

In both hex-lattice models a cell's roles, and whether it is a master,
depend only on its position relative to the master lattice, so they are
periodic modulo that lattice.  ``assign`` therefore works them out once
per residue class (3 * tau^2 of them, from ``lattice.nearest_rows``'s
distances and displacements, with one ``nearest_masters`` call per base
row) and fills them in per row: each row of cells is one slice of a
repeated base row.  One rule (``_assign_lattice``) serves both models.
Per model it reads two things, as data: a cell's node roles (its one
role on hex, its three sector roles on sectorized) and the no-coop base
row.  A base row holds its cells' node roles in id order, so one slice
fills a row's nodes.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .lattice import Coord, Row, nearest_rows
from .topology import (HEX, SECTOR_KINDS, SECTORED, WYNER, Network, _need_at_least,
                       builder_rows)


class Scheme(str, enum.Enum):
    BOTH_COMP_RX = "BothCompRx"
    BOTH_COMP_TX = "BothCompTx"
    SLOW_COMP_RX = "SlowOnlyCompRx"
    SLOW_COMP_TX = "SlowOnlyCompTx"
    NO_COOP = "NoCoop"

    @property
    def cooperative(self) -> bool:
        return self is not Scheme.NO_COOP

    @property
    def mixed(self) -> bool:
        return self in (Scheme.BOTH_COMP_RX, Scheme.BOTH_COMP_TX)

    @property
    def comp_side(self) -> str:
        if self in (Scheme.BOTH_COMP_RX, Scheme.SLOW_COMP_RX):
            return "rx"
        if self in (Scheme.BOTH_COMP_TX, Scheme.SLOW_COMP_TX):
            return "tx"
        return "none"


def valid_d(model: str, scheme: Scheme) -> tuple[int, int, str]:
    """(least, step, rule): ``scheme`` runs on ``model`` at D = least, least + step, ...
    The one table of valid D (on hex, D/2 must fit the master lattice); raises ValueError
    for an unknown model and for sectorized CoMP-Tx."""
    if model not in (WYNER, HEX, SECTORED):
        raise ValueError(f"unknown model {model!r}")
    if model == SECTORED and scheme.comp_side == "tx":
        raise ValueError("the sectorized model only supports CoMP reception")
    if not scheme.cooperative:
        return 0, 1, "need D >= 0"
    if model == HEX:
        return 2, 6, "hexagonal cooperative schemes need an even D >= 2 with (D/2 - 1) mod 3 == 0"
    return 2, 2, "cooperative schemes need an even D >= 2"


def check_params(model: str, scheme: Scheme, D: int, L: int) -> None:
    """Raise ValueError unless ``scheme`` runs on ``model`` with D rounds and L antennas."""
    _need_at_least(L=(L, 1))  # the builders' own rule and message
    least, step, rule = valid_d(model, scheme)
    if D < least or (D - least) % step:
        raise ValueError(f"D={D}: {rule}")


SCHEME_ALIASES = {
    "both-rx": Scheme.BOTH_COMP_RX,
    "both-tx": Scheme.BOTH_COMP_TX,
    "slow-rx": Scheme.SLOW_COMP_RX,
    "slow-tx": Scheme.SLOW_COMP_TX,
    "no-coop": Scheme.NO_COOP,
}


class Role(str, enum.Enum):
    FAST = "F"
    SLOW = "S"
    SILENT = "X"


@dataclass
class Association:
    """Role per Tx node plus the designated master nodes for one scheme.

    ``roles`` is indexed by Tx id; the unused Wyner slot 0 holds None.
    """

    net: Network
    scheme: Scheme
    D: int
    roles: list[Role | None]
    masters: tuple[int, ...]  # Rx ids for CoMP reception, Tx ids for CoMP transmission

    def nodes_with(self, role: Role) -> list[int]:
        return [k for k in self.net.tx_nodes if self.roles[k] is role]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "D": self.D,
            "roles": {str(k): self.roles[k].value for k in self.net.tx_nodes},
            "masters": list(self.masters),
        }


def _assign_wyner(net: Network, D: int, scheme: Scheme) -> Association:
    K = net.n_tx
    # every period-th node silent, odd nodes fast where any are: the period is even, so
    # one period, repeated, holds both rules; slot 0 is no node
    period = 2 if scheme is Scheme.NO_COOP else D + 2
    odd = Role.FAST if scheme.mixed or scheme is Scheme.NO_COOP else Role.SLOW
    roles: list[Role | None] = [Role.SILENT, *[odd, Role.SLOW] * (period // 2 - 1), odd]
    roles *= K // period + 1
    del roles[K + 1:]
    roles[0] = None
    if scheme is Scheme.NO_COOP:
        return Association(net, scheme, D, roles, ())

    # one master per complete subnet {s+1, ..., s+D+1}; a short tail gets none
    return Association(net, scheme, D, roles, tuple(range(D // 2 + 1, K - D // 2 + 1, period)))


def scheme_tau(model: str, scheme: Scheme, D: int) -> int:
    """Master-lattice spacing used by a cooperative scheme on a hex-lattice model."""
    if model == HEX and scheme in (Scheme.SLOW_COMP_RX, Scheme.SLOW_COMP_TX):
        return D // 2 + 1
    return D // 2


def _fill_rows(rows: Sequence[Row], tau: int, base: list[list], nk: int) -> list:
    """The ``nk`` values per cell id, for values periodic modulo the spacing-tau master
    lattice whose values at (a, b) are ``base[a][nk * b:nk * (b + 1)]`` on the base rows,
    filled along ``rows`` (a, lo, hi), in id order, a row at a time.

    The master lattice is generated by (tau, 2 * tau) and (0, 3 * tau), so
    along a row values repeat with 3 * tau, and row a's values at b = 0, 1,
    ... are base row a mod tau's rotated left by tau * ((a mod 3 * tau) div
    tau).  The tau base rows of 3 * tau cells, (0, 0) .. (tau - 1, 3 * tau -
    1), are the 3 * tau^2 classes; every row is one slice of its base row
    repeated.
    """
    t3 = 3 * tau
    repeats = max((hi - lo for _, lo, hi in rows), default=0) // t3 + 2
    base = [row * repeats for row in base]
    values: list = []
    for a, lo, hi in rows:
        turn = (lo + tau * (a % t3 // tau)) % t3
        values += base[a % tau][nk * turn:nk * (turn + hi - lo + 1)]
    return values


def _fill_masters(rows: Sequence[Row], tau: int) -> list[int]:
    """The cell ids of the spacing-tau master lattice along ``rows``, as ``_fill_rows``
    numbers them: the cells of the rows a = 0 mod tau at b = 2a mod 3 * tau."""
    t3, start, masters = 3 * tau, 0, []
    for a, lo, hi in rows:
        n = hi - lo + 1
        if a % tau == 0:
            masters += range(start + (2 * a - lo) % t3, start + n, t3)
        start += n
    return masters


def _master_rows(net: Network, tau: int) -> list[list[tuple[int, Coord]]]:
    """``nearest_rows(tau)``, each row checked against ``net.geometry`` at its anchor
    (a, 0), whose nearest master is (0, 0): a torus built for another tau raises
    ValueError there."""
    rows = nearest_rows(tau)
    for a, row in enumerate(rows):
        dist, hits = net.geometry.nearest_masters((a, 0), tau)
        assert (dist, hits[0][1]) == row[0], (tau, a)
    return rows


def _hex_roles(scheme: Scheme, tau: int, dist: int, delta: Coord) -> tuple[Role]:
    """A hex cell's one role, from its distance and displacement to a nearest master: a
    master's a + b is a multiple of 3 tau, so the cell's a + b is delta's mod 3."""
    fast = scheme.mixed and (delta[0] + delta[1]) % 3 == 0
    return (Role.SILENT if dist == tau else Role.FAST if fast else Role.SLOW,)


# Sector-role tables for the mixed sectorized scheme, in coordinates
# relative to the nearest master.  Kept corners stay fully active, the
# other three corners are silenced entirely, non-corner layer cells lose
# one sector, and interior cells off the three all-slow spokes carry one
# fast sector each.
def _sector_silenced(delta: Coord, tau: int) -> set[str]:
    a, b = delta
    if (a, b) in ((tau, 0), (0, tau), (-tau, -tau)):
        return set()
    if (a, b) in ((tau, tau), (-tau, 0), (0, -tau)):
        return {"E", "W", "S"}
    if abs(a) == tau and (a > 0) == (b > 0):
        return {"S"}
    if abs(b) == tau and (a > 0) == (b > 0):
        return {"W"}
    return {"E"}


def _sector_fast_kind(delta: Coord) -> str | None:
    a, b = delta
    if (a == b and a >= 0) or (b == 0 and a <= 0) or (a == 0 and b <= 0):
        return None  # all-slow spoke
    if a > 0 and b < a:
        return "W"
    if b > 0 and b > a:
        return "S"
    return "E"


def _sector_roles(scheme: Scheme, tau: int, dist: int, delta: Coord) -> tuple[Role, ...]:
    """A cell's sector roles in ``SECTOR_KINDS`` order, from its distance and displacement
    to a nearest master (on the layer every nearest master gives one silenced set)."""
    if dist < tau:
        fast = scheme.mixed and _sector_fast_kind(delta)
        return tuple(Role.FAST if k == fast else Role.SLOW for k in SECTOR_KINDS)
    silenced, active = _sector_silenced(delta, tau), Role.FAST if scheme.mixed else Role.SLOW
    return tuple(Role.SILENT if k in silenced else active for k in SECTOR_KINDS)


# per hex-lattice model: a cell's node roles (node nk * i + j is entry j of cell i's) and the
# no-coop base row of spacing 1, cells (0, 0), (0, 1), (0, 2): fast where (a + b) % 3 == 0 on
# hex, in the W sector on sectorized; it needs no geometry, so a torus of any tau takes it
_LATTICE_RULES = {
    HEX: (_hex_roles, [Role.FAST, Role.SILENT, Role.SILENT]),
    SECTORED: (_sector_roles, [Role.FAST if k == "W" else Role.SILENT for k in SECTOR_KINDS] * 3),
}


def _assign_lattice(net: Network, D: int, scheme: Scheme) -> Association:
    cell_roles, no_coop = _LATTICE_RULES[net.model]
    nk = len(no_coop) // 3
    rows = builder_rows(net) or [(a, b, b) for a, b in net.cell_coords]  # else one-cell rows
    if scheme is Scheme.NO_COOP:
        return Association(net, scheme, D, _fill_rows(rows, 1, [no_coop], nk), ())
    tau = scheme_tau(net.model, scheme, D)
    base = [list(chain.from_iterable(cell_roles(scheme, tau, *near) for near in row))
            for row in _master_rows(net, tau)]
    return Association(net, scheme, D, _fill_rows(rows, tau, base, nk),
                       tuple(_fill_masters(rows, tau)))


def assign(net: Network, D: int, scheme: Scheme) -> Association:
    """The one assignment entry point: check (model, scheme, D, L) once, run the model's rule."""
    check_params(net.model, scheme, D, net.L)
    rule = {WYNER: _assign_wyner, HEX: _assign_lattice, SECTORED: _assign_lattice}[net.model]
    return rule(net, D, scheme)
