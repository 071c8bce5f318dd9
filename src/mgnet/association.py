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
per residue class (3 * tau^2 of them, one ``nearest_masters`` call each)
and copies the result to every other cell of the class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .lattice import Coord
from .topology import HEX, SECTOR_KINDS, SECTORED, WYNER, Network, _need_at_least


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
    # slot 0 is no node; odd nodes are fast where any are, every period-th silent
    roles: list[Role | None] = [Role.SLOW] * (K + 1)
    if scheme.mixed or scheme is Scheme.NO_COOP:
        roles[1::2] = [Role.FAST] * ((K + 1) // 2)
    period = 2 if scheme is Scheme.NO_COOP else D + 2
    roles[::period] = [Role.SILENT] * (K // period + 1)
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


def _per_class(net: Network, tau: int, rule) -> tuple[list, list[int]]:
    """``rule(cell, dist, hits)`` per cell id, evaluated once per master-lattice class.

    Roles repeat with the spacing-tau master lattice.  The map (a, b) ->
    (2b - a, 2a - b) is injective and sends master (m + 2n, 2m + n) * tau to
    (3m * tau, 3n * tau), so two cells share the key (2b - a, 2a - b) mod
    3 * tau exactly when they differ by a master vector, and the key is
    (0, 0) exactly on masters.  Torus identifications are master vectors,
    so canonical coordinates give the keys of the plane.  Each of the
    3 * tau^2 classes costs one ``nearest_masters`` call, on the first cell
    seen in it.  Returns the rule's value per cell id and the master ids.
    """
    nearest = net.geometry.nearest_masters
    t3 = 3 * tau
    table: dict[Coord, object] = {}
    values = []
    masters = []
    for i, (a, b) in enumerate(net.cell_coords):
        key = ((2 * b - a) % t3, (2 * a - b) % t3)
        value = table.get(key)
        if value is None:
            c = (a, b)
            value = table[key] = rule(c, *nearest(c, tau))
        values.append(value)
        if key == (0, 0):
            masters.append(i)
    return values, masters


def _assign_hex(net: Network, D: int, scheme: Scheme) -> Association:
    if scheme is Scheme.NO_COOP:
        roles = [Role.FAST if (a + b) % 3 == 0 else Role.SILENT for a, b in net.cell_coords]
        return Association(net, scheme, D, roles, ())

    tau = scheme_tau(HEX, scheme, D)

    def role(c: Coord, dist: int, hits) -> Role:
        if dist == tau:
            return Role.SILENT
        if scheme.mixed and (c[0] + c[1]) % 3 == 0:  # a + b is periodic mod 3 too
            return Role.FAST
        return Role.SLOW

    roles, masters = _per_class(net, tau, role)  # a hex cell is its own Tx node
    return Association(net, scheme, D, roles, tuple(masters))


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


def _assign_sectored(net: Network, D: int, scheme: Scheme) -> Association:
    if scheme is Scheme.NO_COOP:  # the W sector of every cell is fast, the rest silent
        # sector 3 * i + j is the SECTOR_KINDS[j] sector of cell i
        roles = [Role.FAST if k == "W" else Role.SILENT for k in SECTOR_KINDS] \
            * len(net.cell_coords)
        return Association(net, scheme, D, roles, ())

    tau = scheme_tau(SECTORED, scheme, D)
    active = Role.FAST if scheme.mixed else Role.SLOW

    def sector_roles(c: Coord, dist: int, hits) -> tuple[Role, ...]:
        """The cell's sector roles in ``SECTOR_KINDS`` order."""
        if dist < tau:
            fast = None if not scheme.mixed else _sector_fast_kind(hits[0][1])
            return tuple(Role.FAST if k == fast else Role.SLOW for k in SECTOR_KINDS)
        silenced = _sector_silenced(hits[0][1], tau)  # every nearest master agrees
        return tuple(Role.SILENT if k in silenced else active for k in SECTOR_KINDS)

    per_cell, masters = _per_class(net, tau, sector_roles)
    # sector 3 * i + j is the SECTOR_KINDS[j] sector of cell i
    roles = [role for kind_roles in per_cell for role in kind_roles]
    return Association(net, scheme, D, roles, tuple(masters))


def assign(net: Network, D: int, scheme: Scheme) -> Association:
    """The one assignment entry point: check (model, scheme, D, L) once, run the model's rule."""
    check_params(net.model, scheme, D, net.L)
    rule = {WYNER: _assign_wyner, HEX: _assign_hex, SECTORED: _assign_sectored}[net.model]
    return rule(net, D, scheme)
