"""Structural checks for an association: fast independence, subnet decomposition,
hop distances to the masters, and the hop budget the conferencing rounds allow.

An association is sound when

* no fast transmitter interferes at any fast receiver,
* silencing decomposes the active nodes into non-interfering subnets,
* each subnet owns exactly one master, and every slow node reaches it over
  the cooperation graph within the hop budget: half the CoMP side's rounds
  in ``check_round_split``, for a gather and a scatter phase.  A mixed
  scheme gives one round to the opposite side, so its D-1 rounds allow
  D/2 - 1 hops; the slow-only scheme's D rounds allow D/2.

Finite line/ball instances may contain clipped subnets at the network rim;
those are reported as warnings, not violations, and are excluded from the
reachability check when they lack a master.

One BFS over the active interference graph finds the components and, on the
edges it already walks, any interference between two of them.  A second BFS
per mastered component counts the cooperation hops from its master over the
component's cells; ``message_ledger`` routes each cell's traffic from these
hops alone.  ``subnet_decompose`` returns them as one columnar ``Subnets``.

A network that its builder returned unchanged (``topology.as_built``,
``topology.builder_rows``) has its builder's graph, so only the association
is checked before most of the walk is spared:

* A line of K >= 2P nodes, P = D + 2 (2 without cooperation), whose roles
  are the periodic extension of their own first period (one compare per
  chunk of P * (4096 // P) roles), whose whole runs of P - 1 nodes have
  one master each, at one offset, and whose run 0 walks as the nodes
  1..P-1: the whole runs repeat run 0's hops, and the shorter tail run has
  no master.  Its members and hops are computed from P, K and run 0's
  hops, not listed.
* A ball: the component of its centre cell (0, 0), the template, is
  walked and must hold that cell alone as its master (every ``assign``
  makes it one).  The roles and masters must be the master lattice's fill
  (``association._fill_rows``) of base rows read off the roles themselves
  (``_lattice_fill``); each lattice point within radius - R of the centre, R
  the template's extent, holds the template moved by one id shift per row.
  The walk covers the rim.
* A torus: every subnet is a translate of the template, the subnet of the
  master at id 0.  The roles and masters must be the fill of base rows read
  off the roles, as on a ball (on a torus the starts of its first rows of
  ids, ``lattice``), and the translates must hold every active node; their
  members are the template's cells moved by each master's place
  (``lattice.torus_ids``).
* A ball or torus without masters or cooperation: each active node is a
  subnet, a translate of the first, if the roles repeat with the lattice of
  spacing 1, whose classes are a + b mod 3 (the roles are the fill of
  their own base row), and the active nodes of the centre cell t (any cell
  of a torus) and its neighbours, which meet every class, are fast and hear
  only silent nodes.  Repeating roles depend on the class and node kind
  alone, so each active node and its neighbours have the roles of a checked
  node and its neighbours, which lie in the ball when its radius is at
  least 2; a smaller ball is t and its neighbours.

Any failed check takes the whole walk, so the violations and their order
are always the walk's.  ``validate``, the one check of an association, puts
the fast-independence violations first and the hop-budget ones last; after
a proof (``Subnets.translates``) it checks both on the template and the rim
alone, and on every node only when that finds a violation.  A report reads
its verdicts off its ``(node, code)`` violations.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, groupby, repeat
from operator import add, is_not, itemgetter

from .association import Association, Role, Scheme, _fill_rows, scheme_tau, valid_d
from .lattice import torus_ids
from .topology import HEX, WYNER, Network, _Computed, as_built, builder_rows


@dataclass(slots=True)
class Subnet:
    members: tuple[int, ...]              # active Tx nodes of one component
    master: int | None                    # Rx id (CoMP reception) or Tx id (transmission)
    gamma: dict[int, int]                 # member -> cooperation hops to the master
    slow_members: tuple[int, ...] = ()


class Subnets(Sequence):
    """The components of one association, as columns.

    Component ``i`` is ``members[starts[i]:starts[i + 1]]`` (sorted) with
    master ``masters[i]`` (None when it has none).  ``hop[k]`` is node k's
    hop count to its own master (its cell's, over the CoMP side's
    cooperation graph within the component's cells), None without a master
    or a path.  ``members`` and ``hop`` are lists indexed by position and id,
    or, on a proven line, computed sequences that index, slice (to lists) and
    compare like them.  ``assoc`` is the association the columns were built from.
    ``translates`` is None after the general walk, and (template, copies,
    rim) after a proof (see the module docstring): component ``template``
    and ``copies - 1`` others (a line's whole runs, the subnets of a ball
    at the master-lattice points in its reach, every subnet of a torus) are
    translates of one another, and those listed in ``rim`` are the others.
    The template and the rim are all that ``validate`` and
    ``message_ledger`` read.  Indexing builds a ``Subnet`` view, whose
    ``gamma`` lists the members in node order (not in BFS order).
    """

    __slots__ = ("assoc", "members", "starts", "masters", "hop", "translates")

    def __init__(self, assoc: Association, members: Sequence[int], starts: Sequence[int],
                 masters: list[int | None], hop: Sequence[int | None],
                 translates: tuple | None = None) -> None:
        self.assoc, self.members, self.starts, self.masters = assoc, members, starts, masters
        self.hop, self.translates = hop, translates

    def __len__(self) -> int:
        return len(self.masters)

    def template_and_rim(self) -> tuple[list[int], list[int]]:
        """The template's members and the rim's members of proven columns."""
        template, _, rim = self.translates
        members, starts = self.members, self.starts
        return (members[starts[template]:starts[template + 1]],
                list(chain.from_iterable(members[starts[j]:starts[j + 1]] for j in rim)))

    def __getitem__(self, i: int) -> Subnet:
        """A ``Subnet`` view of component ``i``, built on each call, with
        ``gamma`` in node order."""
        i = range(len(self.masters))[i]  # negative indices; IndexError past the end
        comp = self.members[self.starts[i]:self.starts[i + 1]]
        roles = self.assoc.roles
        return Subnet(tuple(comp), self.masters[i],
                      {k: g for k, g in zip(comp, map(self.hop.__getitem__, comp))
                       if g is not None},
                      tuple([k for k in comp if roles[k] is Role.SLOW]))


# The violation codes behind each verdict, by prefix: a verdict holds when no
# violation's code starts with one of its prefixes.
_VERDICTS = {
    "fast_independent": ("fast-interference",),
    "subnets_disjoint": ("multi-master", "cross-subnet"),
    "master_reachable": ("no-master", "unreachable", "hop-budget"),
}


@dataclass
class ValidationReport:
    """The violations ``(node, code)`` and warnings of the checks; every verdict,
    ``ok`` included, is read off the violations."""

    hop_budget: int = 0
    violations: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def _holds(self, verdict: str) -> bool:
        prefixes = _VERDICTS[verdict]
        return not any(code.startswith(prefixes) for _, code in self.violations)

    fast_independent = property(lambda self: self._holds("fast_independent"))
    subnets_disjoint = property(lambda self: self._holds("subnets_disjoint"))
    master_reachable = property(lambda self: self._holds("master_reachable"))
    ok = property(lambda self: not self.violations)

    def to_json_dict(self) -> dict:
        return {
            **{verdict: self._holds(verdict) for verdict in _VERDICTS},
            "hop_budget": self.hop_budget,
            "violations": [{"node": n, "code": c} for n, c in self.violations],
            "warnings": list(self.warnings),
        }


def check_round_split(scheme: Scheme, D: int) -> tuple[int, int]:
    """Conferencing rounds (d_tx, d_rx) used by each scheme, with d_tx + d_rx <= D:
    a mixed scheme gives one round to the side opposite its CoMP side."""
    if D < valid_d(WYNER, scheme)[0]:  # a scheme's least D is the same on every model
        raise ValueError(f"D={D} is too small for {scheme.value}")
    if not scheme.cooperative:
        return (0, 0)
    other = int(scheme.mixed)
    return (D - other, other) if scheme.comp_side == "tx" else (other, D - other)


def hop_budget(scheme: Scheme, D: int) -> int:
    """Hops to the master: half the CoMP side's rounds, to gather and to scatter."""
    return max(check_round_split(scheme, D)) // 2


def _require_same_net(net: Network, assoc: Association) -> None:
    if assoc.net is not net:
        raise ValueError("association was built for a different network")


def _fast_violations(net: Network, assoc: Association, nodes) -> list[tuple[int, str]]:
    """The fast-interference violations of the fast nodes among ``nodes``."""
    roles, fast, adj = assoc.roles, Role.FAST, net.interference
    return [(k, f"fast-interference-from-{j}") for k in nodes if roles[k] is fast
            for j in adj[k] if roles[j] is fast]


def subnet_decompose(net: Network, assoc: Association) -> tuple[Subnets, ValidationReport]:
    """Connected components of the active interference graph, with masters and hop counts.

    Components are searched from the lowest unowned active node, in node
    order.  The search also checks that no component hears another: an
    active neighbour outside the component being searched can only belong
    to an earlier one (a later one would have joined it), so every such
    edge is seen, from its later end.  These violations come last, in node
    order, then adjacency order.  A proof (see the module docstring) spares
    a builder's network all or most of the walk.
    """
    _require_same_net(net, assoc)
    report = ValidationReport(hop_budget=hop_budget(assoc.scheme, assoc.D))
    if builder_rows(net) is not None and len(assoc.roles) == len(net.tx_nodes):
        solved = (_lattice_subnets if assoc.masters or assoc.scheme.cooperative
                  else _cooperation_free)(net, assoc, report)
    elif (K := as_built(net)) is not None:
        solved = _periodic_subnets(net, assoc, K, report)
    else:
        solved = None
    if solved is not None:
        return solved
    n = len(assoc.roles)
    hop: list[int | None] = [None] * n
    members, starts, masters = _walk(net, assoc, report, net.tx_nodes, [None] * n, hop,
                                     sorted(set(assoc.masters)))
    return Subnets(assoc, members, starts, masters, hop), report


def _walk(net: Network, assoc: Association, report: ValidationReport, nodes,
          owner: list[int | None], hop: list[int | None], master_ids: list[int]) -> tuple:
    """The walk over the components found from ``nodes``, in order, skipping the nodes
    ``owner`` marks (an edge into one is a cross pair), with the sorted ``master_ids`` as
    masters; fills ``owner`` and ``hop``, adds violations, the cross pairs' last, and
    warnings to ``report``, and returns the columns (members, starts, masters)."""
    roles, silent = assoc.roles, Role.SILENT
    # hops run over the cells of the CoMP side, within the component's cells
    adj, coop = net.interference, net.tx_coop if assoc.scheme.comp_side == "tx" else net.rx_coop
    members: list[int] = []
    starts = array("q", [0])
    cross = []
    for start in nodes:
        if owner[start] is not None or roles[start] is silent:
            continue
        i = len(starts) - 1
        owner[start] = i
        comp = [start]
        for u in comp:  # breadth first: comp grows behind the cursor
            for v in adj[u]:
                o = owner[v]
                if o is None:
                    if roles[v] is not silent:
                        owner[v] = i
                        comp.append(v)
                elif o != i:
                    cross.append((u, v))
        comp.sort()
        members += comp
        starts.append(len(members))

    # masters: each component takes its lowest master cell; a second one is a violation
    tx_cell = net.tx_cell
    own = isinstance(tx_cell, range) and tx_cell.start == 0 and tx_cell.step == 1
    masters: list[int | None] = [None] * (len(starts) - 1)
    second: dict[int, int] = {}
    if own:  # a master is its own cell's only node
        found = ((m, owner[m]) for m in master_ids if 0 <= m < len(owner))
    else:
        master_set = set(master_ids)
        found = sorted({(c, owner[k]) for k in members if (c := tx_cell[k]) in master_set})
    for m, i in found:
        if i is None or i in second:
            continue
        if masters[i] is None:
            masters[i] = m
        else:
            second[i] = m
            masters[i] = None

    if own:  # a cell is its node: the search marks the per-node lists
        cell_owner, cell_hop = owner, hop
    else:
        cell_owner, cell_hop = [None] * len(coop), [None] * len(coop)
    cooperative = assoc.scheme.cooperative
    for i, master in enumerate(masters if cooperative or master_ids else ()):
        comp = members[starts[i]:starts[i + 1]]
        if master is None:
            if i in second:
                report.violations.append((second[i], "multi-master"))
            elif cooperative:
                if net.has_rim:
                    report.warnings.append(f"partial-subnet:{comp[0]}")
                else:
                    report.violations.append((comp[0], "no-master"))
            continue
        if not own:
            for k in comp:
                cell_owner[tx_cell[k]] = i
        cell_hop[master] = 0
        cells = [master]
        for u in cells:  # breadth first
            g = cell_hop[u] + 1
            for v in coop[u]:
                if cell_owner[v] == i and cell_hop[v] is None:
                    cell_hop[v] = g
                    cells.append(v)
        if not own:
            for k in comp:
                hop[k] = cell_hop[tx_cell[k]]
            for c in cells:  # a cell may lie in a later component's search too
                cell_hop[c] = None
        if not own or len(cells) < len(comp):
            for k in comp:
                if hop[k] is None:
                    report.violations.append((k, "unreachable"))
    cross.sort(key=itemgetter(0))  # stable: keeps adjacency order per node
    report.violations += [(u, f"cross-subnet-interference-{v}") for u, v in cross]
    return members, starts, masters


def _lattice_subnets(net: Network, assoc: Association,
                     report: ValidationReport) -> tuple[Subnets, ValidationReport] | None:
    """The walk's ``Subnets`` and report on a builder's ball or torus, from one template
    (the subnet of a ball's centre cell, of a torus's lowest master), its translates and,
    on a ball, the rim (see the module docstring), for a hexagonal association with
    masters or a sectorized CoMP-Rx one; otherwise None."""
    roles, scheme = assoc.roles, assoc.scheme
    if not (assoc.masters and scheme.cooperative
            and (net.model == HEX or scheme.comp_side == "rx")):
        return None
    n = len(net.rx_nodes)
    nk = len(net.tx_nodes) // n  # nodes per cell
    if not (ms := sorted(m for m in set(assoc.masters) if 0 <= m < n)):
        return None
    t = n // 2 if net.has_rim else ms[0]  # a ball's centre cell (0, 0); the fill's 0 on a torus
    owner, hop = [None] * len(roles), [None] * len(roles)
    tm, _, tmasters = _walk(net, assoc, ValidationReport(), range(nk * t, nk * t + nk), owner,
                            hop, ms)
    if tmasters != [t]:
        return None
    pieces = (_ball_translates(net, assoc, t, tm, ms, owner, hop, report) if net.has_rim
              else _torus_translates(net, assoc, t, tm, ms, hop))
    if pieces is None:
        return None
    # every component, rim (0), translate (1) or template (2), in order of its lowest member
    pieces.sort(key=itemgetter(0))
    _, kind, mems, masters = zip(*pieces)
    return Subnets(assoc, list(chain.from_iterable(mems)),
                   array("q", accumulate(map(len, mems), initial=0)), list(masters), hop,
                   (kind.index(2), kind.count(1) + 1,
                    tuple(i for i, x in enumerate(kind) if not x))), report


def _cooperation_free(net: Network, assoc: Association,
                      report: ValidationReport) -> tuple[Subnets, ValidationReport] | None:
    """The walk's ``Subnets`` and report on a builder's ball or torus without masters, each
    active node a subnet, by the lattice rule of spacing 1 (see the module docstring); None
    unless the roles repeat with it and the active nodes of the cell t (a ball's centre) and
    its neighbours are fast and hear only silent nodes."""
    roles, silent, n = assoc.roles, Role.SILENT, len(net.rx_nodes)
    nk, t = len(roles) // n, n // 2
    near = [nk * c + k for c in (t, *net.rx_coop[t]) for k in range(nk)]
    if not (_lattice_fill(net, roles, 1, nk)[0] == roles
            and all(roles[x] is Role.FAST and all(roles[j] is silent for j in net.interference[x])
                    for x in near if roles[x] is not silent)):
        return None
    members = list(compress(net.tx_nodes, map(is_not, roles, repeat(silent))))
    if not (m := len(members)):
        return None
    return Subnets(assoc, members, range(m + 1), [None] * m, [None] * len(roles),
                   (0, m, ())), report


def _lattice_fill(net: Network, key: list, tau: int, nk: int) -> tuple[list, list[int]]:
    """``association._fill_rows`` of the tau base rows of 3 tau cells read off ``key``, a
    value per node of a builder's ball or torus: ``key`` repeats with the master lattice of
    spacing tau exactly when it is the first list, and the master flags when the masters
    are the second.

    Base row c, position j, is the value of any cell (a, b) with a % tau == c and (b +
    tau * (a % 3 tau // tau)) % 3 tau == j, the cells the fill gives it.  On a torus these
    include the cells (c, j) that start row c of ids, read as one slice.  On a ball the
    rows of each class are read in order until every position is seen; a position no cell
    of the ball holds is never filled."""
    t3 = 3 * tau
    if not net.has_rim:
        P = 3 * net.params["tau"] * net.params["copies"]
        return _fill_rows(net, tau, [key[nk * P * c:nk * P * c + nk * t3] for c in range(tau)], nk)
    base = [[None] * (nk * t3) for _ in range(tau)]
    unseen = [set(range(t3)) for _ in range(tau)]
    x = 0  # the first node of row a
    for a, lo, hi in builder_rows(net):
        row, left, turn = base[a % tau], unseen[a % tau], tau * (a % t3 // tau)
        for b in range(lo, min(hi, lo + t3 - 1) + 1) if left else ():
            j, y = (b + turn) % t3, x + nk * (b - lo)
            row[nk * j:nk * j + nk] = key[y:y + nk]
            left.discard(j)
        if not any(unseen):
            break
        x += nk * (hi - lo + 1)
    return _fill_rows(net, tau, base, nk)


def _torus_translates(net: Network, assoc: Association, t: int, tm: list[int], ms: list[int],
                      hop: list[int | None]) -> list | None:
    """The (lowest member, 1 or 2 for the template t, members, master) of every subnet of a
    builder's torus, ``tm`` moved by a master-lattice vector, with hops; None unless the
    roles and the masters are the lattice's fill of the base rows read off the roles
    (``_lattice_fill``) and the translates hold every active node.

    The fill puts a master at id 0, so t is 0, and the template moved to master m has its
    members' cells moved by m's place ``divmod(m, P)`` (``lattice.torus_ids``)."""
    roles, tau, M = assoc.roles, net.params["tau"], net.params["copies"]
    nk, mt, P = len(net.tx_nodes) // len(net.rx_nodes), tau * M, 3 * tau * M
    if _lattice_fill(net, roles, tau, nk) != (roles, ms):
        return None
    if M * M * len(tm) != len(roles) - roles.count(Role.SILENT):
        return None  # an active node outside every translate
    cells, kinds = [divmod(k // nk, P) for k in tm], [k % nk for k in tm]
    thop, nodes, pieces = [hop[k] for k in tm], net.tx_nodes, []
    for m in ms:
        mem = [nodes[nk * i + kind] for i, kind in zip(torus_ids(cells, mt, divmod(m, P)), kinds)]
        for k, g in zip(mem, thop):
            hop[k] = g
        mem.sort()
        pieces.append((mem[0], 2 if m == t else 1, mem, m))
    return pieces


def _ball_translates(net: Network, assoc: Association, t: int, tm: list[int], ms: list[int],
                     owner: list[int | None], hop: list[int | None],
                     report: ValidationReport) -> list | None:
    """The (lowest member, 0 on the rim, 1, or 2 for the template t, members, master) of
    every component of a builder's ball: ``tm`` moved by each master-lattice vector m with
    |m| <= radius - R (|.| the hex norm, R the largest |x| of a member), and the rim, which
    the walk finds; None unless the roles and the masters are the lattice's fill of the
    base rows read off the roles (``_lattice_fill``).

    Then the roles on the ball are periodic modulo the lattice, and a master sits at every
    lattice point and nowhere else.  A member x moves to x + m, with |x + m| <= R + |m| <=
    radius, so it lies in the ball and has x's role.  When m != 0, R < radius, so each
    neighbour y of a member lies in the ball; one that is not a member is silent, as the
    template's walk stopped there, and y + m is silent too or outside the ball.  So each
    translate has the template's roles, hops and silent border: it is a component with
    one master.

    Cell (a, b) has id ``bases[a + radius] + b``: the first ids less the lo of the rows
    a = -radius .. radius of ``builder_rows``, in id order.
    """
    roles, radius = assoc.roles, net.params["radius"]
    tau, nk = scheme_tau(net.model, assoc.scheme, assoc.D), len(net.tx_nodes) // len(net.rx_nodes)
    if _lattice_fill(net, roles, tau, nk) != (roles, ms):
        return None
    bases = [s - lo for s, (_, lo, _) in zip(net.cell_coords.starts, builder_rows(net))]

    cells = [net.cell_coords[k // nk] for k in tm]
    R = max(max(abs(a), abs(b), abs(a - b)) for a, b in cells)  # the members' extent
    rows = [(a + radius, len(list(g))) for a, g in groupby(cells, itemgetter(0))]  # (index, count)
    reach, thop, pieces = radius - R, [hop[k] for k in tm], []
    for a in range(-(reach // tau) * tau, reach + 1, tau):  # the lattice points a row at a time
        # the template moved to row a, each member by its row's id shift; then along it by b
        moved = list(map(add, tm, chain.from_iterable(repeat(nk * (bases[r + a] - bases[r]), c)
                                                       for r, c in rows)))
        lo = max(-reach, a - reach)
        for b in range(lo + (2 * a - lo) % (3 * tau), min(reach, a + reach) + 1, 3 * tau):
            mem = list(map(add, moved, repeat(nk * b)))
            for k, g in zip(mem, thop):
                owner[k] = -1
                hop[k] = g
            m = bases[a + radius] + b
            pieces.append((mem[0], 2 if m == t else 1, mem, m))

    rim = sorted(set(ms).difference([piece[3] for piece in pieces]))
    rm, rs, rmasters = _walk(net, assoc, report, net.tx_nodes, owner, hop, rim)
    return pieces + [(rm[rs[j]], 0, rm[rs[j]:rs[j + 1]], rmasters[j]) for j in range(len(rmasters))]


def _periodic_subnets(net: Network, assoc: Association, K: int,
                      report: ValidationReport) -> tuple[Subnets, ValidationReport] | None:
    """The walk's columns and report on a builder's line of K nodes, from the walk of
    run 0, or None unless the roles and masters repeat with a period P, node P is
    silent and the walk from node 1 is the nodes 1..P-1.

    The roles 1..K must be the periodic extension of their own first period: the first
    C = P * (4096 // P) of them repeat with P, and every later chunk of C, the last cut
    short, equals them (one C-speed compare per chunk, none K long).  Run ``j`` holds
    the nodes ``j * P + 1 .. j * P + P - 1``.  The members and hops are computed from P,
    K and run 0's hops (``_RunMembers``, ``_RunHops``), so nothing here is K long;
    ``starts`` is a ``range`` unless a tail run (shorter than P - 1 nodes, without a
    master) follows the whole ones.
    """
    roles, cooperative = assoc.roles, assoc.scheme.cooperative
    P = assoc.D + 2 if cooperative else 2
    C = P * (4096 // P or 1)  # a whole number of periods, at least one
    first, end = roles[1:1 + C], 1 + K // C * C  # the chunks from x < end are whole
    if not (K >= 2 * P and len(roles) == K + 1 and first[P:] == first[:-P]
            and all(roles[x:x + C] == first for x in range(1 + C, end, C))
            and roles[end:] == first[:K + 1 - end]):
        return None
    if cooperative:  # one master per whole run, all at one offset
        m0 = assoc.masters[0] if assoc.masters else 0
        if not 0 < m0 < P or assoc.masters != tuple(range(m0, m0 + P * ((K + 1) // P), P)):
            return None
    elif assoc.masters:
        return None
    if roles[P] is not Role.SILENT:  # so that the walk of run 0 stays within nodes 0..P
        return None
    hop: list[int | None] = [None] * (P + 1)
    tm, _, _ = _walk(net, assoc, ValidationReport(), (1,), [None] * (P + 1), hop,
                     list(assoc.masters[:1]))
    if tm != list(range(1, P)):  # so nodes 1..P-1 are active
        return None
    whole = (K + 1) // P
    n = whole * (P - 1)  # members of the whole runs
    members = _RunMembers((P, K))
    starts: Sequence[int] = range(0, n + 1, P - 1)
    masters: list[int | None] = list(assoc.masters) or [None] * whole
    if len(members) > n:  # the tail run, clipped by the rim
        starts = array("q", starts)
        starts.append(len(members))
        masters.append(None)
        report.warnings.append(f"partial-subnet:{whole * P + 1}")
    return Subnets(assoc, members, starts, masters, _RunHops(((None, *hop[1:P]), K)),
                   (0, whole, tuple(range(whole, len(masters))))), report


class _RunMembers(_Computed):
    """Column ``members`` of a proven line, from (P, K): the nodes 1..K but the silent
    multiples of P, so that item i is node j P + r + 1 of run j = i // (P - 1), r = i %
    (P - 1), that is i + j + 1; the tail run follows the whole ones.  Slices are lists."""

    __slots__ = ("args",)
    _kind = list

    def __len__(self) -> int:
        P, K = self.args
        return K - K // P

    def _item(self, i: int) -> int:
        return i + i // (self.args[0] - 1) + 1


class _RunHops(_Computed):
    """Column ``hop`` of a proven line, from (run, K), ``run`` the hops of nodes 0..P-1
    (None at node 0): node k of a whole run has run 0's hop ``run[k % P]``, None on the
    silent multiples of P, and the last silent node and the tail run, from ``whole * P``
    on, have none.  Slices are lists."""

    __slots__ = ("args", "run", "P", "end")
    _kind = list

    def __init__(self, args: tuple[tuple, int]) -> None:
        run, K = args
        P = len(run)
        super().__init__(args, run, P, (K + 1) // P * P)

    def __len__(self) -> int:
        return self.args[1] + 1

    def _item(self, k: int) -> int | None:
        return self.run[k % self.P] if k < self.end else None


def _over_budget(subnets: Subnets, budget: int, nodes) -> list[tuple[int, str]]:
    """The hop-budget violations of the slow nodes among ``nodes``.  A member with no
    cooperation path has no hop; the walk reports it as unreachable, so it is skipped."""
    hop, roles, slow = subnets.hop, subnets.assoc.roles, Role.SLOW
    return [(k, f"hop-budget-exceeded-{g}>{budget}") for k in nodes
            if (g := hop[k]) is not None and g > budget and roles[k] is slow]


def _proven_first(proven, every, check) -> list[tuple[int, str]]:
    """``check``'s violations over ``every``, or over the ``proven`` columns' template
    and rim members (if not None) when that finds none: a check that finds nothing
    there finds nothing in the translates either."""
    if proven is not None and not (found := check(proven)):
        return found
    return check(every)


def validate(net: Network, assoc: Association) -> tuple[Subnets, ValidationReport]:
    """Run all structural checks into the decomposition's report: the fast-independence
    violations first, the hop-budget ones last.  A proof the decomposition found spares
    both checks the translates."""
    subnets, report = subnet_decompose(net, assoc)
    proven = subnets.translates and list(chain.from_iterable(subnets.template_and_rim()))
    report.violations[:0] = _proven_first(proven, net.tx_nodes,
                                          partial(_fast_violations, net, assoc))
    report.violations += _proven_first(proven, subnets.members,
                                       partial(_over_budget, subnets, report.hop_budget))
    return subnets, report
