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
* A ball or torus with masters (``_lattice_subnets``): the roles and masters
  must be the master lattice's fill (``association._fill_rows``) of base
  rows read off the roles themselves (``_lattice_fill``; on a torus the
  starts of its first rows of ids, ``lattice``).  The template, the component
  of a ball's centre cell (0, 0) or of a torus's master at id 0, is walked
  and must hold that cell alone as its master (every ``assign`` makes it
  one), and the translates must hold every active node.  ``hop`` is the fill
  of the template's hops, one per lattice class of its members (None on the
  silent classes).  On a torus every subnet is a translate of the template,
  its cells moved by each master's place (``lattice.torus_ids``).  On a ball
  each lattice point within radius - R of the centre, R the template's
  extent, holds the template moved by one id shift per row.  The rim is the
  translates that the ball cuts, in classes of one cut pattern: one walk
  from one representative per class finds its pieces, every other copy is
  those moved, and their hops overwrite the fill.  A ball that the template
  spans (R = radius) walks its rim and keeps the hops of its walks.
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
a proof (``Subnets.translates``) it checks both on the classes'
representatives alone, the template first, and on every node only when that
finds a violation.  A report reads its verdicts off its ``(node, code)``
violations.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, groupby, repeat
from operator import add, is_not, itemgetter

from .association import (Association, Role, Scheme, _fill_masters, _fill_rows, scheme_tau,
                          valid_d)
from .lattice import Row, torus_ids
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
    ``translates`` is None after the general walk, and after a proof (see the
    module docstring) a tuple of classes (indices, n): the components ``indices``
    of a representative, whose pieces each of the class's ``n`` copies repeats
    moved.  The template's class, ((template,), copies), comes first: a line's
    whole runs, the subnets of a ball at the master-lattice points in its reach,
    every subnet of a torus, each active node without cooperation.  A ball's cut
    translates of one pattern are a class; a line's tail run, or the walked rim
    of a small ball, is one class of one copy.  The representatives are all that
    ``validate`` and ``message_ledger`` read.  Indexing builds a ``Subnet`` view,
    whose ``gamma`` lists the members in node order (not in BFS order).
    """

    __slots__ = ("assoc", "members", "starts", "masters", "hop", "translates")

    def __init__(self, assoc: Association, members: Sequence[int], starts: Sequence[int],
                 masters: list[int | None], hop: Sequence[int | None],
                 translates: tuple | None = None) -> None:
        self.assoc, self.members, self.starts, self.masters = assoc, members, starts, masters
        self.hop, self.translates = hop, translates

    def __len__(self) -> int:
        return len(self.masters)

    def members_of(self, indices) -> list[int]:
        """The members of the components ``indices``, in that order."""
        members, starts = self.members, self.starts
        return list(chain.from_iterable(members[starts[j]:starts[j + 1]] for j in indices))

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
    if (rows := builder_rows(net)) is not None and len(assoc.roles) == len(net.tx_nodes):
        solved = (_lattice_subnets if assoc.masters or assoc.scheme.cooperative
                  else _cooperation_free)(net, assoc, rows, report)
    elif (K := as_built(net)) is not None:
        solved = _periodic_subnets(net, assoc, K, report)
    else:
        solved = None
    if solved is not None:
        return solved
    report = ValidationReport(report.hop_budget)  # without a failed proof's warnings
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


def _lattice_subnets(net: Network, assoc: Association, rows: tuple[Row, ...],
                     report: ValidationReport) -> tuple[Subnets, ValidationReport] | None:
    """The walk's ``Subnets`` and report on a builder's ball or torus of ``rows``
    (``builder_rows``), for a hexagonal association with masters or a sectorized CoMP-Rx
    one, from one template, the subnet of a ball's centre cell or of a torus's master at id
    0; otherwise None.  The roles and the masters must be the lattice's fill of the base
    rows read off the roles (``_lattice_fill``), the template must hold its cell's master
    alone, and the pieces that ``_ball_translates`` or ``_torus_translates`` finds must
    hold every active node (see the module docstring).  ``hop`` starts as the template's
    hops filled by lattice class (``_template_fill``)."""
    roles, scheme = assoc.roles, assoc.scheme
    if not (assoc.masters and scheme.cooperative
            and (net.model == HEX or scheme.comp_side == "rx")):
        return None
    n = len(net.rx_nodes)
    nk = len(net.tx_nodes) // n  # nodes per cell
    tau = scheme_tau(net.model, scheme, assoc.D) if net.has_rim else net.params["tau"]
    ms = sorted(m for m in set(assoc.masters) if 0 <= m < n)
    if (_lattice_fill(net, rows, roles, tau, nk), _fill_masters(rows, tau)) != (roles, ms):
        return None
    t = n // 2 if net.has_rim else 0  # a ball's centre cell (0, 0); the fill's 0 on a torus
    owner, hop = [None] * len(roles), [None] * len(roles)
    tm, _, tmasters = _walk(net, assoc, ValidationReport(), range(nk * t, nk * t + nk), owner,
                            hop, ms)
    if tmasters != [t]:
        return None
    if net.has_rim:
        cells = [net.cell_coords[k // nk] for k in tm]
    else:  # a torus cell's place: 3 tau M ids per row
        P = 3 * tau * net.params["copies"]
        cells = [divmod(k // nk, P) for k in tm]
    column = _template_fill(rows, tau, nk, tm, cells, hop)
    found = (_ball_translates(net, assoc, rows, t, tau, tm, cells, ms, owner, hop, column, report)
             if net.has_rim else _torus_translates(net, tm, cells, ms))
    if found is None:
        return None
    # every component, in order of its lowest member; a class by its pieces' lowest members
    pieces, classes = found
    pieces.sort(key=itemgetter(0))
    firsts, mems, masters = zip(*pieces)
    starts = array("q", accumulate(map(len, mems), initial=0))
    if starts[-1] != len(roles) - roles.count(Role.SILENT):
        return None  # an active node outside every translate
    at = dict(zip(firsts, range(len(firsts))))
    return Subnets(assoc, list(chain.from_iterable(mems)), starts, list(masters), column,
                   tuple((tuple(map(at.__getitem__, reps)), k) for reps, k in classes)), report


def _cooperation_free(net: Network, assoc: Association, rows: tuple[Row, ...],
                      report: ValidationReport) -> tuple[Subnets, ValidationReport] | None:
    """The walk's ``Subnets`` and report on a builder's ball or torus without masters, each
    active node a subnet, by the lattice rule of spacing 1 (see the module docstring); None
    unless the roles repeat with it and the active nodes of the cell t (a ball's centre) and
    its neighbours are fast and hear only silent nodes."""
    roles, silent, n = assoc.roles, Role.SILENT, len(net.rx_nodes)
    nk, t = len(roles) // n, n // 2
    near = [nk * c + k for c in (t, *net.rx_coop[t]) for k in range(nk)]
    if not (_lattice_fill(net, rows, roles, 1, nk) == roles
            and all(roles[x] is Role.FAST and all(roles[j] is silent for j in net.interference[x])
                    for x in near if roles[x] is not silent)):
        return None
    members = list(compress(net.tx_nodes, map(is_not, roles, repeat(silent))))
    if not (m := len(members)):
        return None
    return Subnets(assoc, members, range(m + 1), [None] * m, [None] * len(roles),
                   (((0,), m),)), report


def _lattice_fill(net: Network, rows: tuple[Row, ...], key: list, tau: int, nk: int) -> list:
    """``association._fill_rows`` along ``rows`` of the tau base rows of 3 tau cells read
    off ``key``, a value per node of a builder's ball or torus of ``rows``: ``key`` repeats
    with the master lattice of spacing tau exactly when it is this fill.

    Base row c, position j, is the value of any cell (a, b) with a % tau == c and (b +
    tau * (a % 3 tau // tau)) % 3 tau == j, the cells the fill gives it.  On a torus these
    include the cells (c, j) that start row c of ids, read as one slice.  On a ball the
    rows of each class are read in order until every position is seen; a position no cell
    of the ball holds is never filled."""
    t3 = 3 * tau
    if not net.has_rim:
        P = 3 * net.params["tau"] * net.params["copies"]
        return _fill_rows(rows, tau, [key[nk * P * c:nk * P * c + nk * t3] for c in range(tau)], nk)
    base = [[None] * (nk * t3) for _ in range(tau)]
    unseen = [set(range(t3)) for _ in range(tau)]
    x = 0  # the first node of row a
    for a, lo, hi in rows:
        row, left, turn = base[a % tau], unseen[a % tau], tau * (a % t3 // tau)
        for b in range(lo, min(hi, lo + t3 - 1) + 1) if left else ():
            j, y = (b + turn) % t3, x + nk * (b - lo)
            row[nk * j:nk * j + nk] = key[y:y + nk]
            left.discard(j)
        if not any(unseen):
            break
        x += nk * (hi - lo + 1)
    return _fill_rows(rows, tau, base, nk)


def _template_fill(rows: tuple[Row, ...], tau: int, nk: int, tm: list[int], cells: list,
                   hop: list) -> list:
    """``association._fill_rows`` of the hops of the template's members ``tm``, in
    ``cells``, at their classes and None at every other class: the hop of each translate's
    members, as the template's members are one per class of the active nodes."""
    t3 = 3 * tau
    base = [[None] * (nk * t3) for _ in range(tau)]
    for k, (a, b) in zip(tm, cells):
        base[a % tau][nk * ((b + tau * (a % t3 // tau)) % t3) + k % nk] = hop[k]
    return _fill_rows(rows, tau, base, nk)


def _torus_translates(net: Network, tm: list[int], cells: list, ms: list[int]) -> tuple:
    """(pieces, classes) of a builder's torus, as ``_ball_translates``: every subnet is the
    template ``tm``, whose members lie in ``cells``, moved to one of the masters ``ms``, and
    the template's class is the one class.  The template moved to master m has its members'
    cells moved by m's place ``divmod(m, 3 tau M)`` (``lattice.torus_ids``)."""
    nk, mt = len(net.tx_nodes) // len(net.rx_nodes), net.params["tau"] * net.params["copies"]
    nodes, kinds, pieces = net.tx_nodes, [k % nk for k in tm], []
    for m in ms:
        mem = [nodes[nk * i + kind]
               for i, kind in zip(torus_ids(cells, mt, divmod(m, 3 * mt)), kinds)]
        mem.sort()
        pieces.append((mem[0], mem, m))
    return pieces, [([tm[0]], len(pieces))]


def _ball_lattice(tm: list[int], cells: list, bases: list[int], radius: int, R: int,
                 tau: int, nk: int) -> tuple[list, dict]:
    """The whole translates of the template ``tm``, whose members lie in ``cells`` within R
    of the centre, on a ball of ``radius`` > R, each as (lowest member, members, master),
    and every other lattice point (a, b) with |a|, |b| <= radius + R, by its key: its six
    side distances radius -+ a, radius -+ b and radius -+ (a - b), each clamped to [-R - 1,
    R] (``_ball_translates``).  Cell (a, b) has id ``bases[a + radius] + b``."""
    t3, inner, outer = 3 * tau, radius - R, radius + R
    trows = [(a + radius, len(list(g))) for a, g in groupby(cells, itemgetter(0))]  # (index, count)
    o = 2 * outer  # side[o + v] is radius - v clamped, for v = +-a, +-b, +-(a - b)
    side = [min(max(radius - v, -R - 1), R) for v in range(-o, o + 1)]
    pieces, cut = [], {}
    for a in range(-(outer // tau) * tau, outer + 1, tau):  # the lattice points a row at a time
        lo = max(-inner, a - inner)
        hi = min(inner, a + inner) if abs(a) <= inner else lo - 1  # the whole translates' b
        if lo <= hi:  # the template moved to row a, each member by its row's id shift, then by b
            moved = list(map(add, tm, chain.from_iterable(
                repeat(nk * (bases[r + a] - bases[r]), c) for r, c in trows)))
            whole = range(lo + (2 * a - lo) % t3, hi + 1, t3)
            mems = [[k + x for k in moved]
                    for x in range(nk * whole.start, nk * whole.stop, nk * t3)]
            pieces += zip([mem[0] for mem in mems], mems, [bases[a + radius] + b for b in whole])
        for b in range(-outer + (2 * a + outer) % t3, outer + 1, t3):
            if not lo <= b <= hi:
                cut.setdefault((side[o + a], side[o - a], side[o + b], side[o - b],
                                side[o + a - b], side[o - a + b]), []).append((a, b))
    return pieces, cut


def _ball_translates(net: Network, assoc: Association, rows: tuple[Row, ...], t: int,
                     tau: int, tm: list[int], cells: list, ms: list[int],
                     owner: list[int | None], hop: list[int | None], column: list,
                     report: ValidationReport) -> tuple | None:
    """(pieces, classes) of a builder's ball whose roles and masters are the lattice's fill:
    the (lowest member, members, master) of every component, and its classes, each (its
    representative's pieces' lowest members, its number of copies), the template's first;
    None unless the rim is proven.

    So the roles on the ball are periodic modulo the lattice, and a master sits at every
    lattice point and nowhere else.  Let R be the largest |x| of a member x of the template
    ``tm``, whose cells are ``cells`` (|.| the hex norm).  When R < radius, each neighbour
    of a member lies in the ball, and one that is not a member is silent, as the template's
    walk stopped there: on the plane of these roles the template is a component with one
    master, and so is its translate by each lattice vector m.  The ball's edges are the
    plane's among its cells, so each component of the ball is a piece of one translate cut
    by the ball, to its members x + m with |x + m| <= radius, once the translates hold every
    active node (``_lattice_subnets`` counts them).  Nothing is cut when |m| <= radius - R.
    Otherwise the cut is fixed by m = (a, b)'s six side distances radius -+ a, radius -+ b
    and radius -+ (a - b), each clamped to [-R - 1, R]: a member's coordinates lie in [-R,
    R], so R keeps every member on that side and -R - 1 none.  The lattice points with |a|,
    |b| <= radius + R fall into classes of equal clamped distances.  One walk from the cut
    members of each class's first point, its representative, finds the class's pieces,
    masters and hops, and every other copy is these moved by one id shift per row.  A
    violation in that walk, or a piece that reaches past its cut, takes the whole walk.
    When R is the radius the template is the one translate, and the walk finds the rest:
    one class of one copy.

    The rim pieces' hops are written into ``column``, the template's hops filled by lattice
    class; a ball that its template spans takes the walks' ``hop``.  Cell (a, b) has id
    ``bases[a + radius] + b``: the first ids less the lo of the ``rows`` a = -radius ..
    radius, in id order.
    """
    radius, nk = net.params["radius"], len(net.tx_nodes) // len(net.rx_nodes)
    R = max(max(abs(a), abs(b), abs(a - b)) for a, b in cells)  # the members' extent
    for k in tm:  # an edge into the template is a cross pair of the walks below
        owner[k] = -1
    if R == radius:  # the template reaches the rim: the walk finds the rest
        rm, rs, rmasters = _walk(net, assoc, report, net.tx_nodes, owner, hop,
                                 [m for m in ms if m != t])
        column[:] = hop
        rim = [(rm[rs[j]], rm[rs[j]:rs[j + 1]], rmasters[j]) for j in range(len(rmasters))]
        return [(tm[0], tm, t), *rim], [([tm[0]], 1)] + [([p[0] for p in rim], 1)] * bool(rim)

    bases = [s - lo for s, (_, lo, _) in zip(net.cell_coords.starts, rows)]
    pieces, cut = _ball_lattice(tm, cells, bases, radius, R, tau, nk)

    # each class's representative, its first point: its kept members, each with its row
    coords = [(x, y, x - y, k % nk) for k, (x, y) in zip(tm, cells)]
    reps, nodes, masters, classes = [], [], [], [([tm[0]], len(pieces))]
    for (x1, x0, y1, y0, d1, d0), points in cut.items():  # kept: -x0 <= x <= x1, ...
        (a, b), kept = points[0], {}
        for x, y, d, kind in coords:
            if -x0 <= x <= x1 and -y0 <= y <= y1 and -d0 <= d <= d1:
                kept[nk * (bases[x + a + radius] + y + b) + kind] = x + a + radius
        if kept:
            reps.append((points, kept))
            nodes += kept
            if -x0 <= 0 <= x1 and -y0 <= 0 <= y1 and -d0 <= 0 <= d1:  # the master's cell
                masters.append(bases[a + radius] + b)
    walked = ValidationReport()
    rm, rs, rmasters = _walk(net, assoc, walked, nodes, owner, hop, sorted(masters))
    if walked.violations or len(rm) != len(nodes):
        return None

    # a class's pieces are the components from its first node's on; each moves to every point
    first = [owner[next(iter(kept))] for _, kept in reps] + [len(rmasters)]
    partial = []
    for (points, row), j0, j1 in zip(reps, first, first[1:]):
        a0, b0 = points[0]
        for j in range(j0, j1):
            mem = rm[rs[j]:rs[j + 1]]
            g, master = [hop[k] for k in mem], rmasters[j]
            runs = [(r, len(list(run))) for r, run in groupby(mem, row.__getitem__)]
            for a, b in points:  # the piece moved by (a - a0, b - b0), the representative's too
                copy = list(map(add, mem, chain.from_iterable(
                    repeat(nk * (bases[r + a - a0] - bases[r] + b - b0), c) for r, c in runs)))
                for k, x in zip(copy, g):
                    column[k] = x
                if master is None:
                    partial.append(copy[0])
                pieces.append((copy[0], copy, None if master is None else bases[a + radius] + b))
        classes.append(([rm[rs[j]] for j in range(j0, j1)], len(points)))
    report.warnings += [f"partial-subnet:{k}" for k in sorted(partial)]
    return pieces, classes


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
                   (((0,), whole), ((whole,), 1))[:1 + (len(masters) > whole)]), report


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
    and representatives' members (if not None) when that finds none: a check that finds
    nothing there finds nothing in their copies either."""
    if proven is not None and not (found := check(proven)):
        return found
    return check(every)


def validate(net: Network, assoc: Association) -> tuple[Subnets, ValidationReport]:
    """Run all structural checks into the decomposition's report: the fast-independence
    violations first, the hop-budget ones last.  A proof the decomposition found spares
    both checks the translates."""
    subnets, report = subnet_decompose(net, assoc)
    proven = (t := subnets.translates) and subnets.members_of(
        chain.from_iterable(reps for reps, _ in t))
    report.violations[:0] = _proven_first(proven, net.tx_nodes,
                                          partial(_fast_violations, net, assoc))
    report.violations += _proven_first(proven, subnets.members,
                                       partial(_over_budget, subnets, report.hop_budget))
    return subnets, report
