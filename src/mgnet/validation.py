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
hops alone.  Where a node is its own cell (``tx_cell`` is the identity range:
Wyner, hex), that search marks the per-node lists directly; only the
sectorized model maps sectors to cells, through scratch lists that are reset
after each search.

``subnet_decompose`` returns one columnar ``Subnets``, which ``message_ledger``
reads and requires (a list of views carries no association); indexing it
builds a ``Subnet`` view on demand, with ``gamma`` in node order, and nothing
keeps the views.

A network that its builder returned unchanged has the graph its builder
wrote: the builder's mark stands in for any proof of its structure, so only
the association is checked before most of the walk is spared.  A line that
``topology.as_built`` finds is solved by its period P (D + 2, or 2 without
cooperation) when K >= 2P, the roles repeat with P, the whole runs of P - 1
nodes have one master each, at one offset, and the walk of run 0 from node
1 is the nodes 1..P-1.  The components are then the runs between the
multiples of P, so ``_periodic_subnets`` repeats that walk's hops in every
whole run and adds the shorter masterless tail run with its
``partial-subnet`` warning.

A ball or a torus, whose rows ``topology.builder_rows`` returns, is solved
by its master lattice: ``_lattice_subnets`` walks one template, the
component of the master nearest the middle of the domain, which must hold
that master alone.  Its territory is the hex ball around its master one
step wider than the component, so the component's neighbours lie in it.
Every master whose territory lies in the domain's rows (one b-span per
master row, O(1) per master) must match the template's roles and master
flags there, row segment by row segment; its component and hops are then
the template's, moved by a constant id shift per row.  The walk covers the
rest, the rim, and skips these translates; any failed check takes the
whole walk.  On a torus the rim is the subnets at the seam, where ids wrap:
their territory leaves the domain's rows.  A torus of M <= 2 copies skips
the proof at once, since at most one of its masters is clear of the seam.
On a builder's graph a template with one master has no violation, and no
rim edge reaches a translate, whose territory holds every neighbour with
the template's roles.  Any other network or association takes the walk
above, so the violations and their order are always the walk's.

Both proofs set ``Subnets.translates`` (a line's whole runs are the
translates of run 0, its tail the rim): ``validate`` then checks fast
independence and the hop budget on the template and the rim alone, and
again on every node only when that finds a violation, so that the
violations come in node order.

``validate`` is the one check of an association: it decomposes, then puts
the fast-independence violations first and the hop-budget ones last.  A
report records each failed check once, as a ``(node, code)`` violation, and
reads its verdicts off the codes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mul, sub

from .association import Association, Role, Scheme, valid_d
from .lattice import Row, ball_rows, hex_distance
from .topology import HEX, WYNER, Network, _pads, as_built, builder_rows


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
    hop count to its own master, None without a master or a path; members
    are disjoint, so one per-node list serves every component.  A node's
    hop is that of its cell, counted over the CoMP side's cooperation
    graph within the component's cells.  ``assoc`` is the association the
    columns were built from.  ``translates`` is set when a proof built the
    columns (see the module docstring), to (template, copies, rim,
    shared): component ``template`` and ``copies - 1`` others (a line's
    whole runs, the subnets of a ball or torus whose territory lies in its
    rows) are translates of one another, the components listed in ``rim``
    are the others (a torus's rim is its seam subnets), and ``shared``
    holds the template's Rx cells that also hold an active node of another
    component (none on a line, a hex ball or a hex torus).  The template
    and the rim are all that ``validate`` and ``message_ledger`` read.  It
    is None after the general walk.  Indexing builds a ``Subnet`` view,
    whose ``gamma`` lists the members in node order (not in BFS order).
    """

    __slots__ = ("assoc", "members", "starts", "masters", "hop", "translates")

    def __init__(self, assoc: Association, members: list[int], starts: Sequence[int],
                 masters: list[int | None], hop: list[int | None],
                 translates: tuple | None = None) -> None:
        self.assoc, self.members, self.starts, self.masters = assoc, members, starts, masters
        self.hop, self.translates = hop, translates

    def __len__(self) -> int:
        return len(self.masters)

    def template_and_rim(self) -> tuple[list[int], list[int]]:
        """The template's members and the rim's members of proven columns."""
        template, _, rim, _ = self.translates
        members, starts = self.members, self.starts
        return (members[starts[template]:starts[template + 1]],
                list(chain.from_iterable(members[starts[j]:starts[j + 1]] for j in rim)))

    def __getitem__(self, i: int) -> Subnet:
        """A ``Subnet`` view of component ``i``, built on each call, with
        ``gamma`` in node order."""
        i = range(len(self.masters))[i]  # negative indices; IndexError past the end
        comp = self.members[self.starts[i]:self.starts[i + 1]]
        hop, roles = self.hop, self.assoc.roles
        return Subnet(tuple(comp), self.masters[i],
                      {k: hop[k] for k in comp if hop[k] is not None},
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
    order, then adjacency order.  A builder's line whose roles repeat with
    the period, and a builder's ball or torus whose interior repeats with
    the master lattice, skip all or most of the walk (see the module
    docstring).
    """
    _require_same_net(net, assoc)
    report = ValidationReport(hop_budget=hop_budget(assoc.scheme, assoc.D))
    if (rows := builder_rows(net)) is not None:
        solved = _lattice_subnets(net, assoc, rows, report)
    elif (K := as_built(net)) is not None:
        solved = _periodic_subnets(net, assoc, K, report)
    else:
        solved = None
    if solved is not None:
        return solved
    n = len(assoc.roles)
    hop: list[int | None] = [None] * n
    members, starts, masters = _walk(net, assoc, report, net.tx_nodes, [None] * n, hop,
                                     set(assoc.masters))
    return Subnets(assoc, members, starts, masters, hop), report


def _walk(net: Network, assoc: Association, report: ValidationReport, nodes,
          owner: list[int | None], hop: list[int | None], master_set: set) -> tuple:
    """The walk over the components found from ``nodes``, in order, skipping the nodes
    ``owner`` marks (an edge into one is a cross pair); fills ``owner`` and ``hop``,
    adds violations, the cross pairs' last, and warnings to ``report``, and returns
    the columns (members, starts, masters)."""
    roles, silent = assoc.roles, Role.SILENT
    adj = net.interference
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
        found = ((m, owner[m]) for m in sorted(master_set) if 0 <= m < len(owner))
    else:
        found = sorted({(c, owner[k]) for k in members if (c := tx_cell[k]) in master_set})
    for m, i in found:
        if i is None or i in second:
            continue
        if masters[i] is None:
            masters[i] = m
        else:
            second[i] = m
            masters[i] = None

    # hops run over the cells of the CoMP side, within the component's cells
    coop = net.tx_coop if assoc.scheme.comp_side == "tx" else net.rx_coop
    if own:  # a cell is its node: the search marks the per-node lists
        cell_owner, cell_hop = owner, hop
    else:
        cell_owner, cell_hop = [None] * len(coop), [None] * len(coop)
    cooperative = assoc.scheme.cooperative
    for i, master in enumerate(masters if cooperative or master_set else ()):
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
    """The walk's ``Subnets`` and report on a builder's ball or torus of these rows, from
    one template, its translates and the rim (see the module docstring), for a hexagonal
    association with masters or a sectorized CoMP-Rx one; otherwise None."""
    roles, silent, scheme = assoc.roles, Role.SILENT, assoc.scheme
    if not (assoc.masters and scheme.cooperative and len(roles) == len(net.tx_nodes)
            and (net.model == HEX or scheme.comp_side == "rx")):
        return None
    if not net.has_rim and net.params["copies"] <= 2:
        return None  # at most one master of the torus is clear of its seam: nothing to spare
    los, his, bases = _pads(rows)
    a0 = rows[0][0] - 1  # row a is at index a - a0 of los, his and bases
    n = len(net.rx_nodes)
    nk = len(net.tx_nodes) // n  # nodes per cell
    master_set = set(assoc.masters)
    if not (ms := sorted(m for m in master_set if 0 <= m < n)):
        return None
    coord = net.cell_coords
    # the master nearest the centre, the lowest id of any tie: it lies no more rows away
    # than some master's distance d, so only the masters of the d rows either side compete
    rc = len(rows) // 2 + 1
    centre = (rows[rc - 1][0], (los[rc] + his[rc]) // 2)
    d = hex_distance(coord[ms[len(ms) // 2]], centre)
    top, bottom = max(rc - d, 1), min(rc + d, len(rows))
    near = ms[bisect_left(ms, bases[top] + los[top]):bisect_right(ms, bases[bottom] + his[bottom])]
    t = min(near, key=lambda m: hex_distance(coord[m], centre))
    owner: list[int | None] = [None] * len(roles)
    hop: list[int | None] = [None] * len(roles)
    scratch = ValidationReport()  # the template: one component from the master's nodes
    tm, _, tmasters = _walk(net, assoc, scratch, range(nk * t, nk * t + nk), owner, hop,
                            master_set)
    if tmasters != [t]:
        return None
    tc = coord[t]
    R = 1 + max(hex_distance(coord[k // nk], tc) for k in tm)
    territory = ball_rows(R)  # rows (da, lo, hi) around a master
    _, tlos, this = zip(*territory)

    def fits(a: int) -> range:
        """The b of the masters (a, b) whose territory lies in the domain's rows."""
        r = a - a0
        if not (R < r and r + R <= len(rows)):
            return range(0)
        return range(max(map(sub, los[r - R:r + R + 1], tlos)),
                     min(map(sub, his[r - R:r + R + 1], this)) + 1)

    if tc[1] not in fits(tc[0]):
        return None

    key = list(roles)  # the roles, with each master's first node wrapped as (role,)
    for m in ms:
        key[nk * m] = (key[nk * m],)
    tbases = bases[tc[0] - a0 - R:tc[0] - a0 + R + 1]
    # the id range [x, y) of the cells in each row of the template's territory
    tsegs = [(x + tc[1] + lo, x + tc[1] + hi + 1) for x, lo, hi in zip(tbases, tlos, this)]
    tkeys = [key[nk * x:nk * y] for x, y in tsegs]

    mrow = [coord[k // nk][0] - tc[0] + R for k in tm]  # each member's row in the territory
    counts = list(map(mrow.count, range(2 * R + 1)))  # members per row, in id order
    thop = [hop[k] for k in tm]

    # the masters whose territory lies in the domain, in runs of one spacing along a row
    runs: list[tuple[int, list[int]]] = []
    span_a, span = None, range(0)
    for m in ms:
        a, b = coord[m]
        if a != span_a:  # the masters come in id order, so row by row
            span_a, span = a, fits(a)
        if b not in span:
            continue  # a rim master
        bs = runs[-1][1] if runs and runs[-1][0] == a else None
        if bs is not None and (len(bs) == 1 or b - bs[-1] == bs[1] - bs[0]):
            bs.append(b)
        else:
            runs.append((a, [b]))
    pieces = []
    for a, bs in runs:
        s, w = (bs[1] - bs[0] if len(bs) > 1 else 0), bs[-1] - bs[0]
        r = a - a0  # the cell id shift per territory row, from the template to master (a, bs[0])
        d = list(map(add, map(sub, bases[r - R:r + R + 1], tbases), repeat(bs[0] - tc[1])))
        # the first territory is the template's, and the run's rows repeat with s
        for (x, y), tk, e in zip(tsegs, tkeys, d):
            x, y = x + e, y + e
            if (key[nk * x:nk * y] != tk
                    or w and key[nk * (x + s):nk * (y + w)] != key[nk * x:nk * (y + w - s)]):
                return None
        # the run's first translate: each template member moved by its row's shift
        shifts = chain.from_iterable(map(repeat, map(mul, d, repeat(nk)), counts))
        mem = list(map(add, tm, shifts))
        for i in range(len(bs)):
            if i:  # the next master of the run, s further along the row
                mem = list(map(add, mem, repeat(nk * s)))
            for k, g in zip(mem, thop):
                owner[k] = -1
                hop[k] = g
            m = t + d[R] + i * s
            pieces.append((mem[0], 2 if m == t else 1, mem, m))

    rim_set = master_set.difference([piece[3] for piece in pieces])
    rm, rs, rmasters = _walk(net, assoc, report, net.tx_nodes, owner, hop, rim_set)

    # every component, rim (0), translate (1) or template (2), in order of its lowest member
    pieces += [(rm[rs[j]], 0, rm[rs[j]:rs[j + 1]], rmasters[j]) for j in range(len(rmasters))]
    pieces.sort(key=itemgetter(0))
    _, kind, mems, masters = zip(*pieces)
    cells = {k // nk for k in tm}
    others = {k for c in cells for k in range(nk * c, nk * c + nk)}.difference(tm)
    shared = frozenset(k // nk for k in others if roles[k] is not silent)
    return Subnets(assoc, list(chain.from_iterable(mems)),
                   array("q", accumulate(map(len, mems), initial=0)), list(masters), hop,
                   (kind.index(2), kind.count(1) + 1,
                    tuple(i for i, x in enumerate(kind) if not x), shared)), report


def _periodic_subnets(net: Network, assoc: Association, K: int,
                      report: ValidationReport) -> tuple[Subnets, ValidationReport] | None:
    """The walk's columns and report on a builder's line of K nodes, from the walk of
    run 0, or None unless the roles and masters repeat with a period P, node P is
    silent and the walk from node 1 is the nodes 1..P-1.

    Run ``j`` holds the nodes ``j * P + 1 .. j * P + P - 1``; the whole runs
    have a master at one offset, and the tail run after the last whole one
    (shorter than P - 1 nodes) has none.  The members are the int objects of
    ``net.tx_nodes``, and every whole run repeats run 0's hops.  ``starts`` is a
    ``range`` unless a tail run follows the whole ones.
    """
    roles, cooperative = assoc.roles, assoc.scheme.cooperative
    P = assoc.D + 2 if cooperative else 2
    if not (K >= 2 * P and len(roles) == K + 1 and roles[1 + P:] == roles[1:-P]):
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
                     set(assoc.masters[:1]))
    if tm != list(range(1, P)):  # so nodes 1..P-1 are active
        return None
    whole = (K + 1) // P
    n = whole * (P - 1)  # members of the whole runs
    members = list(net.tx_nodes)
    del members[P - 1::P]  # the silent multiples of P; the tail run follows the whole ones
    starts: Sequence[int] = range(0, n + 1, P - 1)
    masters: list[int | None] = list(assoc.masters) or [None] * whole
    hop = [None, *hop[1:P]] * whole
    hop += [None] * (K + 1 - len(hop))  # the last silent node and the tail run
    if len(members) > n:  # the tail run, clipped by the rim
        starts = array("q", starts)
        starts.append(len(members))
        masters.append(None)
        report.warnings.append(f"partial-subnet:{whole * P + 1}")
    return Subnets(assoc, members, starts, masters, hop,
                   (0, whole, tuple(range(whole, len(masters))), frozenset())), report


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
