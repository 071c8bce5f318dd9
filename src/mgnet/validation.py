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
component's cells and gives each cell its lowest-id parent, the next hop of
its traffic towards the master.  Where a node is its own cell (``tx_cell`` is
the identity range: Wyner, hex), that search marks the per-node lists
directly; only the sectorized model maps sectors to cells, through scratch
lists that are reset after each search.

``subnet_decompose`` returns one columnar ``Subnets``, which ``message_ledger``
and ``master_reachability`` read and require (a list of views carries no
association); indexing it builds a ``Subnet`` view on demand, with ``gamma``
in node order, and nothing keeps the views.

A line is solved by its period instead when ``_line_period`` proves one,
with C-level checks only: the interference graph is ``build_wyner``'s path
1..K (a network with a rim), cooperation runs on that same object and every
node is its own cell; the roles repeat with P (D + 2, or 2 without
cooperation), node P is silent and nodes 1..P-1 are not; the masters are
one per whole run of P - 1 nodes, at one offset; and K >= 2P.  The
components are then the runs between the multiples of P, so
``_periodic_subnets`` builds every column from one run's template by
strided slices, adds the shorter masterless tail run with its
``partial-subnet`` warning, and records P in ``Subnets.period``.  Any other
network or association, or a failed check, takes the walk above.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import eq, itemgetter

from .association import Association, Role, Scheme, valid_d
from .topology import WYNER, Network


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
    are disjoint, so one per-node list serves every component.  The j-th
    mastered component's hop search visits the cells
    ``order[order_starts[j]:order_starts[j + 1]]`` in BFS order (hops never
    decrease); ``order_parent`` holds each entry's lowest-id neighbour one
    hop nearer the master in that search (None for the master).  These
    entries carry their own parents because one sectorized cell can lie in
    the searches of two components.  ``assoc`` is the association the
    columns were built from.  ``period`` is the line's proven period P when
    the columns were built from one run of P - 1 nodes (component ``i`` of
    the whole runs is then component 0 shifted by ``i * P``, and a shorter
    masterless tail run may follow), and None after the general walk.
    Indexing builds a ``Subnet`` view, whose ``gamma`` lists the members in
    node order (not in BFS order).
    """

    __slots__ = ("assoc", "members", "starts", "masters", "hop",
                 "order", "order_parent", "order_starts", "period")

    def __init__(self, assoc: Association, members: list[int], starts: Sequence[int],
                 masters: list[int | None], hop: list[int | None], order: list[int],
                 order_parent: list[int | None], order_starts: Sequence[int],
                 period: int | None = None) -> None:
        self.assoc, self.members, self.starts, self.masters = assoc, members, starts, masters
        self.hop, self.order, self.order_parent = hop, order, order_parent
        self.order_starts, self.period = order_starts, period

    def __len__(self) -> int:
        return len(self.masters)

    def __getitem__(self, i: int | slice) -> Subnet | list[Subnet]:
        """A ``Subnet`` view of component ``i``, built on each call, with
        ``gamma`` in node order; a slice gives a list of views."""
        if isinstance(i, slice):
            return [self[j] for j in range(len(self.masters))[i]]
        i = range(len(self.masters))[i]  # negative indices; IndexError past the end
        comp = self.members[self.starts[i]:self.starts[i + 1]]
        hop, roles = self.hop, self.assoc.roles
        return Subnet(tuple(comp), self.masters[i],
                      {k: hop[k] for k in comp if hop[k] is not None},
                      tuple([k for k in comp if roles[k] is Role.SLOW]))


@dataclass
class ValidationReport:
    fast_independent: bool = True
    subnets_disjoint: bool = True
    master_reachable: bool = True
    hop_budget: int = 0
    violations: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.fast_independent and self.subnets_disjoint and self.master_reachable

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(
            self.fast_independent and other.fast_independent,
            self.subnets_disjoint and other.subnets_disjoint,
            self.master_reachable and other.master_reachable,
            max(self.hop_budget, other.hop_budget),
            self.violations + other.violations,
            self.warnings + other.warnings,
        )

    def to_json_dict(self) -> dict:
        return {
            "fast_independent": self.fast_independent,
            "subnets_disjoint": self.subnets_disjoint,
            "master_reachable": self.master_reachable,
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


def fast_noninterference(net: Network, assoc: Association) -> ValidationReport:
    """No fast Tx may appear in the interference set of a fast node's receiver unit."""
    _require_same_net(net, assoc)
    report = ValidationReport(hop_budget=hop_budget(assoc.scheme, assoc.D))
    roles, fast = assoc.roles, Role.FAST
    for k in net.tx_nodes:
        if roles[k] is not fast:
            continue
        for j in net.interference[k]:
            if roles[j] is fast:
                report.fast_independent = False
                report.violations.append((k, f"fast-interference-from-{j}"))
    return report


def subnet_decompose(net: Network, assoc: Association) -> tuple[Subnets, ValidationReport]:
    """Connected components of the active interference graph, with masters and hop counts.

    Components are searched from the lowest unowned active node, in node
    order.  The search also checks that no component hears another: an
    active neighbour outside the component being searched can only belong
    to an earlier one (a later one would have joined it), so every such
    edge is seen, from its later end.  These violations come last, in node
    order, then adjacency order.  A line with a proven period skips the
    walk (see the module docstring).
    """
    _require_same_net(net, assoc)
    report = ValidationReport(hop_budget=hop_budget(assoc.scheme, assoc.D))
    if (P := _line_period(net, assoc)) is not None:
        return _periodic_subnets(net, assoc, P, report), report
    roles, silent = assoc.roles, Role.SILENT
    adj = net.interference
    owner: list[int | None] = [None] * len(roles)  # node -> its component
    members: list[int] = []
    starts = array("q", [0])
    cross = []
    for start in net.tx_nodes:
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
                    cross.append((u, f"cross-subnet-interference-{v}"))
        comp.sort()
        members += comp
        starts.append(len(members))

    # masters: each component takes its lowest master cell; a second one is a violation
    tx_cell = net.tx_cell
    own = isinstance(tx_cell, range) and tx_cell.start == 0 and tx_cell.step == 1
    master_set = set(assoc.masters)
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
    hop: list[int | None] = [None] * len(roles)
    if own:  # a cell is its node: the search marks the per-node lists
        cell_owner, cell_hop = owner, hop
    else:
        cell_owner, cell_hop = [None] * len(coop), [None] * len(coop)
    order: list[int] = []
    order_parent: list[int | None] = []
    order_starts = array("q", [0])
    # a cell's lowest-id parent in the current search; only a master starts one
    parent: list[int | None] = [None] * len(coop)
    cooperative = assoc.scheme.cooperative
    relaxed = net.has_rim
    for i, master in enumerate(masters if cooperative or master_set else ()):
        comp = members[starts[i]:starts[i + 1]]
        if master is None:
            if i in second:
                report.subnets_disjoint = False
                report.violations.append((second[i], "multi-master"))
            elif cooperative:
                if relaxed:
                    report.warnings.append(f"partial-subnet:{comp[0]}")
                else:
                    report.master_reachable = False
                    report.violations.append((comp[0], "no-master"))
            continue
        if not own:
            for k in comp:
                cell_owner[tx_cell[k]] = i
        cell_hop[master] = 0
        parent[master] = None
        cells = [master]
        for u in cells:  # breadth first: hops never decrease
            g = cell_hop[u] + 1
            for v in coop[u]:
                if cell_owner[v] == i:
                    h = cell_hop[v]
                    if h is None:
                        cell_hop[v] = g
                        parent[v] = u
                        cells.append(v)
                    elif h == g and u < parent[v]:  # the lowest-id parent
                        parent[v] = u
        order += cells
        order_parent += map(parent.__getitem__, cells)
        order_starts.append(len(order))
        if not own:
            for k in comp:
                hop[k] = cell_hop[tx_cell[k]]
            for c in cells:  # a cell may lie in a later component's search too
                cell_hop[c] = None
        if not own or len(cells) < len(comp):
            for k in comp:
                if hop[k] is None:
                    report.master_reachable = False
                    report.violations.append((k, "unreachable"))

    if cross:
        cross.sort(key=itemgetter(0))  # stable: keeps adjacency order per node
        report.subnets_disjoint = False
        report.violations += cross
    return Subnets(assoc, members, starts, masters, hop, order, order_parent, order_starts), report


def _line_period(net: Network, assoc: Association) -> int | None:
    """The period P of the line the walk would cut into runs of P - 1 nodes, or None."""
    adj, nodes, roles, masters = net.interference, net.tx_nodes, assoc.roles, assoc.masters
    K = len(nodes)
    P = assoc.D + 2 if assoc.scheme.cooperative else 2
    silent = Role.SILENT
    if not (K >= 2 * P and net.has_rim and len(adj) == len(roles) == K + 1
            and net.tx_coop is net.rx_coop is adj and net.tx_cell == range(K + 1)
            and roles[P] is silent and silent not in roles[1:P]
            and adj[1] == (2,) and adj[K] == (K - 1,)):
        return None
    if assoc.scheme.cooperative:  # one master per whole run, all at one offset
        m0 = masters[0] if masters else 0
        if not 0 < m0 < P or masters != tuple(range(m0, m0 + P * ((K + 1) // P), P)):
            return None
    elif masters:
        return None
    if (roles[1 + P:] == roles[1:-P] and all(map(eq, nodes, range(1, K + 1)))
            and all(map(eq, islice(adj, 2, K), zip(nodes, islice(nodes, 2, None))))):
        return P
    return None


def _periodic_subnets(net: Network, assoc: Association, P: int,
                      report: ValidationReport) -> Subnets:
    """The walk's columns on a line of period P, built from one run's template.

    Run ``j`` holds the nodes ``j * P + 1 .. j * P + P - 1``; the whole runs
    have a master at one offset ``m0`` and hop counts ``|k - m0|`` along the
    path, and the tail run after the last whole one (shorter than P - 1
    nodes) has no master.  The search from ``m0`` visits m0, m0-1, m0+1,
    m0-2, ... while they lie in the run, each parented by its neighbour
    towards m0.  Every column holds the int objects of ``net.tx_nodes`` (as
    the walk's do), copied by strided slices, one per offset in the run.
    """
    K = len(net.tx_nodes)
    whole = (K + 1) // P
    n = whole * (P - 1)  # members of the whole runs
    members = list(net.tx_nodes)
    del members[P - 1::P]  # the silent multiples of P; the tail run follows the whole ones
    starts = array("q", range(0, n + 1, P - 1))
    masters: list[int | None] = list(assoc.masters) or [None] * whole
    if assoc.masters:
        m0 = assoc.masters[0]
        hop: list[int | None] = ([None] + [abs(k - m0) for k in range(1, P)]) * whole
        hop += [None] * (K + 1 - len(hop))  # the last silent node and the tail run
        order: list[int] = [0] * n
        order_parent: list[int | None] = [None] * n  # None stays on each master
        tpl = [m0] + [c for g in range(1, P) for c in (m0 - g, m0 + g) if 0 < c < P]
        for q, c in enumerate(tpl):  # the q-th cell of every run's search
            order[q::P - 1] = members[c - 1:n:P - 1]
            if q:
                p = c + 1 if c < m0 else c - 1
                order_parent[q::P - 1] = members[p - 1:n:P - 1]
        order_starts = array("q", starts)
    else:  # no-coop: no masters and no hop searches
        hop, order, order_parent, order_starts = [None] * (K + 1), [], [], array("q", [0])
    if len(members) > n:  # the tail run, clipped by the rim
        starts.append(len(members))
        masters.append(None)
        report.warnings.append(f"partial-subnet:{whole * P + 1}")
    return Subnets(assoc, members, starts, masters, hop, order, order_parent, order_starts, P)


def master_reachability(subnets: Subnets, scheme: Scheme, D: int) -> ValidationReport:
    """Every slow node must reach its subnet master within the scheme's hop budget.

    A member with no cooperation path to its master has no hop count;
    ``subnet_decompose`` reports it as unreachable, so it is skipped here.
    ``subnets`` is what ``subnet_decompose`` returned for an association with
    this scheme and D; anything else raises ValueError.
    """
    assoc = getattr(subnets, "assoc", None)
    if assoc is None or (assoc.scheme, assoc.D) != (scheme, D):
        raise ValueError("subnets were not decomposed for this association")
    budget = hop_budget(scheme, D)
    report = ValidationReport(hop_budget=budget)
    hop, roles, slow = subnets.hop, assoc.roles, Role.SLOW
    for k in subnets.members:
        if (g := hop[k]) is None or g <= budget or roles[k] is not slow:
            continue
        report.master_reachable = False
        report.violations.append((k, f"hop-budget-exceeded-{g}>{budget}"))
    return report


def validate(net: Network, assoc: Association) -> tuple[Subnets, ValidationReport]:
    """Run all structural checks and merge the reports."""
    r1 = fast_noninterference(net, assoc)
    subnets, r2 = subnet_decompose(net, assoc)
    r3 = master_reachability(subnets, assoc.scheme, assoc.D)
    return subnets, r1.merge(r2).merge(r3)
