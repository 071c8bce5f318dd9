"""Structural checks for an association: fast independence, subnet decomposition,
hop distances to the masters, and the conferencing-round split.

An association is sound when

* no fast transmitter interferes at any fast receiver,
* silencing decomposes the active nodes into non-interfering subnets,
* each subnet owns exactly one master, and every slow node reaches it over
  the cooperation graph within the scheme's round budget:
  floor((D-2)/2) hops when both message types are sent (one conferencing
  round goes to the opposite side and the remaining D-1 rounds split into
  a gather and a scatter phase), floor(D/2) hops for the slow-only scheme.

Finite line/ball instances may contain clipped subnets at the network rim;
those are reported as warnings, not violations, and are excluded from the
reachability check when they lack a master.

One BFS over the active interference graph finds the components and, on the
edges it already walks, any interference between two of them.  Where a node
is its own cell (``tx_cell`` is the identity range: Wyner, hex), a
component's ids are its cells and the hop BFS from its master is ``gamma``
as it stands; only the sectorized model maps sectors to cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .association import Association, Role, Scheme
from .topology import WYNER, Network


@dataclass(slots=True)
class Subnet:
    members: tuple[int, ...]              # active Tx nodes of one component
    master: int | None                    # Rx id (CoMP reception) or Tx id (transmission)
    gamma: dict[int, int]                 # member -> cooperation hops to the master
    slow_members: tuple[int, ...] = ()


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
    """Conferencing rounds (d_tx, d_rx) used by each scheme, with d_tx + d_rx <= D."""
    if scheme is Scheme.NO_COOP:
        if D < 0:
            raise ValueError("D must be >= 0")
        return (0, 0)
    if D < 2:
        raise ValueError(f"D={D} is too small for {scheme.value}")
    if scheme is Scheme.BOTH_COMP_RX:
        return (1, D - 1)
    if scheme is Scheme.BOTH_COMP_TX:
        return (D - 1, 1)
    if scheme is Scheme.SLOW_COMP_RX:
        return (0, D)
    return (D, 0)


def hop_budget(scheme: Scheme, D: int) -> int:
    if scheme is Scheme.NO_COOP:
        return 0
    if scheme.mixed:
        return (D - 2) // 2
    return D // 2


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


def _components(net: Network, roles: list[Role | None]
                ) -> tuple[list[tuple[int, ...]], list[tuple[int, str]]]:
    """Sorted components of the active interference graph, and the cross-component edges.

    The BFS also checks that no component hears another.  An active
    neighbour outside the component being searched can only belong to an
    earlier one (a later one would have joined it), so every such edge is
    seen, from its later end.  The violations come back in node order, then
    adjacency order.
    """
    owner: list[int | None] = [None] * len(roles)
    comps = []
    cross = []
    adj, silent = net.interference, Role.SILENT
    for start in net.tx_nodes:
        if owner[start] is not None or roles[start] is silent:
            continue
        i = len(comps)
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
        comps.append(tuple(comp))
    cross.sort(key=itemgetter(0))  # stable: keeps adjacency order per node
    return comps, cross


def _bfs_hops(adj: tuple[tuple[int, ...], ...], allowed: set[int], start: int) -> dict[int, int]:
    """Hops from ``start`` within ``allowed``, keyed in BFS order (hops never decrease)."""
    hops = {start: 0}
    queue = [start]
    for u in queue:  # queue grows behind the cursor
        g = hops[u] + 1
        for v in adj[u]:
            if v in allowed and v not in hops:
                hops[v] = g
                queue.append(v)
    return hops


def _own_cells(net: Network) -> bool:
    """True when every Tx node is its own Rx cell: ``tx_cell`` is the identity range."""
    t = net.tx_cell
    return isinstance(t, range) and t.start == 0 and t.step == 1


def subnet_decompose(net: Network, assoc: Association) -> tuple[list[Subnet], ValidationReport]:
    """Connected components of the active interference graph, with masters and hop counts.

    Where a node is its own cell, ``gamma`` lists the members in BFS order
    (hops never decrease), which ``message_ledger`` relies on.
    """
    _require_same_net(net, assoc)
    report = ValidationReport(hop_budget=hop_budget(assoc.scheme, assoc.D))
    roles = assoc.roles
    comps, cross = _components(net, roles)
    relaxed = net.model == WYNER or "radius" in net.params
    master_set = set(assoc.masters)
    # hops run over the cells of the CoMP side
    adj = net.tx_coop if assoc.scheme.comp_side == "tx" else net.rx_coop
    tx_cell = net.tx_cell
    own = _own_cells(net)
    cooperative = assoc.scheme.cooperative
    slow_role = Role.SLOW

    subnets = []
    for comp in comps:
        slow = tuple(k for k in comp if roles[k] is slow_role)
        if master_set:
            cells = set(comp) if own else {tx_cell[k] for k in comp}
            masters = sorted(cells & master_set)
        else:  # no-coop (or no whole subnet): no component can hold a master
            masters = ()
        master = masters[0] if len(masters) == 1 else None
        if len(masters) > 1:
            report.subnets_disjoint = False
            report.violations.append((masters[1], "multi-master"))
        elif not masters and cooperative:
            if relaxed:
                report.warnings.append(f"partial-subnet:{comp[0]}")
            else:
                report.master_reachable = False
                report.violations.append((comp[0], "no-master"))

        if master is None:
            gamma = {}
        else:
            gamma = _bfs_hops(adj, cells, master)
            if not own:
                gamma = {k: gamma[c] for k in comp if (c := tx_cell[k]) in gamma}
            if len(gamma) < len(comp):
                for k in comp:
                    if k not in gamma:
                        report.master_reachable = False
                        report.violations.append((k, "unreachable"))
        subnets.append(Subnet(comp, master, gamma, slow))

    if cross:
        report.subnets_disjoint = False
        report.violations += cross
    return subnets, report


def master_reachability(subnets: list[Subnet], scheme: Scheme, D: int) -> ValidationReport:
    """Every slow node must reach its subnet master within the scheme's hop budget.

    A member with no cooperation path to its master has no ``gamma`` entry;
    ``subnet_decompose`` reports it as unreachable, so it is skipped here.
    """
    budget = hop_budget(scheme, D)
    report = ValidationReport(hop_budget=budget)
    for sub in subnets:
        if sub.master is None:
            continue
        for k in sub.slow_members:
            g = sub.gamma.get(k)
            if g is not None and g > budget:
                report.master_reachable = False
                report.violations.append((k, f"hop-budget-exceeded-{g}>{budget}"))
    return report


def validate(net: Network, assoc: Association) -> tuple[list[Subnet], ValidationReport]:
    """Run all structural checks and merge the reports."""
    r1 = fast_noninterference(net, assoc)
    subnets, r2 = subnet_decompose(net, assoc)
    r3 = master_reachability(subnets, assoc.scheme, assoc.D)
    return subnets, r1.merge(r2).merge(r3)
