"""Exact cooperation-message accounting and the matching closed-form expressions.

Every conferencing message carries prelog L, so cooperation loads are pure
message counts.  ``SCHEME_KEYS`` names each scheme's (s_f, s_s, mu_tx, mu_rx)
entries of the ``formulas`` table: ``closed_form`` is one lookup in it, and
the MG regions read its prelog columns.  The ledger distinguishes:

* precancel_msgs: quantized slow-signal descriptions delivered to fast
  transmitters so they can pre-subtract slow interference;
* fast_share_msgs: decoded fast messages passed from a fast receiver to
  each neighbouring receiver that still has to decode slow data behind
  that interference (counted once per receiving cell);
* fanin/fanout_msgs: quantized outputs hopping towards the master and the
  jointly decoded slow messages hopping back (one message per hop);
* q_dedup: descriptions counted both for CoMP transmission fan-out and for
  precancelation at fast Txs and thus sent only once;
* fast_master_dedup: fast-master saving in the linear model (a fast master
  decodes all slow messages itself, so it never forwards its own decoded
  message to its slow neighbours).  The 2-D closed forms do not take this
  saving, so the ledger applies it in the linear model only.

``message_ledger`` also counts the per-link loads, in the same passes: the
fast-node loop adds each precancel and fast-share message to its link, and
the per-subnet loop routes the fan-in and fan-out up each subnet's
shortest-path tree, from the hops alone: a subnet's cells are walked leaves
first, and each sends its subtree's count to its parent, the first cell in
its adjacency (unit-step order, which a translation keeps) one hop nearer
the master that links to it both ways.  Columns a proof built
(``Subnets.translates``) are counted from the template's fast nodes and
subnet, once, times the number of translates, plus the rim's nodes and
subnets; only the links of these cells are numbered, and the per-cell
scratch ends at the last of them.  On a builder's
network no link carries two subnets' messages, so each link maximum is the
template's or the rim's.  Every other ``Subnets`` is counted node by node,
over the links of every Tx node and cell.
A maximum is read only from link counts that a message reached: precancels
and Tx-side routes load the Tx links, fast shares and Rx-side routes the
Rx links.

Average prelogs divide by the idealised directed-link totals, the plane's
``topology.PLANE_LINKS`` per Tx node and per Rx cell; `finite_prelogs`
divides by the actual finite link counts instead.  Both coincide on a
whole-subnet torus with tau * M >= 2.  On the three-cell torus (tau * M = 1)
two steps reach one cell and the builder keeps one link, so a cell keeps 2
of its 6 cell-to-cell links, and a prelog over them is 3 times the plane's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .association import Association, Role, Scheme, check_params, valid_d
from .rationals import ratio_to_json
from .topology import HEX, PLANE_LINKS, SECTORED, WYNER, Network
from .validation import Subnets, _require_same_net


def _to_json_dict(self) -> dict:
    """Every field in declaration order; a Scheme by its value, a Fraction by ratio_to_json."""
    out = {}
    for f in fields(self):
        v = getattr(self, f.name)
        out[f.name] = (v.value if isinstance(v, Scheme)
                       else ratio_to_json(v) if isinstance(v, Fraction) else v)
    return out


@dataclass
class LoadReport:
    scheme: Scheme
    D: int
    L: int
    precancel_msgs: int
    fast_share_msgs: int
    fanin_msgs: int
    fanout_msgs: int
    q_dedup: int
    fast_master_dedup: int
    tx_message_total: int
    rx_message_total: int
    mu_tx: Fraction
    mu_rx: Fraction
    max_tx_link_load: int
    max_rx_link_load: int
    n_subnets: int

    to_json_dict = _to_json_dict


@dataclass
class ClosedForm:
    model: str
    scheme: Scheme
    D: int
    L: int
    s_f: Fraction
    s_s: Fraction
    mu_tx: Fraction
    mu_rx: Fraction

    to_json_dict = _to_json_dict


def formulas(model: str, D: int, L: int) -> dict[str, Fraction]:
    """All closed-form MG values and prelog requirements of one model at (D, L)."""
    check_params(model, Scheme.BOTH_COMP_RX, D, L)  # a D that some cooperative scheme runs at
    F = Fraction
    if model == WYNER:
        odd_master = (D // 2 + 1) % 2 == 1
        rx_num = F(D) + F(D * D, 4) - (2 if odd_master else 1)
        return {
            "s_nocoop": F(L, 2),
            "s_max": F(L * (D + 1), D + 2),
            "s_f_both": F(L, 2),
            "s_s_both": F(L * D, 2 * (D + 2)),
            "mu_r_tx": F(L * D, 2 * (D + 2)),
            "mu_r_rx": L * rx_num / (2 * (D + 2)),
            "mu_t_tx": F(L * D, 8),
            "mu_t_rx": F(L * D, 2 * (D + 2)),
            "mu_s_tx": F(L * D, 4),
            "mu_s_rx": F(L * D, 4),
        }
    if model == HEX:
        return {
            "s_nocoop": F(L, 3),
            "s_max": F(L * (4 + 3 * D * (D + 2)), 3 * (D + 2) ** 2),
            "s_f_both": F(L * (D * D - 2 * D + 4), 3 * D * D),
            "s_s_both": F(L * (2 * D - 4), 3 * D),
            "mu_r_tx": F(L * (3 * D - 4) * (D - 2), 9 * D * D),
            "mu_r_rx": F(L * (2 * D**3 + 3 * D * D - 30 * D + 32), 27 * D * D),
            "mu_t_tx": F(L * (2 * D**3 - 12 * D - 28), 27 * D * D),
            "mu_t_rx": F(L * (3 * D - 4) * (D - 2), 9 * D * D),
            "mu_s_tx": F(L * D * (D + 1), 9 * (D + 2)),
            "mu_s_rx": F(L * D * (D + 1), 9 * (D + 2)),
        }
    return {  # sectorized
        "s_nocoop": F(L, 3),
        "s_max": F(L * (3 * D - 2), 3 * D),
        "s_f_both": F(L, 3),
        "s_s_both": F(L * (2 * D - 2), 3 * D),
        "mu_r_tx": F(L * (D - 1), 3 * D),
        "mu_r_rx": F(L * (2 * D * D - 5), 9 * D),
        "mu_s_rx": F(L * (D - 1), 3),
    }


# Each scheme's ``formulas`` keys of (s_f, s_s, mu_tx, mu_rx); None reads as 0.
SCHEME_KEYS: dict[Scheme, tuple[str | None, ...]] = {
    Scheme.BOTH_COMP_RX: ("s_f_both", "s_s_both", "mu_r_tx", "mu_r_rx"),
    Scheme.BOTH_COMP_TX: ("s_f_both", "s_s_both", "mu_t_tx", "mu_t_rx"),
    Scheme.SLOW_COMP_RX: (None, "s_max", None, "mu_s_rx"),
    Scheme.SLOW_COMP_TX: (None, "s_max", "mu_s_tx", None),
    Scheme.NO_COOP: ("s_nocoop", None, None, None),
}


def closed_form(model: str, scheme: Scheme, D: int, L: int) -> ClosedForm:
    """Asymptotic (MG pair, required prelogs) for one scheme on one model."""
    check_params(model, scheme, D, L)
    # no-coop values do not depend on D: read them at the least cooperative D
    f = formulas(model, D if scheme.cooperative else valid_d(model, Scheme.BOTH_COMP_RX)[0], L)
    return ClosedForm(model, scheme, D, L,
                      *(f[k] if k else Fraction(0) for k in SCHEME_KEYS[scheme]))


def mixed_subnet_counts(D: int) -> tuple[int, int]:
    """Fast and slow cells per subnet of the mixed hexagonal association."""
    check_params(HEX, Scheme.BOTH_COMP_RX, D, 1)
    return (D * D // 4 - D // 2 + 1, D * D // 2 - D)


def subnet_sizes(model: str, scheme: Scheme, D: int) -> tuple[int, int]:
    """(partition cells used as asymptotic denominator, active members per subnet)."""
    check_params(model, scheme, D, 1)
    if scheme is Scheme.NO_COOP:
        return (2, 1) if model == WYNER else (3, 1)
    if model == WYNER:
        return (D + 2, D + 1)
    if model == SECTORED:
        return (9 * D * D // 4, 9 * D * D // 4 - 3 * D // 2)
    if scheme.mixed:
        return (3 * D * D // 4, 1 + 3 * D * (D - 2) // 4)
    return (3 * (D + 2) ** 2 // 4, 1 + 3 * D * (D + 2) // 4)


def message_ledger(net: Network, assoc: Association, subnets: Subnets) -> LoadReport:
    """Count every cooperation message of the scheme on this finite network.

    ``subnets`` is what ``subnet_decompose`` returned for this association
    (another association's raises ValueError).  The per-link maxima are
    informational: counters are flat lists indexed by directed edge (see
    ``_edge_offsets``) of the Tx cooperation graph, which carries the
    precancelation, and of the Rx cooperation graph, which carries the fast
    shares.  Quantization traffic follows the module docstring's
    shortest-path tree (a cell with no parent raises ValueError naming it),
    each slow member crossing every uplink of its path once in and once out;
    the CoMP-transmission dedup savings are not modelled on the links.
    """
    _require_same_net(net, assoc)
    if getattr(subnets, "assoc", None) is not assoc:
        raise ValueError("subnets were not decomposed for this association")
    scheme = assoc.scheme
    D, L = assoc.D, net.L
    counts, tx_use, rx_use = _tally(net, assoc, subnets, subnets.translates)
    precancel, fast_share, fanin, fast_master_saved, q_dedup = counts
    fanout = fanin

    # without a mixed scheme precancel and fast_share are 0, and no-coop has no fan-in
    side = scheme.comp_side
    tx_total = precancel + (fanin + fanout - q_dedup if side == "tx" else 0)
    rx_total = fast_share + (fanin + fanout - fast_master_saved if side == "rx" else 0)
    # only precancels and Tx-side routes load Tx links; fast shares and Rx-side routes Rx links
    max_tx = max(tx_use) if precancel or side == "tx" and fanin else 0
    max_rx = max(rx_use) if fast_share or side == "rx" and fanin else 0

    per_tx, per_rx = PLANE_LINKS[net.model]
    den_tx, den_rx = per_tx * net.n_tx, per_rx * net.n_rx
    mu_tx = Fraction(L * tx_total, den_tx) if den_tx else Fraction(0)
    mu_rx = Fraction(L * rx_total, den_rx) if den_rx else Fraction(0)
    return LoadReport(
        scheme=scheme, D=D, L=L,
        precancel_msgs=precancel, fast_share_msgs=fast_share,
        fanin_msgs=fanin, fanout_msgs=fanout,
        q_dedup=q_dedup, fast_master_dedup=fast_master_saved,
        tx_message_total=tx_total, rx_message_total=rx_total,
        mu_tx=mu_tx, mu_rx=mu_rx,
        max_tx_link_load=max_tx, max_rx_link_load=max_rx,
        n_subnets=len(subnets),
    )


def _tally(net: Network, assoc: Association, subnets: Subnets,
           t: tuple | None) -> tuple[list[int], list[int], list[int]]:
    """(counts, tx_use, rx_use) of every node and subnet once (``t`` None), or of
    the template's nodes and subnet ``copies`` times and of the rim's once (``t`` is
    ``Subnets.translates``).  Links get a counter if they leave a numbered node (every Tx
    node, or the template's and the rim's) or its cell.  The per-cell scratch runs up to
    the last numbered cell: P slots, not K + 1, on a proven line without a tail run."""
    adjs = net.interference, net.tx_coop, net.rx_coop
    if t is None:
        # precancel and fast-share messages run between a fast and a slow node
        nodes = net.tx_nodes if Role.SLOW in assoc.roles else ()
        parts, numbered = [(1, nodes, range(len(subnets)))], net.tx_nodes
    else:
        i, copies, rim_subnets = t
        template, rim = subnets.template_and_rim()
        parts = [(copies, template, (i,)), (1, rim, rim_subnets)][:2 if rim_subnets else 1]
        numbered = template + rim  # a message runs between two cells of its own subnet
    _, tx_adj, rx_adj = adjs
    tx_off = _edge_offsets(tx_adj, numbered)
    rx_off = tx_off if rx_adj is tx_adj else _edge_offsets(
        rx_adj, dict.fromkeys(map(net.tx_cell.__getitem__, numbered)))
    tx_use, rx_use = [0] * tx_off[-1], [0] * rx_off[-1]
    n = max(rx_off) + 1  # up to the last numbered cell: a message runs between two of them
    cells = ([None] * n, [0] * n, [None] * n)  # _count's per-cell scratch, made once
    counts = [0] * 5
    for times, nodes, indices in parts:
        part = _count(net, assoc, subnets, nodes, indices, adjs,
                      (tx_off, rx_off, tx_use, rx_use), cells)
        counts = [c + times * x for c, x in zip(counts, part)]
    return counts, tx_use, rx_use


def _count(net: Network, assoc: Association, subnets: Subnets, nodes, indices, adjs: tuple,
           links: tuple[list[int], ...],
           cells: tuple[list, list[int], list]) -> tuple[int, int, int, int, int]:
    """(precancel, fast_share, fanin, fast_master_saved, q_dedup) of the fast
    nodes among ``nodes`` and of the subnets ``indices``, over ``adjs`` = the
    network's (interference, tx_coop, rx_coop); each message also lands on its
    link in ``links`` = (tx_off, rx_off, tx_use, rx_use).  The
    per-cell scratch ``cells`` = (shared_by, below, level) serves calls on
    disjoint ``nodes``: below and level are 0 and None again after each subnet.
    It holds every numbered cell; a neighbour past it is a cell no route reaches."""
    roles = assoc.roles
    scheme = assoc.scheme
    D = assoc.D
    interference, tx_adj, rx_adj = adjs
    tx_off, rx_off, tx_use, rx_use = links
    tx_cell = net.tx_cell
    fast, slow = Role.FAST, Role.SLOW
    shared_by, below, level = cells

    precancel = 0
    fast_share = 0
    try:
        for k in nodes:
            if roles[k] is not fast:
                continue
            src = tx_cell[k]
            shared_by[src] = k  # a fast node shares once per neighbouring cell, never with its own
            cell_links = rx_adj[src]
            for j in interference[k]:
                if roles[j] is not slow:
                    continue
                precancel += 1
                tx_use[tx_off[j] + tx_adj[j].index(k)] += 1
                c = tx_cell[j]
                if shared_by[c] != k:
                    shared_by[c] = k
                    fast_share += 1
                    rx_use[rx_off[src] + cell_links.index(c)] += 1
    except ValueError:  # ``index`` found no link for the message from j to k: name it
        graph, u, v = ("tx_coop", j, k) if k not in tx_adj[j] else ("rx_coop", src, tx_cell[j])
        raise ValueError(f"fast node {k} hears slow node {j}, but {graph} has no link "
                         f"{u} -> {v}") from None

    side = scheme.comp_side
    if side == "tx":
        coop, off, use = tx_adj, tx_off, tx_use
    else:
        coop, off, use = rx_adj, rx_off, rx_use
    wyner = net.model == WYNER
    fast_master_saves = scheme is Scheme.BOTH_COMP_RX and wyner
    members, starts, masters, hop = subnets.members, subnets.starts, subnets.masters, subnets.hop
    fanin = 0
    fast_master_saved = 0
    q_dedup = 0
    for i in indices:
        master = masters[i]
        if master is None:  # no master, no hops
            continue
        comp = members[starts[i]:starts[i + 1]]
        reached = []  # the cells with a hop, once each, with that hop in level
        for k in comp:
            if (g := hop[k]) is not None:
                c = tx_cell[k]
                if level[c] is None:
                    level[c] = g
                    reached.append(c)
                if g and roles[k] is slow:
                    fanin += g
                    below[c] += 1  # slow members in c's subtree
        if fast_master_saves and roles[master] is fast:
            fast_master_saved += sum(1 for j in interference[master] if roles[j] is slow)
        if scheme is Scheme.BOTH_COMP_TX:
            if wyner:
                q_dedup += D // 2 - (roles[master] is not fast)
            else:
                q_dedup += 6 if roles[master] is fast else 0
                q_dedup += 2 * sum(1 for k in comp
                                   if roles[k] is fast and 1 <= (hop[k] or 0) <= D // 2 - 2)

        # leaves first, each cell sends its subtree's count to the first cell of its adjacency
        # (in unit-step order) one hop nearer that links to it both ways
        reached.sort(key=level.__getitem__, reverse=True)
        for c in reached:
            g = level[c] - 1
            level[c] = None  # the cells after c are no farther, so none looks it up
            n = below[c]
            if not n:
                continue
            below[c] = 0
            if g < 0:  # the master
                continue
            for i, p in enumerate(coop[c]):
                try:
                    if level[p] != g:
                        continue
                except IndexError:  # a cell past the scratch is not numbered, so not reached
                    continue
                if c in (back := coop[p]):
                    break
            else:
                raise ValueError(f"cell {c} has no link both ways in {side}_coop to a cell "
                                 f"one hop nearer master {master}")
            use[off[c] + i] += n
            use[off[p] + back.index(c)] += n
            below[p] += n
    return precancel, fast_share, fanin, fast_master_saved, q_dedup


def finite_prelogs(report: LoadReport, net: Network) -> tuple[Fraction, Fraction]:
    """Prelogs normalized by the actual finite link counts of the network."""
    out = []
    for total, q in ((report.tx_message_total, net.q_tx),
                     (report.rx_message_total, net.q_rx)):
        if total and not q:
            raise ZeroDivisionError("scheme requires cooperation on a network without links")
        out.append(Fraction(report.L * total, q) if q else Fraction(0))
    return out[0], out[1]


def _edge_offsets(adj: tuple[tuple[int, ...], ...], nodes) -> dict[int, int]:
    """Directed edge u -> adj[u][i] of each of ``nodes`` has index offsets[u] + i, numbered in
    the order of ``nodes``; offsets[-1] is their edge count."""
    off = {}
    total = 0
    for u in nodes:
        off[u] = total
        total += len(adj[u])
    off[-1] = total
    return off
