"""Achievable multiplexing-gain regions and the linear outer bound.

A region is the convex hull of the (fast MG, slow MG) pairs reachable by
time-sharing the mixed, slow-only and cooperation-free schemes at prelog
budgets (mu_tx, mu_rx).  One rule serves every model, read from its
``formulas`` table.  A scheme's share is the largest fraction of time,
at most 1, that the budgets afford one of its variants: min(1, have/need)
over the variant's requirements, where a nonpositive requirement never
binds.  With m the mixed share, the hull takes (0, 0), (s_nc, 0), the
slow-only point (0, a s_max + (1 - a) s_nc) and the mixed blend
(m s_f + (1 - m) s_nc, m s_s); at m = 1 it adds (0, s_f + s_s), and at
m < 1 with a slow-only share of 1 it adds (0, s_max) and the knee
(m s_f, m s_s + (1 - m) s_max).  The one per-model choice is a: the hex
slow-only point is scaled by the slow-only share, every other model's by m.

One integer hull serves the library and the command line: ``_region_pairs``
scales ``formulas`` once to numerators over their lcm Q (cached per model, D
and L) and hulls integer pairs over one denominator.  ``achievable_region``,
``convex_hull`` and ``outer_polygon_wyner`` are Fraction views of such hulls.

All geometry is exact rational arithmetic; no tolerances anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .association import Scheme, check_params
from .loads import SCHEME_KEYS, formulas
from .rationals import ratio_to_json
from .topology import HEX, WYNER


class MgPoint(NamedTuple):
    s_f: Fraction
    s_s: Fraction


class HalfPlane(NamedTuple):
    """a * s_f + b * s_s <= c"""
    a: Fraction
    b: Fraction
    c: Fraction


@dataclass(frozen=True)
class MgRegion:
    vertices: tuple[MgPoint, ...]  # counter-clockwise, starting at the lexicographic minimum

    def to_json_dict(self, model: str, D: int, L: int,
                     mu_tx: Fraction, mu_rx: Fraction) -> dict:
        return {
            "model": model, "D": D, "L": L,
            "mu_tx": ratio_to_json(mu_tx), "mu_rx": ratio_to_json(mu_rx),
            "vertices": [[ratio_to_json(p.s_f), ratio_to_json(p.s_s)] for p in self.vertices],
        }


def _cross(o: MgPoint, a: MgPoint, b: MgPoint) -> Fraction:
    return (a.s_f - o.s_f) * (b.s_s - o.s_s) - (a.s_s - o.s_s) * (b.s_f - o.s_f)


def _chain(order, xy: list[tuple[int, int]]) -> list[int]:
    """One monotone-chain pass over integer points; returns the kept indices."""
    kept: list[int] = []
    for i in order:
        x, y = xy[i]
        while len(kept) >= 2:
            ox, oy = xy[kept[-2]]
            ax, ay = xy[kept[-1]]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            kept.pop()
        kept.append(i)
    return kept


def _hull(xy: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Hull vertices of integer points, counter-clockwise from the lexicographic minimum;
    the exact hull of the points read as (x/den, y/den) too, for one den > 0 keeps the
    lexicographic order and every cross-product sign of the rationals they stand for."""
    pts = sorted(set(xy))
    if len(pts) > 2:
        idx = range(len(pts))
        hull = _chain(idx, pts)[:-1] + _chain(reversed(idx), pts)[:-1]
        # fewer than 3 kept means all points are collinear
        pts = [pts[i] for i in hull] if len(hull) >= 3 else [pts[0], pts[-1]]
    return pts


def _view(pairs: list[tuple[int, int]], den: int) -> MgRegion:
    """The region whose vertices are ``pairs`` read as (x/den, y/den)."""
    return MgRegion(tuple(MgPoint(Fraction(x, den), Fraction(y, den)) for x, y in pairs))


def convex_hull(points: list[MgPoint]) -> MgRegion:
    """Monotone-chain hull (``_hull`` of the points scaled by the lcm of all their
    denominators); collinear boundary points are dropped."""
    if not points:
        raise ValueError("need at least one point")
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    return _view(_hull([(x.numerator * (scale // x.denominator),
                         y.numerator * (scale // y.denominator)) for x, y in pts]), scale)


def contains(region: MgRegion, p: MgPoint) -> bool:
    """Exact point-in-convex-polygon test (boundary counts as inside)."""
    v = region.vertices
    p = MgPoint(Fraction(p[0]), Fraction(p[1]))
    if len(v) == 1:
        return p == v[0]
    if len(v) == 2:
        return _cross(v[0], v[1], p) == 0 and \
            min(v[0].s_f, v[1].s_f) <= p.s_f <= max(v[0].s_f, v[1].s_f) and \
            min(v[0].s_s, v[1].s_s) <= p.s_s <= max(v[0].s_s, v[1].s_s)
    return all(_cross(v[i], v[(i + 1) % len(v)], p) >= 0 for i in range(len(v)))


def is_subset(region: MgRegion, halfplanes: list[HalfPlane]) -> bool:
    return all(h.a * p.s_f + h.b * p.s_s <= h.c for p in region.vertices for h in halfplanes)


def region_subset(inner: MgRegion, outer: MgRegion) -> bool:
    return all(contains(outer, p) for p in inner.vertices)


def outer_bound_wyner(D: int, L: int) -> list[HalfPlane]:
    """Cap on the fast MG and on the sum MG, plus nonnegativity."""
    check_params(WYNER, Scheme.NO_COOP, D, L)
    F = Fraction
    return [
        HalfPlane(F(1), F(0), F(L, 2)),
        HalfPlane(F(1), F(1), F(L * (D + 1), D + 2)),
        HalfPlane(F(-1), F(0), F(0)),
        HalfPlane(F(0), F(-1), F(0)),
    ]


def _outer_pairs(D: int, L: int) -> tuple[list[tuple[int, int]], int]:
    """``outer_polygon_wyner`` as hull pairs over 2(D+2)."""
    check_params(WYNER, Scheme.NO_COOP, D, L)
    c, h = 2 * L * (D + 1), L * (D + 2)
    return _hull([(0, 0), (0, c), (h, c - h), (h, 0)]), 2 * (D + 2)


def outer_polygon_wyner(D: int, L: int) -> MgRegion:
    return _view(*_outer_pairs(D, L))


# Each scheme's variants as the (tx, rx) requirement columns of their
# ``SCHEME_KEYS`` rows; None marks a side the variant does not need.
_MIXED = tuple(SCHEME_KEYS[s][2:] for s in (Scheme.BOTH_COMP_RX, Scheme.BOTH_COMP_TX))
_SLOW_ONLY = tuple(SCHEME_KEYS[s][2:] for s in (Scheme.SLOW_COMP_RX, Scheme.SLOW_COMP_TX))


# Pays off only when one process asks for the same (model, D, L) again, as a
# batch of region or figure queries does; a one-shot ``mgnet region`` misses
# once.  128 entries hold twice the 65 keys the query benchmark cycles
# through (13 values of D over the three models, L 1..5), under 1 kB each.
@functools.lru_cache(maxsize=128)
def _scaled_formulas(model: str, D: int, L: int) -> tuple[int, dict[str, int]]:
    """``formulas(model, D, L)`` as integer numerators over their lcm Q: (Q, numerators)."""
    f = formulas(model, D, L)
    scale = math.lcm(*(v.denominator for v in f.values()))
    return scale, {k: v.numerator * (scale // v.denominator) for k, v in f.items()}


def _share(table: tuple[int, dict[str, int]], variants,
           tx: tuple[int, int], rx: tuple[int, int]) -> tuple[int, int]:
    """Largest time share (at most 1) the budgets afford any of a scheme's variants.

    ``table`` is ``_scaled_formulas`` and each budget is an integer pair
    (n, d) with d > 0; the share comes back as a pair (p, q) with q > 0.  A
    variant's share is min(1, have/need) over its requirements, where
    have/need = (n/d) / (t/Q) = nQ/(dt) for a requirement t/Q; a
    nonpositive requirement never binds, and a variant whose keys the model
    lacks gets share 0.
    """
    scale, need = table
    best_p, best_q = 0, 1
    for keys in variants:
        if any(k is not None and k not in need for k in keys):
            continue
        sp, sq = 1, 1
        for (n, d), k in zip((tx, rx), keys):
            if k is not None and need[k] > 0 and n * scale * sq < d * need[k] * sp:
                sp, sq = n * scale, d * need[k]
        if sp * best_q > best_p * sq:
            best_p, best_q = sp, sq
    return best_p, best_q


def _region_pairs(model: str, D: int, L: int, tx: tuple, rx: tuple) -> tuple[list, int]:
    """``achievable_region`` of budget pairs (n, d), d > 0, as hull pairs over den: (pairs, den)."""
    if tx[0] < 0 or rx[0] < 0:
        raise ValueError("prelogs must be nonnegative")
    table = _scaled_formulas(model, D, L)
    scale, f = table
    s_nc, s_max = f["s_nocoop"], f["s_max"]
    s_f, s_s = f["s_f_both"], f["s_s_both"]
    mp, mq = _share(table, _MIXED, tx, rx)
    slow_only = _share(table, _SLOW_ONLY, tx, rx)
    # The paper scales the hex slow-only point by its own share.  On Wyner and
    # sectorized s_f + s_s = s_max, so that point is the mixed blend with its
    # fast data sent as slow.
    ap, aq = slow_only if model == HEX else (mp, mq)
    # every point as integers over mq * aq * scale
    w = mq * aq
    pts = [(0, 0), (s_nc * w, 0),
           (0, (ap * s_max + (aq - ap) * s_nc) * mq),
           ((mp * s_f + (mq - mp) * s_nc) * aq, mp * s_s * aq)]
    if mp == mq:
        pts.append((0, (s_f + s_s) * w))
    elif slow_only[0] == slow_only[1]:
        pts += [(0, s_max * w), (mp * s_f * aq, (mp * s_s + (mq - mp) * s_max) * aq)]
    return _hull(pts), w * scale


def achievable_region(model: str, D: int, L: int,
                      mu_tx: Fraction, mu_rx: Fraction) -> MgRegion:
    """Convex hull of all scheme blends affordable at prelog budgets (mu_tx, mu_rx)."""
    return _view(*_region_pairs(model, D, L, mu_tx.as_integer_ratio(), mu_rx.as_integer_ratio()))


def _polyline(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``boundary_polyline`` of a hull given as pairs over one denominator."""
    return sorted((p for p in pairs if p[0] or p[1]), key=lambda p: (p[0], -p[1]))


def boundary_polyline(region: MgRegion) -> list[MgPoint]:
    """Upper-right boundary from the vertical-axis intercept down to (s_f_max, 0): the
    vertices but the origin by s_f up, then s_s down."""
    return sorted((p for p in region.vertices if p.s_f or p.s_s), key=lambda p: (p.s_f, -p.s_s))
