"""Achievable multiplexing-gain regions and the linear outer bound.

A region is the convex hull of the MG pairs reachable by time-sharing the
four schemes.  For prelog budgets below a scheme's requirement the scheme
runs a fraction alpha of the time (interleaved with the cooperation-free
scheme or with the slow-only scheme), scaling both its MG contribution and
its prelog consumption by alpha; the blend coefficients are the clamped
ratios of available to required prelogs.

Region assembly always includes the blend vertices (they are achievable
for every budget) and adds the full-scheme vertices whenever the budget
regime admits them, taking the convex hull of the union.  This keeps the
region monotone in both budgets and covers budget combinations that fall
between the named regimes.

All geometry is exact rational arithmetic; no tolerances anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .association import Scheme, check_params
from .loads import formulas
from .rationals import ratio_to_json
from .topology import HEX, SECTORED, WYNER


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


def convex_hull(points: list[MgPoint]) -> MgRegion:
    """Monotone-chain hull; collinear boundary points are dropped.

    The orientation tests run on integers: every point is scaled by the lcm
    of all denominators, which keeps the sort order and every cross-product
    sign, so the hull is the exact rational one.
    """
    if not points:
        raise ValueError("need at least one point")
    pts = sorted(set(MgPoint(Fraction(p[0]), Fraction(p[1])) for p in points))
    if len(pts) <= 2:
        return MgRegion(tuple(pts))
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    xy = [(p.s_f.numerator * (scale // p.s_f.denominator),
           p.s_s.numerator * (scale // p.s_s.denominator)) for p in pts]
    idx = range(len(pts))
    hull = _chain(idx, xy)[:-1] + _chain(reversed(idx), xy)[:-1]
    if len(hull) < 3:  # all points collinear
        return MgRegion((pts[0], pts[-1]))
    return MgRegion(tuple(pts[i] for i in hull))


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
    if D < 0:
        raise ValueError("D must be >= 0")
    F = Fraction
    return [
        HalfPlane(F(1), F(0), F(L, 2)),
        HalfPlane(F(1), F(1), F(L * (D + 1), D + 2)),
        HalfPlane(F(-1), F(0), F(0)),
        HalfPlane(F(0), F(-1), F(0)),
    ]


def outer_polygon_wyner(D: int, L: int) -> MgRegion:
    F = Fraction
    c = F(L * (D + 1), D + 2)
    return convex_hull([MgPoint(F(0), F(0)), MgPoint(F(0), c),
                        MgPoint(F(L, 2), c - F(L, 2)), MgPoint(F(L, 2), F(0))])


_INF = object()


def _ratio(avail: Fraction, required: Fraction):
    """Available/required budget ratio; a nonpositive requirement never binds."""
    if avail < 0:
        raise ValueError("prelogs must be nonnegative")
    if required <= 0:
        return _INF
    return Fraction(avail, 1) / required


def _fmin(x, y):
    if x is _INF:
        return y
    if y is _INF:
        return x
    return min(x, y)


def _fmax(x, y):
    if x is _INF or y is _INF:
        return _INF
    return max(x, y)


def _clamp01(x) -> Fraction:
    if x is _INF or x > 1:
        return Fraction(1)
    return max(Fraction(0), x)


def alpha_wyner(mu_tx: Fraction, mu_rx: Fraction, D: int, L: int) -> Fraction:
    """Best time-sharing fraction of the mixed scheme affordable at these budgets."""
    f = formulas(WYNER, D, L)
    a = _fmin(_ratio(mu_tx, f["mu_r_tx"]), _ratio(mu_rx, f["mu_r_rx"]))
    b = _fmin(_ratio(mu_tx, f["mu_t_tx"]), _ratio(mu_rx, f["mu_t_rx"]))
    return _clamp01(_fmax(a, b))


def alphas_hex(mu_tx: Fraction, mu_rx: Fraction, D: int, L: int) -> tuple[Fraction, Fraction]:
    f = formulas(HEX, D, L)
    a = _fmin(_ratio(mu_tx, f["mu_r_tx"]), _ratio(mu_rx, f["mu_r_rx"]))
    b = _fmin(_ratio(mu_tx, f["mu_t_tx"]), _ratio(mu_rx, f["mu_t_rx"]))
    alpha1 = _clamp01(_fmax(a, b))
    alpha2 = _clamp01(_fmax(_ratio(mu_tx, f["mu_s_tx"]), _ratio(mu_rx, f["mu_s_rx"])))
    return alpha1, alpha2


def alphas_sectored(mu_tx: Fraction, mu_rx: Fraction, D: int, L: int) -> tuple[Fraction, Fraction]:
    f = formulas(SECTORED, D, L)
    alpha1 = _clamp01(_ratio(mu_tx, f["mu_r_tx"]))
    alpha2 = _clamp01(_fmin(_ratio(mu_tx, f["mu_r_tx"]), _ratio(mu_rx, f["mu_r_rx"])))
    return alpha1, alpha2


def achievable_region(model: str, D: int, L: int,
                      mu_tx: Fraction, mu_rx: Fraction) -> MgRegion:
    """Convex hull of all scheme blends affordable at prelog budgets (mu_tx, mu_rx)."""
    if mu_tx < 0 or mu_rx < 0:
        raise ValueError("prelogs must be nonnegative")
    check_params(model, Scheme.BOTH_COMP_RX, D, L)
    mu_tx, mu_rx = Fraction(mu_tx), Fraction(mu_rx)
    f = formulas(model, D, L)
    zero = Fraction(0)
    s_nc, s_max = f["s_nocoop"], f["s_max"]
    s_f, s_s = f["s_f_both"], f["s_s_both"]
    pts = [MgPoint(zero, zero), MgPoint(s_nc, zero)]

    if model == WYNER:
        alpha = alpha_wyner(mu_tx, mu_rx, D, L)
        pts.append(MgPoint(zero, alpha * s_max + (1 - alpha) * s_nc))
        pts.append(MgPoint(alpha * s_f + (1 - alpha) * s_nc, alpha * s_s))
        case1 = (mu_rx >= f["mu_r_rx"] and mu_tx >= f["mu_r_tx"]) or \
                (mu_rx >= f["mu_t_rx"] and mu_tx >= f["mu_t_tx"])
        case2 = (mu_rx >= f["mu_s_rx"] and mu_tx < f["mu_r_tx"]) or \
                (mu_tx >= f["mu_s_tx"] and mu_rx < f["mu_t_rx"])
        if case1:
            pts += [MgPoint(zero, s_max), MgPoint(s_f, s_s)]
        if case2:
            pts += [MgPoint(zero, s_max),
                    MgPoint(alpha * s_f, alpha * s_s + (1 - alpha) * s_max)]
    elif model == HEX:
        alpha1, alpha2 = alphas_hex(mu_tx, mu_rx, D, L)
        pts.append(MgPoint(zero, alpha2 * s_max + (1 - alpha2) * s_nc))
        pts.append(MgPoint(alpha1 * s_f + (1 - alpha1) * s_nc, alpha1 * s_s))
        case1 = (mu_rx >= max(f["mu_r_rx"], f["mu_s_rx"]) and mu_tx >= f["mu_r_tx"]) or \
                (mu_tx >= max(f["mu_t_tx"], f["mu_s_tx"]) and mu_rx >= f["mu_t_rx"])
        case2 = (f["mu_r_rx"] <= mu_rx < f["mu_s_rx"] and mu_tx >= f["mu_r_tx"]) or \
                (f["mu_t_tx"] <= mu_tx < f["mu_s_tx"] and mu_rx >= f["mu_t_rx"])
        case3 = (mu_rx >= f["mu_s_rx"] and mu_tx < f["mu_r_tx"]) or \
                (mu_tx >= f["mu_s_tx"] and mu_rx < f["mu_t_rx"])
        if case1:
            pts += [MgPoint(zero, s_max), MgPoint(s_f, s_s)]
        if case2:
            pts += [MgPoint(zero, s_f + s_s), MgPoint(s_f, s_s)]
        if case3:
            pts += [MgPoint(zero, s_max),
                    MgPoint(alpha1 * s_f, alpha1 * s_s + (1 - alpha1) * s_max)]
    else:
        alpha1, alpha2 = alphas_sectored(mu_tx, mu_rx, D, L)
        pts.append(MgPoint(zero, alpha2 * s_max + (1 - alpha2) * s_nc))
        pts.append(MgPoint(alpha2 * s_f + (1 - alpha2) * s_nc, alpha2 * s_s))
        case1 = mu_rx >= f["mu_r_rx"] and mu_tx >= f["mu_r_tx"]
        case2 = mu_rx >= f["mu_s_rx"] and mu_tx < f["mu_r_tx"]
        if case1:
            pts += [MgPoint(zero, s_max), MgPoint(s_f, s_s)]
        if case2:
            pts += [MgPoint(zero, s_max),
                    MgPoint(alpha1 * s_f, alpha1 * s_s + (1 - alpha1) * s_max)]
    return convex_hull(pts)


def boundary_polyline(region: MgRegion) -> list[MgPoint]:
    """Upper-right boundary from the vertical-axis intercept down to (s_f_max, 0)."""
    pts = [p for p in region.vertices if p != MgPoint(Fraction(0), Fraction(0))]
    return sorted(pts, key=lambda p: (p.s_f, -p.s_s))
