"""Region geometry: hulls, time shares, regime vertex sets, outer bound."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from mgnet import (HEX, SECTORED, WYNER, HalfPlane, MgPoint, MgRegion, Scheme,
                   achievable_region, boundary_polyline, check_params, contains,
                   convex_hull, is_subset, outer_bound_wyner, outer_polygon_wyner,
                   region_subset)
from mgnet.loads import formulas
from mgnet.regions import _MIXED, _SLOW_ONLY, _cross, _scaled_formulas, _share


# --- Oracle: the per-model region assembly the library used to have -------
# One branch per model with its own budget regimes (case1/2/3) and blend
# fractions computed through an infinity sentinel.  ``achievable_region``
# must give the same vertices; the shares must equal these fractions.

_INF = object()


def _ratio(avail, required):
    if avail < 0:
        raise ValueError("prelogs must be nonnegative")
    if required <= 0:
        return _INF
    return F(avail, 1) / required


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


def _clamp01(x):
    if x is _INF or x > 1:
        return F(1)
    return max(F(0), x)


def ref_alpha_wyner(mu_tx, mu_rx, D, L):
    f = formulas(WYNER, D, L)
    a = _fmin(_ratio(mu_tx, f["mu_r_tx"]), _ratio(mu_rx, f["mu_r_rx"]))
    b = _fmin(_ratio(mu_tx, f["mu_t_tx"]), _ratio(mu_rx, f["mu_t_rx"]))
    return _clamp01(_fmax(a, b))


def ref_alphas_hex(mu_tx, mu_rx, D, L):
    f = formulas(HEX, D, L)
    a = _fmin(_ratio(mu_tx, f["mu_r_tx"]), _ratio(mu_rx, f["mu_r_rx"]))
    b = _fmin(_ratio(mu_tx, f["mu_t_tx"]), _ratio(mu_rx, f["mu_t_rx"]))
    alpha1 = _clamp01(_fmax(a, b))
    alpha2 = _clamp01(_fmax(_ratio(mu_tx, f["mu_s_tx"]), _ratio(mu_rx, f["mu_s_rx"])))
    return alpha1, alpha2


def ref_alphas_sectored(mu_tx, mu_rx, D, L):
    f = formulas(SECTORED, D, L)
    alpha1 = _clamp01(_ratio(mu_tx, f["mu_r_tx"]))
    alpha2 = _clamp01(_fmin(_ratio(mu_tx, f["mu_r_tx"]), _ratio(mu_rx, f["mu_r_rx"])))
    return alpha1, alpha2


def ref_region(model, D, L, mu_tx, mu_rx):
    if mu_tx < 0 or mu_rx < 0:
        raise ValueError("prelogs must be nonnegative")
    check_params(model, Scheme.BOTH_COMP_RX, D, L)
    mu_tx, mu_rx = F(mu_tx), F(mu_rx)
    f = formulas(model, D, L)
    zero = F(0)
    s_nc, s_max = f["s_nocoop"], f["s_max"]
    s_f, s_s = f["s_f_both"], f["s_s_both"]
    pts = [MgPoint(zero, zero), MgPoint(s_nc, zero)]
    if model == WYNER:
        alpha = ref_alpha_wyner(mu_tx, mu_rx, D, L)
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
        alpha1, alpha2 = ref_alphas_hex(mu_tx, mu_rx, D, L)
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
        alpha1, alpha2 = ref_alphas_sectored(mu_tx, mu_rx, D, L)
        pts.append(MgPoint(zero, alpha2 * s_max + (1 - alpha2) * s_nc))
        pts.append(MgPoint(alpha2 * s_f + (1 - alpha2) * s_nc, alpha2 * s_s))
        case1 = mu_rx >= f["mu_r_rx"] and mu_tx >= f["mu_r_tx"]
        case2 = mu_rx >= f["mu_s_rx"] and mu_tx < f["mu_r_tx"]
        if case1:
            pts += [MgPoint(zero, s_max), MgPoint(s_f, s_s)]
        if case2:
            pts += [MgPoint(zero, s_max),
                    MgPoint(alpha1 * s_f, alpha1 * s_s + (1 - alpha1) * s_max)]
    return MgRegion(_fraction_hull(pts))


def share(model, D, L, variants, mu_tx, mu_rx):
    """The library's integer share rule, read back as a Fraction."""
    p, q = _share(_scaled_formulas(model, D, L), variants,
                  mu_tx.as_integer_ratio(), mu_rx.as_integer_ratio())
    return F(p, q)


def shares(model, mu_tx, mu_rx, D, L):
    """(mixed, slow-only) time shares of the library rule."""
    return (share(model, D, L, _MIXED, mu_tx, mu_rx),
            share(model, D, L, _SLOW_ONLY, mu_tx, mu_rx))


def oracle_cases(max_D, Ls):
    for model in (WYNER, HEX, SECTORED):
        for D in range(2, max_D + 1):
            for L in Ls:
                try:
                    check_params(model, Scheme.BOTH_COMP_RX, D, L)
                except ValueError:
                    continue
                yield model, D, L


def _is_reduced(x):
    return type(x) is F and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("model,D,L", list(oracle_cases(14, range(1, 6))))
def test_region_equals_per_model_oracle(model, D, L):
    # zero and seeded random budgets with denominators up to 97; at L = 1
    # and 3 also budgets at and on both sides of every prelog requirement,
    # where a regime can switch
    needs = [v for k, v in formulas(model, D, L).items() if k.startswith("mu_")]
    rng = random.Random(f"{model}-{D}-{L}")
    top = math.ceil(max(needs)) + 1
    budgets = {F(0)}
    for _ in range(8):
        q = rng.randint(1, 97)
        budgets.add(F(rng.randint(0, top * q), q))
    if L in (1, 3):
        eps = F(1, 1000)
        budgets |= {v + d for v in needs for d in (-eps, 0, eps) if v + d >= 0}
    for mu_tx in sorted(budgets):
        for mu_rx in sorted(budgets):
            region = achievable_region(model, D, L, mu_tx, mu_rx)
            assert region == ref_region(model, D, L, mu_tx, mu_rx), (mu_tx, mu_rx)
            assert all(_is_reduced(c) for p in region.vertices for c in p), region


def test_shares_wyner_examples():
    for mu_tx, mu_rx, alpha in ((F(9, 8), F(21, 8), 1), (F(0), F(0), 0),
                                (F(1, 2), F(9, 2), F(4, 9))):
        assert ref_alpha_wyner(mu_tx, mu_rx, 6, 3) == alpha
        assert shares(WYNER, mu_tx, mu_rx, 6, 3)[0] == alpha


def test_shares_hex_examples():
    for alphas in (ref_alphas_hex, lambda *a: shares(HEX, *a)):
        a1, _ = alphas(F(5, 8), F(7, 4), 8, 3)
        assert a1 == 1
        _, a2 = alphas(F(1, 10), F(12, 5), 8, 3)
        assert a2 == 1
        assert alphas(F(0), F(0), 8, 3) == (0, 0)


def test_shares_hex_negative_requirement_never_binds():
    # at D=2 the CoMP-transmission prelog formula is negative, so that
    # direction is requirement-free and must not cap the blend
    f = formulas(HEX, 2, 3)
    assert f["mu_t_tx"] < 0
    # mu_t_rx = 0.185..., mu_rx=1 exceeds it; tx side is free
    assert ref_alphas_hex(F(1, 100), F(1), 2, 3)[0] == 1
    assert share(HEX, 2, 3, _MIXED, F(1, 100), F(1)) == 1
    assert share(HEX, 2, 3, (("mu_t_tx", "mu_t_rx"),), F(0), F(1)) == 1


def test_share_of_a_variant_the_model_lacks_is_zero():
    f = formulas(SECTORED, 4, 3)  # no CoMP-transmission keys, no mu_s_tx
    assert "mu_t_tx" not in f and "mu_s_tx" not in f
    assert share(SECTORED, 4, 3, (("mu_t_tx", "mu_t_rx"),), F(100), F(100)) == 0
    assert share(SECTORED, 4, 3, (("mu_s_tx", None),), F(100), F(100)) == 0
    assert share(SECTORED, 4, 3, _SLOW_ONLY, F(100), F(100)) == 1  # the rx-side variant


def test_shares_sectored_examples():
    tx_only = (("mu_r_tx", None),)  # the oracle's alpha1

    def both(mu_tx, mu_rx):
        return (share(SECTORED, 4, 3, tx_only, mu_tx, mu_rx),
                share(SECTORED, 4, 3, _MIXED, mu_tx, mu_rx))

    assert ref_alphas_sectored(F(3, 4), F(9, 4), 4, 3) == (1, 1)
    assert both(F(3, 4), F(9, 4)) == (1, 1)
    assert ref_alphas_sectored(F(1, 10), F(3), 4, 3) == (F(2, 15), F(2, 15))
    assert both(F(1, 10), F(3)) == (F(2, 15), F(2, 15))
    assert ref_alphas_sectored(F(0), F(7), 4, 3) == (0, 0)
    assert both(F(0), F(7)) == (0, 0)


def test_convex_hull_examples():
    tri = convex_hull([MgPoint(F(0), F(0)), MgPoint(F(1), F(0)), MgPoint(F(0), F(1))])
    assert len(tri.vertices) == 3
    tri2 = convex_hull([MgPoint(F(0), F(0)), MgPoint(F(1), F(0)),
                        MgPoint(F(0), F(1)), MgPoint(F(1, 4), F(1, 4))])
    assert tri2 == tri  # interior point dropped


def test_convex_hull_of_no_points_raises():
    with pytest.raises(ValueError, match="need at least one point"):
        convex_hull([])


def test_case2_hull_has_five_vertices():
    region = achievable_region(WYNER, 6, 3, F(1, 2), F(9, 2))
    assert len(region.vertices) == 5
    assert MgPoint(F(2, 3), F(47, 24)) in region.vertices
    assert MgPoint(F(3, 2), F(1, 2)) in region.vertices


points = st.tuples(st.integers(-20, 20), st.integers(1, 9)).map(lambda t: F(t[0], t[1]))


@given(st.lists(st.tuples(points, points), min_size=1, max_size=12))
def test_hull_contains_inputs_and_is_idempotent(pts):
    mg = [MgPoint(a, b) for a, b in pts]
    hull = convex_hull(mg)
    assert all(contains(hull, p) for p in mg)
    assert convex_hull(list(hull.vertices)) == hull


def _fraction_hull(points):
    """The monotone chain with Fraction cross products, kept as an oracle."""
    pts = sorted(set(MgPoint(F(a), F(b)) for a, b in points))
    if len(pts) <= 2:
        return tuple(pts)
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return tuple(hull) if len(hull) >= 3 else (pts[0], pts[-1])


big_primes = st.sampled_from([999983, 1000003, 1000033, 2**31 - 1, 2**61 - 1])
wide = st.one_of(
    points,
    st.tuples(st.integers(-10**12, 10**12), big_primes).map(lambda t: F(t[0], t[1])),
    st.fractions(min_value=-5, max_value=5, max_denominator=10**9),
)
point_lists = st.lists(st.tuples(wide, wide), min_size=1, max_size=16)


@given(st.one_of(
    point_lists,
    # duplicates: every point drawn from a pool of at most three
    st.lists(st.tuples(points, points), min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)),
    # collinear: points on one line through a rational base point
    st.tuples(wide, wide, wide, wide, st.lists(wide, min_size=1, max_size=8)).map(
        lambda t: [(t[0] + k * t[2], t[1] + k * t[3]) for k in t[4]]),
))
def test_hull_equals_fraction_oracle(pts):
    assert convex_hull([MgPoint(a, b) for a, b in pts]).vertices == _fraction_hull(pts)


@pytest.mark.parametrize("pts", [
    [(F(1, 3), F(-2, 7))],
    [(F(1, 3), F(-2, 7)), (F(1, 3), F(-2, 7))],
    [(F(1, 3), F(-2, 7)), (F(-5, 11), F(4, 13))],
    [(F(0), F(0)), (F(1, 999983), F(1, 1000003)), (F(2, 999983), F(2, 1000003))],
    [(F(0), F(0)), (F(1, 999983), F(1, 1000003)), (F(1, 1000003), F(1, 999983))],
])
def test_hull_equals_fraction_oracle_small_cases(pts):
    assert convex_hull([MgPoint(a, b) for a, b in pts]).vertices == _fraction_hull(pts)


@pytest.mark.parametrize("call", [
    lambda: formulas(HEX, 0, 3),
    lambda: formulas(SECTORED, 0, 3),
    lambda: achievable_region(HEX, 0, 3, F(1), F(1)),
    lambda: achievable_region(SECTORED, 0, 3, F(1), F(1)),
])
def test_d0_closed_forms_raise_value_error(call):
    with pytest.raises(ValueError, match="D=0"):
        call()


def test_outer_bound_examples():
    hp = outer_bound_wyner(6, 3)
    assert HalfPlane(F(1), F(0), F(3, 2)) in hp
    assert HalfPlane(F(1), F(1), F(21, 8)) in hp
    assert any(h.c == F(11, 4) for h in outer_bound_wyner(10, 3))
    assert any(h == HalfPlane(F(1), F(1), F(1)) for h in outer_bound_wyner(0, 2))


def test_full_budget_region_equals_outer_polygon():
    for mu_tx, mu_rx in ((F(9, 8), F(21, 8)), (F(9, 4), F(9, 8)), (F(5), F(5))):
        region = achievable_region(WYNER, 6, 3, mu_tx, mu_rx)
        assert region == outer_polygon_wyner(6, 3)
        assert is_subset(region, outer_bound_wyner(6, 3))


def test_low_tx_budget_boundary_slopes():
    region = achievable_region(WYNER, 6, 3, F(1, 2), F(9, 2))
    v = {p.s_f: p for p in region.vertices}
    p0, p1, p2 = v[F(0)], v[F(2, 3)], v[F(3, 2)]
    assert p0.s_s == F(21, 8)
    slope1 = (p1.s_s - p0.s_s) / (p1.s_f - p0.s_f)
    slope2 = (p2.s_s - p1.s_s) / (p2.s_f - p1.s_f)
    assert slope1 == -1
    assert slope2 == F(-7, 4)


def test_sum_mg_preserved_along_case2_knee():
    # the low-mu_tx knee always sits on the maximum sum-MG line
    D, L = 6, 3
    cap = F(L * (D + 1), D + 2)
    for mu_tx in (F(1, 8), F(1, 4), F(1, 2), F(9, 10)):
        region = achievable_region(WYNER, D, L, mu_tx, F(9, 2))
        alpha, _ = shares(WYNER, mu_tx, F(9, 2), D, L)
        assert alpha == ref_alpha_wyner(mu_tx, F(9, 2), D, L) < 1
        f = formulas(WYNER, D, L)
        knee = MgPoint(alpha * f["s_f_both"],
                       alpha * f["s_s_both"] + (1 - alpha) * f["s_max"])
        assert knee.s_f + knee.s_s == cap
        assert contains(region, knee)


def test_inner_subset_of_outer_on_grid():
    hp = outer_bound_wyner(6, 3)
    grid = [F(i, 4) for i in range(0, 20)]
    for mu_tx in grid:
        for mu_rx in grid:
            region = achievable_region(WYNER, 6, 3, mu_tx, mu_rx)
            assert is_subset(region, hp)


def test_monotone_in_each_prelog():
    for model, D in ((WYNER, 6), (HEX, 8), (SECTORED, 4)):
        grid = [F(0), F(1, 2), F(1), F(2), F(3)]
        regions = {(tx, rx): achievable_region(model, D, 3, tx, rx)
                   for tx in grid for rx in grid}
        for i, tx in enumerate(grid):
            for j, rx in enumerate(grid):
                if i + 1 < len(grid):
                    assert region_subset(regions[(tx, rx)], regions[(grid[i + 1], rx)])
                if j + 1 < len(grid):
                    assert region_subset(regions[(tx, rx)], regions[(tx, grid[j + 1])])


def test_origin_in_every_region():
    zero = MgPoint(F(0), F(0))
    for model, D in ((WYNER, 6), (HEX, 8), (SECTORED, 4)):
        for mu in (F(0), F(1), F(10)):
            assert contains(achievable_region(model, D, 3, mu, mu), zero)


def test_hex_sum_mg_penalty():
    # whenever the mixed scheme's sum MG is below the slow-only maximum,
    # any point with positive fast MG loses sum MG
    D, L = 8, 3
    f = formulas(HEX, D, L)
    assert f["s_f_both"] + f["s_s_both"] < f["s_max"]
    for mu_tx, mu_rx in ((F(5, 8), F(12, 5)), (F(12, 5), F(12, 5)), (F(1), F(3))):
        region = achievable_region(HEX, D, L, mu_tx, mu_rx)
        at_zero = max(p.s_s for p in region.vertices if p.s_f == 0)
        best_positive = max(p.s_f + p.s_s for p in region.vertices if p.s_f > 0)
        assert best_positive < at_zero


def test_hex_middle_budget_vertical_intercept():
    # middle-budget regime lists the vertical intercept at s_f_both + s_s_both
    region = achievable_region(HEX, 8, 3, F(5, 8), F(7, 4))
    assert MgPoint(F(0), F(37, 16)) in region.vertices  # 13/16 + 3/2


def test_region_rejects_bad_args():
    with pytest.raises(ValueError):
        achievable_region(HEX, 6, 3, F(1), F(1))
    with pytest.raises(ValueError):
        achievable_region(WYNER, 5, 3, F(1), F(1))
    with pytest.raises(ValueError):
        achievable_region(WYNER, 6, 3, F(-1), F(1))
    with pytest.raises(ValueError):
        achievable_region(WYNER, 6, 3, F(1), F(-1))


def test_sectorized_gap_parameters_still_get_a_region():
    # budgets between the named regimes: mu_rx above the mixed requirement
    # but below the slow-only one, mu_tx below the mixed requirement
    region = achievable_region(SECTORED, 4, 3, F(1, 2), F(5, 2))
    assert len(region.vertices) >= 4
    assert contains(region, MgPoint(F(1), F(0)))


budgets = st.tuples(st.integers(0, 40), st.integers(1, 8)).map(lambda t: F(t[0], t[1]))


@given(budgets, budgets, budgets)
def test_shares_clamped_and_monotone(mu_tx, mu_rx, bump):
    for model, D in ((WYNER, 6), (HEX, 8), (SECTORED, 4)):
        now = shares(model, mu_tx, mu_rx, D, 3)
        more_tx = shares(model, mu_tx + bump, mu_rx, D, 3)
        more_rx = shares(model, mu_tx, mu_rx + bump, D, 3)
        for a, b, c in zip(now, more_tx, more_rx):
            assert 0 <= a <= 1
            assert b >= a and c >= a


@given(budgets, budgets)
def test_shares_equal_oracle_alphas(mu_tx, mu_rx):
    a = ref_alpha_wyner(mu_tx, mu_rx, 6, 3)
    a1, a2 = ref_alphas_hex(mu_tx, mu_rx, 8, 3)
    b1, b2 = ref_alphas_sectored(mu_tx, mu_rx, 4, 3)
    for x in (a, a1, a2, b1, b2):
        assert 0 <= x <= 1
    assert shares(WYNER, mu_tx, mu_rx, 6, 3)[0] == a
    assert shares(HEX, mu_tx, mu_rx, 8, 3) == (a1, a2)
    assert shares(SECTORED, mu_tx, mu_rx, 4, 3)[0] == b2


@pytest.mark.parametrize("call", [
    lambda: outer_polygon_wyner(-1, 3),  # used to give the vertex (3/2, -3/2)
    lambda: outer_polygon_wyner(-2, 3),  # used to divide by D + 2 = 0
    lambda: outer_bound_wyner(-1, 3),
    lambda: outer_bound_wyner(6, 0),
    lambda: outer_polygon_wyner(6, 0),
])
def test_outer_bound_rejects_bad_d_or_l(call):
    with pytest.raises(ValueError, match="D=-|L=0"):
        call()


def _fraction_polyline(region):
    """``boundary_polyline`` by its definition, kept as an oracle: the vertices but the
    origin, sorted by the Fraction key (s_f, -s_s)."""
    return sorted((p for p in region.vertices if p != (0, 0)), key=lambda p: (p.s_f, -p.s_s))


# few distinct coordinates: the origin, shared s_f (vertical edges), single points, segments
coarse = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(lambda t: F(*t))
hull_regions = st.one_of(st.lists(st.tuples(coarse, coarse), min_size=1, max_size=8),
                         point_lists).map(lambda pts: convex_hull([MgPoint(*p) for p in pts]))
achieved_regions = st.builds(
    lambda model_d, L, mu_tx, mu_rx: achievable_region(*model_d, L, mu_tx, mu_rx),
    st.sampled_from([(WYNER, 2), (WYNER, 6), (WYNER, 10), (HEX, 2), (HEX, 8), (HEX, 14),
                     (SECTORED, 2), (SECTORED, 4)]), st.integers(1, 5), budgets, budgets)


@example(MgRegion((MgPoint(F(0), F(0)),)))
@example(MgRegion((MgPoint(F(1, 2), F(1, 3)),)))
@example(convex_hull([MgPoint(F(1), F(1)), MgPoint(F(1), F(3))]))
@example(convex_hull([MgPoint(F(x), F(y)) for x in (1, 2) for y in (1, 3)]))
@example(outer_polygon_wyner(6, 3))
@settings(derandomize=True)
@given(hull_regions | achieved_regions)
def test_boundary_polyline_equals_its_fraction_key_definition(region):
    assert boundary_polyline(region) == _fraction_polyline(region)
