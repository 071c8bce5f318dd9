"""Nearest-master search against brute-force scans, on the torus and the plane."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from mgnet.lattice import (PlaneGeometry, TorusGeometry, _nearest_on_plane, ball, hex_distance,
                           is_master, nearest_rows, torus_canon, torus_ids)


def brute_torus_nearest(geo: TorusGeometry, masters, c):
    """Every canonical master, every wrap (i, j) in [-2, 2]^2."""
    mt = geo.tau * geo.copies
    best, hits = None, []
    for m in masters:
        for i in (-2, -1, 0, 1, 2):
            for j in (-2, -1, 0, 1, 2):
                r = (c[0] - m[0] - (i + 2 * j) * mt, c[1] - m[1] - (2 * i + j) * mt)
                d = hex_distance(r, (0, 0))
                if best is None or d < best:
                    best, hits = d, [(m, r)]
                elif d == best:
                    hits.append((m, r))
    return best, hits


def brute_plane_nearest(c, tau):
    """Every master within hex distance 3 tau, ordered by lattice index (m, n)."""
    near = []
    for a in range(c[0] - 3 * tau - c[0] % tau, c[0] + 3 * tau + 1, tau):
        for b in range(c[1] - 3 * tau - c[1] % tau, c[1] + 3 * tau + 1, tau):
            if is_master((a, b), tau) and hex_distance(c, (a, b)) <= 3 * tau:
                near.append((hex_distance(c, (a, b)), (2 * b - a, 2 * a - b), (a, b)))
    best = min(d for d, _, _ in near)
    hits = [(m, (c[0] - m[0], c[1] - m[1]))
            for d, _, m in sorted(near) if d == best]
    return best, hits


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
def test_torus_nearest_masters_matches_brute_force(tau, copies):
    geo = TorusGeometry(tau, copies)
    masters = sorted(x for x in geo.cells() if is_master(x, tau))
    assert geo.masters() == masters
    for c in geo.cells():  # the hits come in no promised order
        dist, hits = geo.nearest_masters(c, tau)
        want_dist, want_hits = brute_torus_nearest(geo, masters, c)
        assert (dist, sorted(hits)) == (want_dist, sorted(want_hits)), c


@pytest.mark.parametrize("tau", range(1, 11))
def test_plane_nearest_masters_matches_exhaustive_scan(tau):
    # a 2x2 block of fundamental domains, lattice coordinates (m, n) in
    # [-1, 1)^2: for even tau it holds the rounding's half-way points -1/2 and +1/2
    plane = PlaneGeometry()
    cells = [(a, b) for a in range(-4 * tau, 4 * tau + 1) for b in range(-4 * tau, 4 * tau + 1)
             if -3 * tau <= 2 * b - a < 3 * tau and -3 * tau <= 2 * a - b < 3 * tau]
    assert len(cells) == 12 * tau * tau
    for c in cells:
        assert plane.nearest_masters(c, tau) == brute_plane_nearest(c, tau), c


def test_nearest_rows_match_the_plane_scan():
    # the three candidate masters of the base rows give the scan's distance and one of its hits
    for tau in range(1, 41):
        rows = nearest_rows(tau)
        assert [len(row) for row in rows] == [3 * tau] * tau
        for a, row in enumerate(rows):
            for b, (dist, delta) in enumerate(row):
                want_dist, hits = _nearest_on_plane((a, b), tau)
                assert dist == want_dist and delta in [r for _, r in hits], (tau, a, b)


@pytest.mark.parametrize("radius", range(16))
def test_ball_rows_match_the_filtered_square(radius):
    square = [(a, b) for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)]
    assert ball(radius) == sorted(c for c in square if hex_distance(c, (0, 0)) <= radius)


def old_canon(geo: TorusGeometry, c):
    """The iterative wrap into the fundamental domain { 0 <= 2b - a < P, 0 <= 2a - b < P },
    written apart from ``canon``: two cells are one torus cell exactly when their wraps are
    equal, so the tests take it as the definition of torus identity."""
    mt = geo.tau * geo.copies
    P = 3 * mt
    a, b = c
    for _ in range(4):
        m = (2 * b - a) // P
        n = (2 * a - b) // P
        if m == 0 and n == 0:
            return (a, b)
        a -= (m + 2 * n) * mt
        b -= (2 * m + n) * mt
    raise AssertionError(f"canonicalisation did not converge for {c}")


def in_domain(geo: TorusGeometry, c):
    """Whether ``c`` lies in the tau * M by P parallelogram."""
    return 0 <= c[0] < geo.tau * geo.copies and 0 <= c[1] < geo.period


@pytest.mark.parametrize("copies", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5, 6])
def test_torus_cells_are_the_canonical_square(tau, copies):
    # the cells are the parallelogram, one of each torus class, and canon keeps each
    geo = TorusGeometry(tau, copies)
    P = geo.period
    assert geo.cells() == [(a, b) for a in range(tau * copies) for b in range(P)]
    old = {old_canon(geo, (a, b)) for a in range(P) for b in range(P)}
    assert sorted(old_canon(geo, c) for c in geo.cells()) == sorted(old)
    assert all(in_domain(geo, c) and geo.canon(c) == c for c in geo.cells())


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("tau", [1, 2, 3, 5])
def test_one_step_canon_matches_iterative_wrap(tau, copies):
    # points up to 5 periods away on either side, on a stride coprime to P: canon lands in
    # the parallelogram, keeps what it lands on, and is one-to-one with the iterative wrap
    geo = TorusGeometry(tau, copies)
    R = 5 * geo.period
    to_new, to_old = {}, {}
    for a in range(-R, R + 1, 7):
        for b in range(-R, R + 1, 5):
            c, old = geo.canon((a, b)), old_canon(geo, (a, b))
            assert in_domain(geo, c), (a, b)
            assert geo.canon(c) == c
            assert to_new.setdefault(old, c) == c and to_old.setdefault(c, old) == old, (a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mt=st.integers(1, 6), seams=st.integers(-4, 4), rest=st.integers(0, 5),
       sb=st.integers(-40, 40),
       cells=st.lists(st.tuples(st.integers(-20, 20), st.integers(-60, 60)), max_size=6))
@example(mt=1, seams=2, rest=0, sb=0, cells=[(0, 0), (0, 2)])
@example(mt=4, seams=-3, rest=3, sb=-30, cells=[(3, 11), (-1, -1), (0, 0)])
@example(mt=6, seams=4, rest=5, sb=37, cells=[(5, 17), (-7, 0)])
def test_torus_ids_are_canon_of_each_moved_cell(mt, seams, rest, sb, cells):
    # a shift crossing up to four seams either way, the last part of one (rest < mt) included
    shift, P = (seams * mt + rest % mt, sb), 3 * mt
    moved = [torus_canon((a + shift[0], b + shift[1]), mt) for a, b in cells]
    assert torus_ids(cells, mt, shift) == [a * P + b for a, b in moved]
