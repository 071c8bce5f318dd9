"""Nearest-master search against brute-force scans, on the torus and the plane."""

from __future__ import annotations

import pytest

from mgnet.lattice import (PlaneGeometry, TorusGeometry, _nearest_on_plane, ball, hex_distance,
                           is_master, nearest_rows)


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
    """The iterative wrap that ``canon`` replaced, kept as its reference."""
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
    P = geo.period
    return 0 <= 2 * c[1] - c[0] < P and 0 <= 2 * c[0] - c[1] < P


@pytest.mark.parametrize("copies", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5, 6])
def test_torus_cells_are_the_canonical_square(tau, copies):
    geo = TorusGeometry(tau, copies)
    P = geo.period
    old = sorted({old_canon(geo, (a, b)) for a in range(P) for b in range(P)})
    assert geo.cells() == old
    assert all(in_domain(geo, c) and geo.canon(c) == c for c in old)


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("tau", [1, 2, 3, 5])
def test_one_step_canon_matches_iterative_wrap(tau, copies):
    # points up to 5 periods away on either side, on a stride coprime to P
    geo = TorusGeometry(tau, copies)
    R = 5 * geo.period
    for a in range(-R, R + 1, 7):
        for b in range(-R, R + 1, 5):
            c = geo.canon((a, b))
            assert c == old_canon(geo, (a, b)), (a, b)
            assert in_domain(geo, c)
            assert geo.canon(c) == c
