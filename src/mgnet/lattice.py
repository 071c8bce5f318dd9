"""Axial hexagonal lattice arithmetic.

Cells live at integer coordinates (a, b) meaning a*e_x + b*e_y with basis
vectors 120 degrees apart.  The graph distance between cells is
max(|da|, |db|, |da-db|); the six unit neighbours are +-(1,0), +-(0,1),
+-(1,1).

Master cells for a subnet spacing ``tau`` form the sublattice

    { (a, b) : a % tau == 0, b % tau == 0, (a + b) % (3 * tau) == 0 }

which is generated by (tau, 2*tau) and (2*tau, tau).  Masters are 2*tau
apart, every cell lies within tau of one, and the cells at distance
exactly tau tile the plane into disjoint radius-(tau-1) balls.

``nearest_masters`` is O(1) per cell on both geometries: it scans the
3 x 3 window of masters around the cell's rounded lattice point.  On a
torus, a master reached by several wraps (small tori) gives one hit per
wrap, in the plane's order.  Shifting a cell by a master vector shifts its
nearest masters by that vector and keeps the set of displacements (a torus
may list them in another order), so a rule that reads the distance and
that set is periodic modulo the master lattice: association evaluates its
roles once per residue class (3 * tau^2 classes; (2b - a, 2a - b) mod
3 * tau names one).  ``nearest_rows`` gives all of them at once, the cells
0 <= a < tau, 0 <= b < 3 * tau, by row arithmetic instead of one scan each.

A torus of M copies of spacing tau identifies cells that differ by
(i + 2j, 2i + j) * tau * M.  With mt = tau * M and P = 3 * mt, (mt, 2 * mt)
and (0, P) generate those vectors (their Hermite normal form), so its cells are
the parallelogram 0 <= a < mt, 0 <= b < P, which ``torus_canon`` reaches in one
step: b turns by 2 * mt each time a crosses the seam.  Both finite domains are
runs of rows (a, lo, hi), one per a: ``ball_rows`` and ``TorusGeometry.rows``
give their bounds and ``row_cells`` (behind ``ball`` and ``cells()``) expands
them in (a, b) order: torus cell (a, b) is the (a * P + b)-th.
"""

from __future__ import annotations

from dataclasses import dataclass

Coord = tuple[int, int]
Row = tuple[int, int, int]  # (a, lo, hi): the cells (a, lo), (a, lo + 1), ..., (a, hi)

NEIGHBOR_STEPS: tuple[Coord, ...] = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def hex_distance(c1: Coord, c2: Coord) -> int:
    da = c1[0] - c2[0]
    db = c1[1] - c2[1]
    return max(abs(da), abs(db), abs(da - db))


def row_cells(rows: list[Row]) -> list[Coord]:
    """The cells of ``rows`` in row-major order."""
    return [(a, b) for a, lo, hi in rows for b in range(lo, hi + 1)]


def ball_rows(radius: int) -> list[Row]:
    """Rows of the hex ball of ``radius``: |b| <= radius and |a - b| <= radius."""
    return [(a, max(-radius, a - radius), min(radius, a + radius))
            for a in range(-radius, radius + 1)]


def ball(radius: int) -> list[Coord]:
    """All cells within hex distance ``radius`` of the origin, row-major order."""
    return row_cells(ball_rows(radius))


def torus_canon(c: Coord, mt: int) -> Coord:
    """The cell of the torus of mt = tau * M's parallelogram that is ``c`` (module docstring)."""
    a, b = c
    return (a % mt, (b - 2 * mt * (a // mt)) % (3 * mt))


def is_master(c: Coord, tau: int) -> bool:
    a, b = c
    return a % tau == 0 and b % tau == 0 and (a + b) % (3 * tau) == 0


def _nearest_on_plane(c: Coord, tau: int) -> tuple[int, list[tuple[Coord, Coord]]]:
    """Nearest masters on the plane: (distance, [(master, displacement), ...]).

    Master (m + 2n, 2m + n) * tau; (m0, n0) rounds the cell's (m, n).  A master
    two steps off in m or n is >= 9/4 * tau away, the nearest within tau.
    """
    a, b = c
    t3 = 3 * tau
    m0 = (2 * (2 * b - a) + t3) // (2 * t3)
    n0 = (2 * (2 * a - b) + t3) // (2 * t3)
    best = t3
    hits: list[tuple[Coord, Coord]] = []
    for m in (m0 - 1, m0, m0 + 1):
        for n in (n0 - 1, n0, n0 + 1):
            ma, mb = (m + 2 * n) * tau, (2 * m + n) * tau
            da, db = a - ma, b - mb
            d = max(abs(da), abs(db), abs(da - db))
            if d < best:
                best, hits = d, [((ma, mb), (da, db))]
            elif d == best:
                hits.append(((ma, mb), (da, db)))
    return best, hits


def nearest_rows(tau: int) -> list[list[tuple[int, Coord]]]:
    """(distance, displacement to a nearest master) of (a, b), row a = 0 .. tau - 1 of
    b = 0 .. 3 * tau - 1.

    Only (0, 0), (tau, 2 * tau) and (0, 3 * tau) can be nearest there: the
    nearest of the three is at most tau away, and every other master is
    farther or (one at a = -tau, seen from row 0) exactly tau away.  Along
    row a they are nearest in turn, from b = 0, b = tau and b = a + 2 * tau
    + 1; the cells b = tau and b = a + 2 * tau are exactly tau from two of them.
    """
    t3 = 3 * tau
    rows = []
    for a in range(tau):
        far = a + 2 * tau + 1  # (0, 3 * tau) is nearest from here on
        rows.append([(max(a, b), (a, b)) for b in range(tau)]
                    + [(max(tau - a, abs(b - 2 * tau), abs(b - a - tau)), (a - tau, b - 2 * tau))
                       for b in range(tau, far)]
                    + [(a + t3 - b, (a, b - t3)) for b in range(far, t3)])
    return rows


class PlaneGeometry:
    """Cells of the infinite lattice; master sublattice of spacing ``tau`` everywhere."""

    def nearest_masters(self, c: Coord, tau: int) -> tuple[int, list[tuple[Coord, Coord]]]:
        """Distance to the master lattice and all (master, displacement) pairs attaining it."""
        return _nearest_on_plane(c, tau)


@dataclass(frozen=True)
class TorusGeometry:
    """Quotient of the lattice by M copies of the master lattice of spacing tau.

    The torus holds exactly M*M whole subnets (3 * M^2 * tau^2 cells), so
    per-subnet counts on it are free of edge effects.
    """

    tau: int
    copies: int

    @property
    def period(self) -> int:
        return 3 * self.tau * self.copies

    def canon(self, c: Coord) -> Coord:
        """The representative of ``c`` in the parallelogram domain (``torus_canon``)."""
        return torus_canon(c, self.tau * self.copies)

    def rows(self) -> list[Row]:
        """Rows of the parallelogram domain: a = 0 .. tau * copies - 1, b = 0 .. period - 1."""
        return [(a, 0, self.period - 1) for a in range(self.tau * self.copies)]

    def cells(self) -> list[Coord]:
        """The parallelogram domain, sorted by (a, b)."""
        out = row_cells(self.rows())
        assert len(out) == 3 * self.copies**2 * self.tau**2
        return out

    def masters(self) -> list[Coord]:
        t, M = self.tau, self.copies
        out = sorted({self.canon(((m + 2 * n) * t, (2 * m + n) * t))
                      for m in range(M) for n in range(M)})
        assert len(out) == M * M
        return out

    def nearest_masters(self, c: Coord, tau: int) -> tuple[int, list[tuple[Coord, Coord]]]:
        """Plane hits with canonical masters, in the plane's order."""
        if tau != self.tau:
            raise ValueError(f"torus was built for tau={self.tau}, not tau={tau}")
        best, plane_hits = _nearest_on_plane(c, tau)
        return best, [(self.canon(p), r) for p, r in plane_hits]
