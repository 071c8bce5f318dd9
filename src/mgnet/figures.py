"""Plot-ready datasets reproducing the reference figures.

Each figure is a list of named polylines (the upper-right boundary of an
achievable region, or the linear outer bound).  Legend thresholds are the
exact rational prelog requirements; the two small-budget curves of the
D=10 linear figure are computed at D=6 because cutting the conferencing
budget down to 6 rounds beats time-sharing a 10-round scheme there.
``figure_series`` yields integer pairs; ``build_figure`` is its Fraction view.
"""

from __future__ import annotations

from fractions import Fraction as F

from .regions import MgPoint, _outer_pairs, _polyline, _region_pairs, _view
from .topology import HEX, SECTORED, WYNER

# (label, mu_tx, mu_rx, D override) per series; None marks the outer bound.
FIGURES: dict[str, dict] = {
    "fig5a": {
        "model": WYNER, "D": 6, "L": 3,
        "series": [
            ("outer bound", None, None, None),
            ("muRx>=2.625 muTx>=1.125", F(9, 8), F(21, 8), None),
            ("muRx>=1.125 muTx>=2.25", F(9, 4), F(9, 8), None),
            ("muRx>=4.5 muTx=0.5", F(1, 2), F(9, 2), None),
            ("muRx=0.5 muTx>=4.5", F(9, 2), F(1, 2), None),
            ("muRx=0.5 muTx=1", F(1), F(1, 2), None),
            ("muRx=1 muTx=0.5", F(1, 2), F(1), None),
        ],
    },
    "fig5b": {
        "model": WYNER, "D": 10, "L": 3,
        "series": [
            ("outer bound", None, None, None),
            ("muRx>=4.25 muTx>=1.25", F(5, 4), F(17, 4), None),
            ("muRx>=1.25 muTx>=3.75", F(15, 4), F(5, 4), None),
            ("muRx>=7.5 muTx=0.5", F(1, 2), F(15, 2), None),
            ("muRx=0.5 muTx>=7.5", F(15, 2), F(1, 2), None),
            ("muRx=0.5 muTx=1", F(1), F(1, 2), 6),
            ("muRx=1 muTx=0.5", F(1, 2), F(1), 6),
        ],
    },
    "fig8": {
        "model": HEX, "D": 8, "L": 3,
        "series": [
            ("muRx>=2.4 muTx>=0.625", F(5, 8), F(12, 5), None),
            ("muRx>=0.625 muTx>=2.4", F(12, 5), F(5, 8), None),
            ("1.75<=muRx<2.4 muTx>=0.625", F(5, 8), F(7, 4), None),
            ("muRx>=0.625 1.5625<=muTx<2.4", F(25, 16), F(5, 8), None),
            ("muRx>=2.4 muTx=0.1", F(1, 10), F(12, 5), None),
            ("muRx=0.1 muTx>=2.4", F(12, 5), F(1, 10), None),
            ("muRx=0.5 muTx=1", F(1), F(1, 2), None),
            ("muRx=1 muTx=0.5", F(1, 2), F(1), None),
        ],
    },
    "fig10": {
        "model": SECTORED, "D": 4, "L": 3,
        "series": [
            ("muRx>=2.25 muTx>=0.75", F(3, 4), F(9, 4), None),
            ("muRx>=3 muTx=0.1", F(1, 10), F(3), None),
            ("muRx=2 muTx=0.1", F(1, 10), F(2), None),
        ],
    },
}


def figure_series(name: str):
    """Each series as (label, pairs, den): its ``boundary_polyline`` as pairs over den."""
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    spec = FIGURES[name]
    for label, mu_tx, mu_rx, d in spec["series"]:
        d, L = spec["D"] if d is None else d, spec["L"]
        pairs, den = _outer_pairs(d, L) if mu_tx is None else _region_pairs(
            spec["model"], d, L, mu_tx.as_integer_ratio(), mu_rx.as_integer_ratio())
        yield label, _polyline(pairs), den


def build_figure(name: str) -> list[tuple[str, list[MgPoint]]]:
    return [(label, list(_view(pairs, den).vertices)) for label, pairs, den in figure_series(name)]
