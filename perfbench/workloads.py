"""Seeded inputs of the three benchmark workloads.

Only the standard library is used here, so that the set-up probe can time
``import mgnet`` and input generation separately from the benchmark's own
imports.  The same seed always gives the same inputs.

* ``torus``: whole-subnet tori.  A coverage ladder at M=2 over every valid
  (model, scheme, D) for hex D in {2, 8, 14} and sectorized D in {2, 4, 6},
  plus a size ladder of hex tau=4 (D=8) and sectorized tau=2 (D=4) at
  M in {4, 6}.  The seed draws L per instance.
* ``rim``: large finite instances with edges (Wyner line, hex and
  sectorized balls) on the plane geometry.  The seed draws L per instance.
* ``query``: a stream of ``mgnet`` command lines in chunks of 373, all
  with valid parameters.  Every chunk holds the same commands: 260 region
  (20 per valid (model, D), half json, half csv), 57 closed-form (each
  valid (model, D, scheme) once), 36 sweep (three per model and lower D)
  and 20 figure (five per figure), that is 70/15/10/5%.  The seed draws
  their order, L, the sweep's upper D and mu; every region query has a
  (mu_tx, mu_rx) pair never used before in the stream.  So every chunk
  costs about the same and fails the same checks, whatever the seed.

Instance order is fixed, not seeded: an instance's time depends on what
ran before it (heap and allocator state), and a seeded order would let
that show up as spread between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("torus", "rim", "query")

ALL_SCHEMES = ("both-rx", "both-tx", "slow-rx", "slow-tx", "no-coop")
SECTOR_SCHEMES = ("both-rx", "slow-rx", "no-coop")  # the sectorized model has no CoMP-Tx
FIGURES = ("fig5a", "fig5b", "fig8", "fig10")

# Valid D per model for the query mix: cooperative schemes need an even D,
# and the hexagonal model also needs (D/2 - 1) % 3 == 0.
QUERY_D = {"wyner": (2, 4, 6, 8, 10, 12), "hex": (2, 8, 14), "sectorized": (2, 4, 6, 8)}
SWEEP_LOW_D = (2, 4, 6, 8)


@dataclass(frozen=True)
class Instance:
    """One network carried through build -> assign -> validate -> ledger."""

    model: str    # CLI model name: wyner, hex or sectorized
    scheme: str   # CLI scheme alias
    D: int
    L: int
    shape: str    # torus, line or ball
    size: int     # torus copies M, Wyner K or ball radius


@dataclass(frozen=True)
class Query:
    kind: str     # region, closed-form, sweep or figure
    argv: tuple[str, ...]
    model: str = ""
    D: int = 0
    scheme: str = ""


def torus_instances(seed: int, tiny: bool = False) -> list[Instance]:
    rng = random.Random(f"torus:{seed}")
    hex_d, sector_d, ladder = ((2,), (2, 4), (2,)) if tiny else ((2, 8, 14), (2, 4, 6), (4, 6))
    specs = [("hex", s, d, 2) for d in hex_d for s in ALL_SCHEMES]
    specs += [("sectorized", s, d, 2) for d in sector_d for s in SECTOR_SCHEMES]
    for m in ladder:
        specs += [("hex", s, 8, m) for s in ("both-rx", "both-tx")]
        specs += [("sectorized", s, 4, m) for s in ("both-rx", "slow-rx")]
    return [Instance(model, s, d, rng.randint(1, 4), "torus", m) for model, s, d, m in specs]


def rim_instances(seed: int, tiny: bool = False) -> list[Instance]:
    rng = random.Random(f"rim:{seed}")
    k, r_hex, r_sec = (800, 6, 4) if tiny else (100_000, 60, 40)
    specs = [("wyner", s, 6, "line", k) for s in ALL_SCHEMES]
    specs += [("hex", s, 8, "ball", r_hex) for s in ALL_SCHEMES]
    specs += [("sectorized", s, 4, "ball", r_sec) for s in SECTOR_SCHEMES]
    return [Instance(model, s, d, rng.randint(1, 4), shape, size)
            for model, s, d, shape, size in specs]


def _hex_valid(d: int) -> bool:
    return d >= 2 and d % 2 == 0 and (d // 2 - 1) % 3 == 0


def _query_templates(tiny: bool) -> list[tuple]:
    """The commands of one chunk, before the seed fills in their parameters."""
    out = []
    for model in sorted(QUERY_D):
        schemes = SECTOR_SCHEMES if model == "sectorized" else ALL_SCHEMES
        for d in QUERY_D[model]:
            out += [("region", model, d, fmt) for fmt in ("json", "csv")
                    for _ in range(1 if tiny else 10)]
            out += [("closed-form", model, d, s) for s in schemes]
        out += [("sweep", model, lo) for lo in SWEEP_LOW_D for _ in range(1 if tiny else 3)]
    out += [("figure", name) for name in FIGURES for _ in range(1 if tiny else 5)]
    return out


class QueryStream:
    """Chunks of seeded queries, made in order; the same seed gives the same chunks.

    Only the latest chunk is kept, and used (mu_tx, mu_rx) pairs are kept as
    one small integer each, so memory does not grow with run length.
    """

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.templates = _query_templates(tiny)
        self._used_mu: set[int] = set()
        self._made = 0
        self._latest: list[Query] = []

    def get(self, i: int) -> list[Query]:
        while self._made <= i:
            self._latest = self._make(self._made)
            self._made += 1
        if i != self._made - 1:
            raise ValueError(f"chunk {i} was dropped; chunks are requested in order")
        return self._latest

    def _mu(self, rng: random.Random) -> tuple[Fraction, Fraction]:
        while True:
            pair = tuple(Fraction(rng.randint(0, 6 * q), q)
                         for q in (rng.randint(1, 97), rng.randint(1, 97)))
            key = 0
            for f in pair:  # numerators <= 582 and denominators <= 97 in lowest terms
                key = (key * 583 + f.numerator) * 98 + f.denominator
            if key not in self._used_mu:
                self._used_mu.add(key)
                return pair

    def _make(self, index: int) -> list[Query]:
        rng = random.Random(f"query:{self.seed}:{index}")
        templates = list(self.templates)
        rng.shuffle(templates)
        out = []
        for kind, *spec in templates:
            L = str(rng.randint(1, 5))
            if kind == "region":
                model, d, fmt = spec
                mu_tx, mu_rx = self._mu(rng)
                argv = ("region", "--model", model, "--D", str(d), "--L", L,
                        "--mu-tx", str(mu_tx), "--mu-rx", str(mu_rx), "--format", fmt)
                out.append(Query("region", argv, model, d))
            elif kind == "closed-form":
                model, d, scheme = spec
                argv = ("closed-form", "--model", model, "--D", str(d), "--L", L,
                        "--scheme", scheme)
                out.append(Query("closed-form", argv, model, d, scheme))
            elif kind == "sweep":
                model, lo = spec
                while True:
                    hi = lo + 2 * rng.randint(0, 8)
                    if model != "hex" or any(_hex_valid(x) for x in range(lo, hi + 1, 2)):
                        break
                argv = ("sweep", "--model", model, "--L", L, "--D", f"{lo}..{hi}")
                out.append(Query("sweep", argv, model))
            else:
                out.append(Query("figure", ("figure", "--which", spec[0])))
        return out


def make_inputs(workload: str, seed: int, tiny: bool = False):
    """Instance list (torus, rim) or query stream with its first chunk made (query)."""
    if workload == "torus":
        return torus_instances(seed, tiny)
    if workload == "rim":
        return rim_instances(seed, tiny)
    if workload == "query":
        stream = QueryStream(seed, tiny)
        stream.get(0)
        return stream
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
