#!/usr/bin/env python3
"""Mutation gate: each mutant is one exact source edit that named tests must catch.

    python scripts/mutate.py [NAME ...]

Run from anywhere; the checkout is the parent of this script's directory.
With no NAME every mutant runs; otherwise only the named ones, and an
unknown name exits 2 with the list of valid names.
Each mutant copies ``src/``, ``tests/``, ``out/`` (the committed CSVs that
some tests compare with) and ``pyproject.toml`` into a fresh temporary
directory, replaces its ``old`` text (which must occur exactly once in its
file) by ``new``, and runs only its test ids there.  It is
killed when pytest reports a failed test (exit code 1); any other exit,
such as an id that no longer exists, counts as a survivor.  The same ids
first run on an unmutated copy and must pass there, so that a test that
already fails cannot kill a mutant.  When that run fails, or a mutant's
exits with anything but 0 or 1, pytest's last lines and failure summary
(``-rf``) are printed.  Exit 0 when every mutant is killed, 1 otherwise.
Plain Python and pytest only.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str            # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]


ORACLE = "tests/test_ledger_oracle.py::"
PROOF = ORACLE + "test_only_a_network_as_its_builder_returned_it_takes_a_proof"
BALLS = "tests/test_association.py::test_assign_matches_per_cell_path_on_balls"
TORI = "tests/test_association.py::test_assign_matches_per_cell_path_on_tori"
CANON = "tests/test_topology.py::test_torus_builders_match_canon_on_every_step"
CANON_STEP = "tests/test_lattice.py::test_one_step_canon_matches_iterative_wrap"
BALL = "tests/test_topology.py::test_ball_builders_match_the_coordinate_dict"
REPEAT = ORACLE + "test_torus_link_loads_repeat_with_the_master_lattice"
FALLBACK = ORACLE + "test_torus_lattice_falls_back_to_the_walk"
BALL_FALLBACK = ORACLE + "test_ball_lattice_falls_back_to_the_walk"
TORUS_BASE = ORACLE + "test_torus_role_flipped_where_the_base_is_read_falls_back"
DRAWN = ORACLE + "test_lattice_proof_equals_the_walk_on_drawn_balls_and_tori"
BENCH_SCALE = ORACLE + "test_ball_lattice_at_bench_scale"
EDGES = ORACLE + "test_line_proof_columns_at_the_proofs_edges"
SCRATCH = ORACLE + "test_ledger_scratch_ends_at_the_last_numbered_cell"
MISSING_LINK = ORACLE + "test_ledger_names_a_missing_link"
CHUNKS = ORACLE + "test_line_period_chunk_edges"
SMALL_BALLS = ORACLE + "test_balls_too_small_for_whole_base_rows_are_proven"
SINGLETONS = ORACLE + "test_cooperation_free_proof_falls_back_to_the_walk"
PLANE_TORI = "tests/test_loads.py::test_finite_prelogs_equal_the_plane_prelogs_on_tori"
CELLS = "tests/test_topology.py::test_builder_cells_are_computed_like_the_tuple_of_their_rows"
GRID = "tests/test_topology.py::test_builder_adjacency_is_computed_like_the_stored_tuple"
LINE = "tests/test_topology.py::test_wyner_adjacency_is_computed_like_the_stored_tuple"
BENCH_BALLS = "tests/test_topology.py::test_bench_balls_match_the_unit_step_dict"
POLYLINE = "tests/test_regions.py::test_boundary_polyline_equals_its_fraction_key_definition"
BUDGETS = "tests/test_cli.py::test_budgets_are_read_by_the_fraction_rule"
CLOSED_FORM_TEXT = "tests/test_cli.py::test_closed_form_text_equals_the_fraction_api"
REGION_TEXT = "tests/test_cli.py::test_region_text_equals_the_fraction_api"
FIGURE_TEXT = "tests/test_cli.py::test_figure_text_equals_build_figure_and_the_committed_csv"
# the two layer rules of association._sector_silenced, with their sets filled in
SECTOR_RULES = ('        return {{"{}"}}\n'
                '    if abs(b) == tau and (a > 0) == (b > 0):\n'
                '        return {{"{}"}}')

MUTANTS = [
    Mutant("wyner-dedup-flipped", "src/mgnet/loads.py",
           "q_dedup += D // 2 - (roles[master] is not fast)",
           "q_dedup += D // 2 - (roles[master] is fast)",
           (ORACLE + "test_matches_reference_on_oracle_networks[WynerLinear]",)),
    Mutant("sector-silenced-s-w-swapped", "src/mgnet/association.py",
           SECTOR_RULES.format("S", "W"), SECTOR_RULES.format("W", "S"),
           ("tests/test_loads.py::test_sectorized_oracle_equivalence[BothCompRx-4]",)),
    Mutant("hop-budget-inclusive", "src/mgnet/validation.py",
           "g > budget and roles[k] is slow",
           "g >= budget and roles[k] is slow",
           ("tests/test_validation.py::test_reachability_budgets",)),
    Mutant("fast-violations-any-neighbour", "src/mgnet/validation.py",
           "for j in adj[k] if roles[j] is fast]",
           "for j in adj[k]]",
           ("tests/test_validation.py::test_wyner_fast_independence",
            "tests/test_validation.py::test_hex_fast_pairs_exhaustive")),
    Mutant("as-built-ignores-params", "src/mgnet/topology.py",
           "_MARKED(net))) and net.params == params else None",
           "_MARKED(net))) else None",
           (PROOF + "[line-params]", PROOF + "[hex-ball-params]",
            PROOF + "[sectorized-ball-params]")),
    Mutant("as-built-ignores-identity", "src/mgnet/topology.py",
           "return net._mark if all(map(is_, fields, _MARKED(net))) and net.params",
           "return net._mark if net.params",
           (PROOF + "[line-interference]", PROOF + "[hex-ball-tx_coop]",
            PROOF + "[sectorized-ball-tx_cell]")),
    Mutant("cell-coords-unmarked", "src/mgnet/topology.py",
           '"tx_cell", "cell_coords")',
           '"tx_cell")',
           (PROOF + "[line-cell_coords]", PROOF + "[hex-ball-cell_coords]")),
    # the line's roles against their first chunk of C: the first chunk's own repeat with P,
    # the later whole chunks, and the last one cut to its length
    Mutant("line-first-chunk-unchecked", "src/mgnet/validation.py",
           "len(roles) == K + 1 and first[P:] == first[:-P]",
           "len(roles) == K + 1",
           (ORACLE + "test_line_period_falls_back_to_the_walk[mutated-roles]",
            CHUNKS + "[P2]", CHUNKS + "[P8]")),
    Mutant("line-chunk-of-no-period", "src/mgnet/validation.py",
           "C = P * (4096 // P or 1)",
           "C = P * (4096 // P)",
           (ORACLE + "test_line_period_longer_than_a_chunk",)),
    Mutant("line-whole-chunks-unchecked", "src/mgnet/validation.py",
           "and all(roles[x:x + C] == first for x in range(1 + C, end, C))",
           "and all(True for x in range(1 + C, end, C))",
           (CHUNKS + "[P4]",)),
    Mutant("line-last-chunk-uncut", "src/mgnet/validation.py",
           "and roles[end:] == first[:K + 1 - end]):",
           "and roles[end:] == first):",
           (CHUNKS + "[P8]", ORACLE + "test_line_period_at_bench_scale[BothCompRx]")),
    # a proven line's computed columns: run j's first member, the tail's hops
    Mutant("line-run-offset-dropped", "src/mgnet/validation.py",
           "return i + i // (self.args[0] - 1) + 1",
           "return i + i // (self.args[0] - 1) + 0",
           (EDGES + "[BothCompRx]", EDGES + "[NoCoop]")),
    Mutant("line-tail-hops-repeated", "src/mgnet/validation.py",
           "super().__init__(args, run, P, (K + 1) // P * P)",
           "super().__init__(args, run, P, K + 1)",
           (EDGES + "[SlowOnlyCompRx]",)),
    # the one item rule of computed sequences: an index past the end is refused, and a
    # line's last cell is not an interior one
    Mutant("computed-item-bound-inclusive", "src/mgnet/topology.py",
           "if i.__class__ is int and 0 <= i < len(self):",
           "if i.__class__ is int and 0 <= i <= len(self):",
           (CELLS + "[hex-balls]", CELLS + "[sectorized-tori]", LINE + "[7]")),
    Mutant("line-item-interior-widened", "src/mgnet/topology.py",
           "(k - 1, k + 1) if 1 < k < self.K else",
           "(k - 1, k + 1) if 1 < k <= self.K else",
           (LINE + "[2]", LINE + "[7]")),
    # the ledger's scratch: it must hold the cell of every counted node, and a neighbour
    # past it is not reached
    Mutant("ledger-scratch-short", "src/mgnet/loads.py",
           "default=-1) + 1",
           "default=-1)",
           (EDGES + "[SlowOnlyCompTx]", SCRATCH)),
    Mutant("ledger-scratch-end-unguarded", "src/mgnet/loads.py",
           "except IndexError:  # a cell past the scratch",
           "except KeyError:  # a cell past the scratch",
           (SCRATCH,)),
    # a walked ledger is one part, of every subnet: not its first alone, as if a template
    Mutant("walked-ledger-routes-one-subnet", "src/mgnet/loads.py",
           "[(1, subnets.members, range(len(subnets)))]",
           "[(1, subnets.members, range(1))]",
           (ORACLE + "test_walked_ledger_numbers_every_link_of_a_sectorized_ball[5-4]",
            ORACLE + "test_walked_ledger_numbers_every_link_of_a_sectorized_ball[7-8]")),
    # a message between nodes that its graph does not link: counted, not named
    Mutant("ledger-tx-link-unchecked", "src/mgnet/loads.py",
           "if k not in tx_adj[j] or share and c not in rx_adj[src]:",
           "if share and c not in rx_adj[src]:",
           (MISSING_LINK,)),
    Mutant("ledger-rx-link-unchecked", "src/mgnet/loads.py",
           "if k not in tx_adj[j] or share and c not in rx_adj[src]:",
           "if k not in tx_adj[j]:",
           (MISSING_LINK,)),
    Mutant("hex-hop-window-widened", "src/mgnet/loads.py",
           "1 <= (hop[k] or 0) <= D // 2 - 2",
           "1 <= (hop[k] or 0) <= D // 2 - 1",
           ("tests/test_loads.py::test_hex_oracle_equivalence[BothCompTx-8]",
            ORACLE + "test_matches_reference_on_oracle_networks[Hexagonal]")),
    Mutant("row-fill-rotated-twice", "src/mgnet/association.py",
           "turn = (lo + tau * (a % t3 // tau)) % t3",
           "turn = (lo + 2 * tau * (a % t3 // tau)) % t3",
           (BALLS + "[Hexagonal-build_hex-9]", BALLS + "[SectorizedHexagonal-build_sectored_hex-9]")),
    Mutant("row-masters-offset", "src/mgnet/association.py",
           "range(start + (2 * a - lo) % t3, start + n, t3)",
           "range(start + (a - lo) % t3, start + n, t3)",
           (BALLS + "[Hexagonal-build_hex-9]", BALLS + "[SectorizedHexagonal-build_sectored_hex-9]")),
    Mutant("nearest-rows-drop-far-master", "src/mgnet/lattice.py",
           "far = a + 2 * tau + 1",
           "far = t3",
           ("tests/test_lattice.py::test_nearest_rows_match_the_plane_scan",
            TORI + "[SectorizedHexagonal-build_sectored_hex_torus-4-2]")),
    # torus neighbours listed by id, as before they were listed by unit step
    Mutant("torus-tuples-id-sorted", "src/mgnet/topology.py",
           "tuple([j for d in self.steps[x % len(self.steps)]\n"
           "                                     if (j := flat[f + d]) is not None])",
           "tuple(sorted([j for d in self.steps[x % len(self.steps)]\n"
           "                                     if (j := flat[f + d]) is not None]))",
           (REPEAT + "[Hexagonal]", REPEAT + "[SectorizedHexagonal]", CANON + "[5-3]")),
    # a ball's grid only as wide as the ball: a step off a row's end reads the next row's cell
    Mutant("ball-pad-columns-dropped", "src/mgnet/topology.py",
           "W, b0 = len(rows) + 1, rows[0][1]",
           "W, b0 = len(rows), rows[0][1]",
           (BALL + "[1]", BALL + "[8]", GRID + "[hex-balls]")),
    # a ball's item read on its own: the first node of each row read at the row before's offset
    Mutant("ball-item-row-offset-off-by-one", "src/mgnet/topology.py",
           "flat, f = self.flat, self.offs[bisect_right(self.nstarts, x)] + x",
           "flat, f = self.flat, self.offs[bisect_right(self.nstarts, x - 1)] + x",
           (GRID + "[hex-balls]", GRID + "[sectorized-balls]")),
    Mutant("ball-item-keeps-empty-seats", "src/mgnet/topology.py",
           "if (j := flat[f + d]) is not None])",
           "if (j := flat[f + d]) is not 0.5])",
           (GRID + "[hex-balls]", GRID + "[sectorized-balls]")),
    # a ball's link count with one cell too few leaving it per step, 2r and not 2r + 1
    Mutant("ball-links-keep-one-cell-too-many", "src/mgnet/topology.py",
           'keep = len(cells) - (0 if mt else 2 * params["radius"] + 1)',
           'keep = len(cells) - (0 if mt else 2 * params["radius"])',
           (GRID + "[hex-balls]", GRID + "[sectorized-balls]", BALL + "[2]",
            BENCH_BALLS + "[build_sectored_hex-40]")),
    # the sectorized plane's Tx density read as the cells' 6, not the sectors' 4
    Mutant("plane-links-sector-tx-six", "src/mgnet/topology.py",
           "SECTORED: (len(_SECTOR_STEPS[0]), len(_HEX_STEPS[0]))",
           "SECTORED: (len(_HEX_STEPS[0]), len(_HEX_STEPS[0]))",
           ("tests/test_loads.py::test_sectorized_oracle_equivalence[BothCompRx-4]",
            PLANE_TORI + "[SectorizedHexagonal-SlowOnlyCompRx-2-2]")),
    # the one torus frame, which the builder's three-cell step dedupe reads too
    Mutant("torus-seam-shift-halved", "src/mgnet/lattice.py",
           "(b - 2 * mt * (a // mt)) % (3 * mt))",
           "(b - mt * (a // mt)) % (3 * mt))",
           (CANON + "[1-1]", CANON_STEP + "[1-1]", CANON_STEP + "[3-2]")),
    Mutant("canon-seam-turn-dropped", "src/mgnet/lattice.py",
           "(b - 2 * mt * (a // mt)) % (3 * mt))",
           "b % (3 * mt))",
           (CANON_STEP + "[1-1]", CANON_STEP + "[3-2]", CANON_STEP + "[5-3]")),
    # the margin rows above and below the parallelogram turned the other way at the seam
    Mutant("torus-margin-row-turned-backwards", "src/mgnet/topology.py",
           "a, b = torus_canon((q, -1), mt)",
           "a, b = torus_canon((q, 4 * mt * (q // mt) - 1), mt)",
           (CANON + "[2-2]", GRID + "[hex-tori]", GRID + "[sectorized-tori]")),
    # on the three-cell torus, a cold item keeps a second step to a cell it already holds
    Mutant("three-cell-torus-keeps-duplicates", "src/mgnet/topology.py",
           "{(*torus_canon((da, db), mt), k2): (da, db, k2)",
           "{(da, db, k2): (da, db, k2)",
           (GRID + "[hex-tori]", GRID + "[sectorized-tori]", CANON + "[1-1]")),
    # a translate's members moved across the seam without its turn
    Mutant("torus-ids-seam-turn-dropped", "src/mgnet/lattice.py",
           "(b + sb - 2 * mt * ((a + sa) // mt)) % P",
           "(b + sb) % P",
           (ORACLE + "test_torus_lattice_matches_walk[Hexagonal]",
            ORACLE + "test_torus_lattice_matches_walk[SectorizedHexagonal]")),
    # the base rows read off a torus's roles one cell along each row
    Mutant("torus-base-read-one-cell-late", "src/mgnet/validation.py",
           "key[nk * P * c:nk * P * c + nk * t3]",
           "key[nk * P * c + nk:nk * P * c + nk * t3]",
           (FALLBACK, ORACLE + "test_torus_lattice_matches_walk[Hexagonal]",
            ORACLE + "test_torus_lattice_matches_walk[SectorizedHexagonal]", TORUS_BASE)),
    # the one fill compare and coverage count of a ball's and a torus's proof
    Mutant("lattice-masters-compare-dropped", "src/mgnet/validation.py",
           "    if (_lattice_fill(net, rows, roles, tau, nk), _fill_masters(rows, tau))"
           " != (roles, ms):",
           "    if _lattice_fill(net, rows, roles, tau, nk) != roles:",
           (FALLBACK, BALL_FALLBACK + "[extra-rim-master]")),
    Mutant("lattice-coverage-unchecked", "src/mgnet/validation.py",
           "if starts[-1] != len(roles) - roles.count(Role.SILENT):",
           "if False:",
           (FALLBACK + "[silenced-rings]", BALL_FALLBACK + "[silenced-rings]")),
    # the base rows read off a ball's roles at the positions the fill gives the cells
    Mutant("ball-base-turn-reversed", "src/mgnet/validation.py",
           "j, y = (b + turn) % t3, x + nk * (b - lo)",
           "j, y = (b - turn) % t3, x + nk * (b - lo)",
           (SMALL_BALLS + "[Hexagonal-BothCompRx-14]",
            SMALL_BALLS + "[SectorizedHexagonal-SlowOnlyCompRx-8]",
            ORACLE + "test_ball_lattice_matches_walk_and_reference[hex]")),
    # a ball that its template spans keeps the template's fill on its walked rim
    Mutant("spanning-ball-rim-hops-dropped", "src/mgnet/validation.py",
           "        column[:] = hop\n",
           "",
           (SMALL_BALLS + "[SectorizedHexagonal-SlowOnlyCompRx-8]",
            ORACLE + "test_ball_lattice_matches_walk_and_reference[sectorized]")),
    # a translate one step past the reach leaves the ball and reads other rows' ids
    Mutant("ball-reach-wider", "src/mgnet/validation.py",
           "t3, inner, outer = 3 * tau, radius - R, radius + R",
           "t3, inner, outer = 3 * tau, radius - R + 1, radius + R",
           (BALL_FALLBACK + "[periodic-clash]",
            ORACLE + "test_ball_lattice_matches_walk_and_reference[sectorized]")),
    # a rim class's side distance clamped to [-R, R]: a point that keeps no member joins the
    # class of the points that keep one row, and its copies are counted
    Mutant("rim-class-clamp-too-tight", "src/mgnet/validation.py",
           "side = [min(max(radius - v, -R - 1), R) for v in range(-o, o + 1)]",
           "side = [min(max(radius - v, -R), R) for v in range(-o, o + 1)]",
           (BENCH_SCALE + "[Hexagonal-60-8-BothCompRx]",
            BENCH_SCALE + "[SectorizedHexagonal-40-4-BothCompRx]")),
    # the ledger counts each rim class's representative once, not times its copies
    Mutant("rim-class-copies-counted-once", "src/mgnet/loads.py",
           "for reps, n in t]",
           "for reps, n in t[:1] + tuple((reps, 1) for reps, _ in t[1:])]",
           (BENCH_SCALE + "[Hexagonal-60-8-BothCompTx]",
            BENCH_SCALE + "[SectorizedHexagonal-40-4-SlowOnlyCompRx]")),
    # cooperation-free roles that repeat: two fast neighbours taken for two subnets
    Mutant("cooperation-free-hears-no-one-unchecked", "src/mgnet/validation.py",
           "roles[x] is Role.FAST and all(roles[j] is silent for j in net.interference[x])",
           "roles[x] is Role.FAST",
           (SINGLETONS + "[hex-ball-class-turned-fast]",
            SINGLETONS + "[sectorized-torus-class-turned-fast]")),
    Mutant("cooperation-free-takes-slow-nodes", "src/mgnet/validation.py",
           "roles[x] is Role.FAST and all(",
           "all(",
           (SINGLETONS + "[hex-ball-class-turned-slow]",
            SINGLETONS + "[sectorized-torus-class-turned-slow]")),
    # a role flipped far from the centre cell, found only by the spacing-1 repeat
    Mutant("cooperation-free-repeat-unchecked", "src/mgnet/validation.py",
           "if not (_lattice_fill(net, rows, roles, 1, nk) == roles",
           "if not (True",
           (SINGLETONS + "[hex-ball-last-silent-turned-fast]",
            SINGLETONS + "[sectorized-torus-last-silent-turned-fast]", DRAWN)),
    # only the centre cell's nodes read: the active classes around a silent one go unchecked
    Mutant("cooperation-free-reads-one-cell", "src/mgnet/validation.py",
           "for c in (t, *net.rx_coop[t]) for k in range(nk)]",
           "for c in (t,) for k in range(nk)]",
           (SINGLETONS + "[hex-ball-fast-and-silent-swapped]",
            SINGLETONS + "[hex-torus-fast-and-silent-swapped]")),
    # the first cell of each row read as one past the end of the row before
    Mutant("row-cells-row-start-off-by-one", "src/mgnet/topology.py",
           "r = bisect_right(self.starts, i) - 1",
           "r = bisect_right(self.starts, i - 1) - 1",
           (CELLS + "[hex-balls]", CELLS + "[sectorized-tori]")),
    # vertices sharing s_f listed from the lowest s_s up, by the library and by the CLI,
    # which read the one boundary rule
    Mutant("polyline-key-sign-flipped", "src/mgnet/regions.py",
           "key=lambda p: (p[0], -p[1]))",
           "key=lambda p: (p[0], p[1]))",
           (POLYLINE, REGION_TEXT + "[wyner-csv]", FIGURE_TEXT + "[fig5a]")),
    # a vertex's s_s written over the hull's common denominator, not in lowest terms
    Mutant("region-text-s_s-unreduced", "src/mgnet/cli.py",
           "y // (h := math.gcd(y, den)), den // h)",
           "y, den)",
           (REGION_TEXT + "[hex-json]", REGION_TEXT + "[hex-csv]", FIGURE_TEXT + "[fig8]")),
    Mutant("region-json-mu-tx-from-rx", "src/mgnet/cli.py",
           "{_ratio_json(*tx, a)}",
           "{_ratio_json(*rx, a)}",
           (REGION_TEXT + "[sectorized-json]",
            "tests/test_cli.py::test_json_commands_print_json_dumps_indent_2[region]")),
    # a budget of two digit strings echoed as it was typed (6/8), not in lowest terms
    Mutant("prelog-pair-unreduced", "src/mgnet/cli.py",
           "return n // g, d // g",
           "return n, d",
           (REGION_TEXT + "[wyner-json]",)),
    # the two-int read of p/0 raises ZeroDivisionError, which would reach main's message
    Mutant("prelog-zero-denominator-uncaught", "src/mgnet/cli.py",
           "    except (ValueError, ZeroDivisionError):\n        pass",
           "    except ValueError:\n        pass",
           (BUDGETS,)),
    # int() reads ' 4', '+4' and '-4', which Fraction(text) refuses after a '/'
    Mutant("prelog-any-denominator-read-as-int", "src/mgnet/cli.py",
           "if p.isdecimal() and q.isdecimal() and (d := int(q)):",
           "if p.isdecimal() and q and (d := int(q)):",
           (BUDGETS,)),
    Mutant("json-ratio-template-den-first", "src/mgnet/cli.py",
           '"num": {n},{newline}  "den": {d}',
           '"den": {d},{newline}  "num": {n}',
           (CLOSED_FORM_TEXT, REGION_TEXT + "[hex-json]")),
    # closed-form's D and L written as JSON strings
    Mutant("closed-form-int-quoted", "src/mgnet/cli.py",
           'f"{v}" if type(v) is int',
           """f'"{v}"' if type(v) is int""",
           (CLOSED_FORM_TEXT + "[wyner]",)),
]


def _copy(into: pathlib.Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "out"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(where: pathlib.Path, tests, expected: tuple[int, ...]) -> int:
    """pytest's exit code for ``tests`` run in the copy at ``where``.  Its output is
    dropped unless the code is not one of ``expected``: then its last lines, with the
    failure summary (``-rf``), are printed."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p",
                           "no:cacheprovider", *tests], cwd=where, env=env, capture_output=True,
                          text=True)
    if proc.returncode not in expected:
        print("".join(proc.stdout.splitlines(keepends=True)[-30:]) + proc.stderr, end="")
    return proc.returncode


def run(mutants: list[Mutant]) -> int:
    """Run each mutant; print one line per mutant and return the number of survivors."""
    with tempfile.TemporaryDirectory(prefix="mgnet-mutate-") as tmp:
        clean = pathlib.Path(tmp, "clean")
        _copy(clean)
        ids = list(dict.fromkeys(t for m in mutants for t in m.tests))
        if (code := _pytest(clean, ids, (0,))) != 0:
            print(f"the mutants' tests do not pass unmutated (pytest exit {code})")
            return len(mutants)
        survivors = 0
        for m in mutants:
            where = pathlib.Path(tmp, m.name)
            _copy(where)
            source = where / m.path
            text = source.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: SURVIVED, its edit occurs {text.count(m.old)} times in {m.path}")
                survivors += 1
                continue
            source.write_text(text.replace(m.old, m.new))
            t0 = time.perf_counter()
            code = _pytest(where, m.tests, (0, 1))
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{m.name}: {verdict} in {time.perf_counter() - t0:.1f} s")
            survivors += code != 1
            shutil.rmtree(where)
    return survivors


if __name__ == "__main__":
    by_name = {m.name: m for m in MUTANTS}
    parser = argparse.ArgumentParser(description="Run the mutation gate.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="run only these mutants (default: all)")
    names = parser.parse_args().names
    if unknown := [n for n in names if n not in by_name]:
        parser.error(f"unknown mutant {unknown[0]!r}; valid names: {', '.join(by_name)}")
    mutants = [by_name[n] for n in dict.fromkeys(names)] or MUTANTS
    survivors = run(mutants)
    print(f"{survivors} of {len(mutants)} mutants survived")
    sys.exit(1 if survivors else 0)
