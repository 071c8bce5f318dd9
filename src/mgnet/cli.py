"""Command-line front end.

Subcommands: region, validate, loads, closed-form, figure, sweep.
Rationals are accepted as 'p/q' strings and emitted exactly; CSV renders a
decimal when possible plus the exact numerator/denominator columns.  A budget
is the lowest-terms pair of ``Fraction(text)``, read by ``int`` when p and q
are decimal digit strings.

Exit codes: 0 success, 2 invalid parameters (the message names the violated
precondition, or the flag whose value is unusable or not taken), 3 `validate`
found a violated precondition, or `loads` found a ledger that differs from the
closed form on a torus (`--tiling`) or a line of whole D+2 periods (`--K`),
1 internal failure.

`main` may be called any number of times in one process; every call parses
once. `region` and `figure` write text straight from the integer hull's pairs
(`regions._region_pairs`), one gcd per coordinate, and `closed-form` writes its
flat object in one pass; there each ``{"num": int, "den": int}`` object is one
string. `validate` and `loads` print ``json.dumps(..., indent=2)``. A known
command with exact `--flag value` pairs is read from its parser's Actions into
argparse's namespace; any other argv goes to the parsers `make_parser` builds
once. `sweep` reads `association.valid_d`, so its cost follows the valid D in
its range.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .association import SCHEME_ALIASES, Scheme, assign, check_params, scheme_tau, valid_d
from .figures import FIGURES, figure_series
from .loads import closed_form, finite_prelogs, formulas, message_ledger
from .rationals import pair_to_csv, ratio_to_csv, ratio_to_json
# achievable_region is not called here; perfbench/selfcheck.py reads it as mgnet.cli's
from .regions import _polyline, _region_pairs, achievable_region  # noqa: F401
from .topology import (HEX, SECTORED, WYNER, build_hex, build_hex_torus,
                       build_sectored_hex, build_sectored_hex_torus,
                       build_wyner)
from .validation import validate

MODELS = {"wyner": WYNER, "hex": HEX, "sectorized": SECTORED}
_SWEEP_COLUMNS = ("s_max", "s_f_both", "s_s_both", "mu_r_tx", "mu_r_rx", "mu_s_rx",
                  "mu_t_tx", "mu_t_rx")  # CSV order; sectorized formulas lack mu_t_*


def _build_network(args, scheme: Scheme):
    model = MODELS[args.model]
    check_params(model, scheme, args.D, args.L)
    if model == WYNER:
        for flag, value in (("--radius", args.radius), ("--tiling", args.tiling)):
            if value is not None:
                raise ValueError(f"the wyner model takes --K, not {flag}")
        if args.K is None:
            raise ValueError("the wyner model needs --K")
        return build_wyner(args.K, args.L)
    if args.K is not None:
        raise ValueError(f"the {args.model} model takes --radius or --tiling, not --K")
    if args.radius is not None and args.tiling is not None:
        raise ValueError("give --radius or --tiling, not both")
    if args.tiling:
        m = args.tiling.lower().split("x")
        if len(m) != 2 or m[0] != m[1] or not m[0].isdecimal():
            raise ValueError("--tiling must look like 2x2")
        copies = int(m[0])
        # no-coop has no master lattice; any positive spacing gives a valid torus
        tau = max(1, scheme_tau(model, scheme, args.D))
        builder = build_hex_torus if model == HEX else build_sectored_hex_torus
        return builder(tau, copies, args.L)
    if args.radius is None:
        raise ValueError("hex models need --radius or --tiling")
    builder = build_hex if model == HEX else build_sectored_hex
    return builder(args.radius, args.L)


def _ratio_json(n: int, d: int, newline: str) -> str:
    """``{"num": n, "den": d}`` as ``json.dumps(..., indent=2)`` writes it at ``newline``."""
    return f'{{{newline}  "num": {n},{newline}  "den": {d}{newline}}}'


def _flat_json(obj: dict) -> str:
    """``json.dumps(obj, indent=2)`` of a nonempty dict of str, int and ``ratio_to_json`` values."""
    a = "\n  "
    return "{" + ",".join(f"{a}{_quote(k)}: " + (
        _quote(v) if type(v) is str else f"{v}" if type(v) is int
        else _ratio_json(v["num"], v["den"], a)) for k, v in obj.items()) + "\n}"


def _open_out(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"--out={path}: {exc.strerror}") from None


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with _open_out(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _prelog(flag: str, text: str) -> tuple[int, int]:
    """A budget as its lowest-terms pair (num, den), the value ``Fraction(text)`` reads."""
    try:
        p, _, q = text.partition("/")
        if p.isdecimal() and q.isdecimal() and (d := int(q)):  # p/0: Fraction(text) raises
            g = math.gcd(n := int(p), d)
            return n // g, d // g
        # str(value) raises past Python's int string limit, as the JSON echo would ("1e5000")
        if (value := Fraction(text)) >= 0 and str(value):
            return value.as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{flag}={text}: need a nonnegative rational p/q")


def _lowest(pairs, den: int):
    """Each pair (x, y) over ``den`` as (x_num, x_den, y_num, y_den), in lowest terms."""
    return ((x // (g := math.gcd(x, den)), den // g, y // (h := math.gcd(y, den)), den // h)
            for x, y in pairs)


def _series_csv(series) -> str:
    """CSV of (label, pairs, den) polylines; no label in use needs csv.writer's quotes."""
    return "series,point,s_f,s_s,s_f_num,s_f_den,s_s_num,s_s_den\n" + "".join(
        f"{label},{i},{pair_to_csv(xn, xd)},{pair_to_csv(yn, yd)},{xn},{xd},{yn},{yd}\n"
        for label, pairs, den in series for i, (xn, xd, yn, yd) in enumerate(_lowest(pairs, den)))


def cmd_region(args) -> int:
    model = MODELS[args.model]
    tx, rx = _prelog("--mu-tx", args.mu_tx), _prelog("--mu-rx", args.mu_rx)
    pairs, den = _region_pairs(model, args.D, args.L, tx, rx)
    if args.format == "csv":
        _emit(args, _series_csv([("region", _polyline(pairs), den)]))
        return 0
    a, b, v = "\n  ", "\n    ", "\n      "  # json.dumps's indents, depth 1 to 3
    vertices = f",{b}".join(f"[{v}{_ratio_json(xn, xd, v)},{v}{_ratio_json(yn, yd, v)}{b}]"
                            for xn, xd, yn, yd in _lowest(pairs, den))
    _emit(args, f'{{{a}"model": {_quote(model)},{a}"D": {args.D},{a}"L": {args.L},{a}"mu_tx": '
          f'{_ratio_json(*tx, a)},{a}"mu_rx": {_ratio_json(*rx, a)},{a}"vertices": '
          f'[{b}{vertices}{a}]\n}}\n')
    return 0


def _validated(args):
    """(net, assoc, subnets, report) of a ``validate`` or ``loads`` command line."""
    scheme = SCHEME_ALIASES[args.scheme]
    net = _build_network(args, scheme)
    assoc = assign(net, args.D, scheme)
    return (net, assoc, *validate(net, assoc))


def cmd_validate(args) -> int:
    _, _, subnets, report = _validated(args)
    out = report.to_json_dict()
    out["n_subnets"] = len(subnets)
    out["masters"] = subnets.masters
    _emit(args, json.dumps(out, indent=2) + "\n")
    return 0 if report.ok else 3


def cmd_loads(args) -> int:
    net, assoc, subnets, report = _validated(args)
    if not report.ok:
        raise ValueError(f"association failed validation: {report.violations[:3]}")
    ledger = message_ledger(net, assoc, subnets)
    cf = closed_form(net.model, assoc.scheme, args.D, args.L)
    fin_tx, fin_rx = finite_prelogs(ledger, net)
    out = {
        "ledger": ledger.to_json_dict(),
        "closed_form": cf.to_json_dict(),
        "finite": {"mu_tx": ratio_to_json(fin_tx), "mu_rx": ratio_to_json(fin_rx)},
        "exact_match": ledger.mu_tx == cf.mu_tx and ledger.mu_rx == cf.mu_rx,
    }
    _emit(args, json.dumps(out, indent=2) + "\n")
    # a torus or a line of whole (D+2)-cell periods has no edge effects; other rims do
    periodic = not net.has_rim or (net.model == WYNER and args.K % (args.D + 2) == 0)
    return 3 if periodic and not out["exact_match"] else 0


def cmd_closed_form(args) -> int:
    scheme = SCHEME_ALIASES[args.scheme]
    cf = closed_form(MODELS[args.model], scheme, args.D, args.L)
    _emit(args, _flat_json(cf.to_json_dict()) + "\n")
    return 0


def cmd_figure(args) -> int:
    _emit(args, _series_csv(figure_series(args.which)))
    return 0


def _parse_range(spec: str, step: int) -> range:
    lo, dots, hi = spec.partition("..")
    if dots and step < 1:
        raise ValueError(f"--step={step}: need a step >= 1")
    try:
        return range(int(lo), int(hi if dots else lo) + 1, step if dots else 1)
    except ValueError:
        raise ValueError(f"--D={spec}: need an integer or lo..hi") from None


def cmd_sweep(args) -> int:
    model = MODELS[args.model]
    least, step, _ = valid_d(model, Scheme.BOTH_COMP_RX)
    ds = _parse_range(args.D_range, args.step)
    ds = ds[len(range(ds.start, least, ds.step)):]  # D >= least
    # one residue class mod step: the first in ds[:step], then every step // gcd entries
    first = next((i for i, d in enumerate(ds[:step]) if (d - least) % step == 0), len(ds))
    with contextlib.ExitStack() as stack:
        w = None
        for d in ds[first::step // math.gcd(step, ds.step)]:
            f = formulas(model, d, args.L)
            names = [k for k in _SWEEP_COLUMNS if k in f]
            row = [d] + [ratio_to_csv(f[n]) for n in names]  # before the header: L may be refused
            if w is None:
                out = stack.enter_context(_open_out(args.out)) if args.out else sys.stdout
                w = csv.writer(out, lineterminator="\n")
                w.writerow(["D"] + names)
            w.writerow(row)
    if w is None:
        raise ValueError("no valid D in the sweep range for this model")
    return 0


# Every option once: flag -> ``add_argument`` keywords.
_OPTIONS = {
    "--model": {"required": True, "choices": sorted(MODELS)},
    "--K": {"type": int, "help": "number of cells (wyner)"},
    "--radius": {"type": int, "help": "hex ball radius (hex/sectorized)"},
    "--tiling": {"help": "MxM whole-subnet torus (hex/sectorized), e.g. 2x2"},
    "--D": {"type": int, "required": True},
    "--L": {"type": int, "required": True},
    "--mu-tx": {"required": True},
    "--mu-rx": {"required": True},
    "--format": {"choices": ["json", "csv"], "default": "json"},
    "--scheme": {"required": True, "choices": sorted(SCHEME_ALIASES)},
    "--which": {"required": True, "choices": sorted(FIGURES)},
    "--step": {"type": int, "default": 2},
    "--out": {},
}
_NETWORK = ("--model", "--K", "--radius", "--tiling")  # the network of validate and loads
# name: (help, handler, flags in help order); a (flag, keywords) pair takes the
# place of the flag's ``_OPTIONS`` entry in that one command
_COMMANDS = {
    "region": ("achievable MG region for given prelog budgets", cmd_region,
               ("--model", "--D", "--L", "--mu-tx", "--mu-rx", "--format", "--out")),
    "validate": ("check an association's structural preconditions", cmd_validate,
                 (*_NETWORK, "--D", ("--L", {"type": int, "default": 1}), "--scheme", "--out")),
    "loads": ("message ledger vs closed form", cmd_loads,
              (*_NETWORK, "--D", "--L", "--scheme", "--out")),
    "closed-form": ("closed-form MG pair and prelogs", cmd_closed_form,
                    ("--model", "--D", "--L", "--scheme", "--out")),
    "figure": ("emit a reference-figure dataset as CSV", cmd_figure, ("--which", "--out")),
    "sweep": ("closed forms over a D grid", cmd_sweep,
              ("--model", "--L", ("--D", {"dest": "D_range", "required": True,
                                          "help": "single value or a..b"}),
               "--step", "--out")),
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``.commands`` maps each subcommand name to its own parser. Every `main` call
    parses with these objects, so callers must not mutate them (add arguments).
    """
    ap = argparse.ArgumentParser(prog="mgnet", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (about, func, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        for flag in flags:
            flag, keywords = flag if isinstance(flag, tuple) else (flag, _OPTIONS[flag])
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    ap.commands = sub.choices
    return ap


def parse_args(argv: list[str]) -> argparse.Namespace:
    """One parse: a known command in canonical pair form by `_read_pairs`, any other
    argv of a known command by its own parser, anything else by the top-level one."""
    ap = make_parser()
    sub = ap.commands.get(argv[0]) if argv else None
    if sub is None:
        return ap.parse_args(argv)
    return _read_pairs(sub, argv) or sub.parse_args(_glue_ranges(argv[1:]),
                                                    argparse.Namespace(command=argv[0]))


def _glue_ranges(args: list[str]) -> list[str]:
    """``--D -3..5`` as ``--D=-3..5``: argparse reads a word that starts with '-' and
    is not a plain negative number as an option, which would leave ``--D`` without a value."""
    for i in range(len(args) - 1, 0, -1):
        if args[i - 1] == "--D" and args[i].startswith("-") and ".." in args[i]:
            args[i - 1:i + 1] = [f"--D={args[i]}"]
    return args


def _read_pairs(sub: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """argparse's namespace for ``command --flag value ...`` with exact option strings,
    every required one, and values argparse takes as they stand (no leading '-', of the
    Action's type and choices; a repeated flag keeps the last); else None.  The options
    are read from argparse's own table; -h takes no value and is left to argparse."""
    if len(argv) % 2 == 0:
        return None
    flags, values = sub._option_string_actions, {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        action = flags.get(flag)
        if action is None or action.nargs is not None or value.startswith("-"):
            return None
        try:
            value = (action.type or str)(value)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in sub._actions:
        if action.nargs is not None:
            continue
        if action.required and action.dest not in values:
            return None
        values.setdefault(action.dest, action.default)
    return argparse.Namespace(command=argv[0], func=sub.get_default("func"), **values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # a value past a float's range (a CSV decimal) is L-fold; past Python's int string
        # limit it is in these commands, and a region vertex also takes the budgets' terms
        big = "integer string conversion" in str(exc)
        if isinstance(exc, OverflowError) or big and args.func in (cmd_loads, cmd_closed_form,
                                                                   cmd_sweep):
            exc = f"--L: a value it scales is too large to write ({exc})"
        elif big and args.func is cmd_region:
            exc = f"--L, --mu-tx, --mu-rx: a vertex they set is too large to write ({exc})"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
