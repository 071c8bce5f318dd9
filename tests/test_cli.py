"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import pathlib
import sys
import tracemalloc
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_loads import valid_range
from test_topology import FIVE_NETWORKS, PIN_D, _pinned_schemes

from mgnet import build_hex_torus, build_sectored_hex_torus
from mgnet.association import SCHEME_ALIASES, Scheme, check_params, scheme_tau
from mgnet.cli import _SWEEP_COLUMNS, MODELS, _flat_json, main, make_parser, parse_args
from mgnet.lattice import is_master
from mgnet.loads import formulas
from mgnet.rationals import ratio_from_json, ratio_to_csv
from mgnet.topology import WYNER, builder_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_region_json(capsys):
    code, out, _ = run(capsys, "region", "--model", "wyner", "--D", "6", "--L", "3",
                       "--mu-tx", "9/8", "--mu-rx", "21/8")
    assert code == 0
    doc = json.loads(out)
    verts = {(ratio_from_json(a), ratio_from_json(b)) for a, b in doc["vertices"]}
    assert verts == {(F(0), F(0)), (F(0), F(21, 8)), (F(3, 2), F(9, 8)), (F(3, 2), F(0))}


def test_region_round_trip(capsys):
    from mgnet import MgPoint, WYNER, achievable_region
    _, out, _ = run(capsys, "region", "--model", "wyner", "--D", "6", "--L", "3",
                    "--mu-tx", "1/2", "--mu-rx", "9/2")
    doc = json.loads(out)
    assert ratio_from_json(doc["mu_tx"]) == F(1, 2)
    assert json.loads(json.dumps(doc)) == doc
    parsed = tuple(MgPoint(ratio_from_json(a), ratio_from_json(b))
                   for a, b in doc["vertices"])
    original = achievable_region(WYNER, 6, 3, F(1, 2), F(9, 2))
    assert parsed == original.vertices


def test_region_sectorized_vertex(capsys):
    code, out, _ = run(capsys, "region", "--model", "sectorized", "--D", "4", "--L", "3",
                       "--mu-tx", "3/4", "--mu-rx", "9/4")
    assert code == 0
    verts = {(ratio_from_json(a), ratio_from_json(b))
             for a, b in json.loads(out)["vertices"]}
    assert (F(1), F(3, 2)) in verts


def test_region_hex_bad_d_exits_2(capsys):
    code, _, err = run(capsys, "region", "--model", "hex", "--D", "6", "--L", "3",
                       "--mu-tx", "1", "--mu-rx", "1")
    assert code == 2
    assert "(D/2 - 1) mod 3" in err


def test_validate_wyner(capsys):
    code, out, _ = run(capsys, "validate", "--model", "wyner", "--K", "16",
                       "--D", "6", "--scheme", "both-rx")
    assert code == 0
    doc = json.loads(out)
    assert doc["fast_independent"] and doc["master_reachable"] and doc["subnets_disjoint"]
    assert doc["n_subnets"] == 2


@pytest.fixture
def failing_validate(monkeypatch):
    """``mgnet.cli.validate`` with the real subnets and a report of one violation."""
    import mgnet.cli
    from mgnet.validation import ValidationReport, subnet_decompose

    def failing(net, assoc):
        subnets, _ = subnet_decompose(net, assoc)
        return subnets, ValidationReport(violations=[(3, "unreachable")])

    monkeypatch.setattr(mgnet.cli, "validate", failing)


def test_validate_failure_exits_3(capsys, failing_validate):
    code, out, _ = run(capsys, "validate", "--model", "wyner", "--K", "16",
                       "--D", "6", "--scheme", "both-rx")
    assert code == 3
    assert json.loads(out)["violations"] == [{"node": 3, "code": "unreachable"}]


def test_loads_on_a_failing_report_exits_2(capsys, failing_validate):
    code, out, err = run(capsys, "loads", "--model", "wyner", "--K", "16",
                         "--D", "6", "--L", "3", "--scheme", "both-rx")
    assert (code, out) == (2, "")
    assert "association failed validation: [(3, 'unreachable')]" in err


@pytest.mark.parametrize("argv, message", [
    (("loads", "--model", "wyner", "--D", "6", "--L", "3"), "the wyner model needs --K"),
    (("validate", "--model", "hex", "--D", "8"), "hex models need --radius or --tiling"),
], ids=["wyner-without-K", "hex-without-radius-or-tiling"])
def test_a_network_without_its_size_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--scheme", "both-rx")
    assert (code, out) == (2, "")
    assert message in err


# sha256 of the `mgnet validate` stdout for each network of FIVE_NETWORKS at PIN_D,
# recorded when `subnet_decompose` returned one Subnet object per component
VALIDATE_PINS = {
    ("wyner", "BOTH_COMP_RX"): "368574c0c17c4c66b2a64aed52fb80c8ac1ea4ccd17d8eee3e6a145434ae3691",
    ("wyner", "BOTH_COMP_TX"): "368574c0c17c4c66b2a64aed52fb80c8ac1ea4ccd17d8eee3e6a145434ae3691",
    ("wyner", "SLOW_COMP_RX"): "539e52d1dda1ccef91056130ee46f758876214a3df106612f6d43f03d2628822",
    ("wyner", "SLOW_COMP_TX"): "539e52d1dda1ccef91056130ee46f758876214a3df106612f6d43f03d2628822",
    ("wyner", "NO_COOP"): "88a75fc39b1af372a32228b087bf76a2103dc85bce587d36370634fcea0052fc",
    ("hex-ball", "BOTH_COMP_RX"): "b1f91355200205133ac2ffe6b47f41461a85853f41df4246c98472ae53b1e8d2",
    ("hex-ball", "BOTH_COMP_TX"): "b1f91355200205133ac2ffe6b47f41461a85853f41df4246c98472ae53b1e8d2",
    ("hex-ball", "SLOW_COMP_RX"): "62d859e7fc53219dcb5d2921fb80db5aae2337b145c0f34bf40bb64b130d8a84",
    ("hex-ball", "SLOW_COMP_TX"): "62d859e7fc53219dcb5d2921fb80db5aae2337b145c0f34bf40bb64b130d8a84",
    ("hex-ball", "NO_COOP"): "d42140aefebc5eacfa996b0b5654dcf4950956277d7a9f17d24884394f4b1430",
    ("hex-torus", "BOTH_COMP_RX"): "f448a1c8ff0fbaa6631117ad5fb11d10f412eb196dfa363a6f7c30ac7b4ec106",
    ("hex-torus", "BOTH_COMP_TX"): "f448a1c8ff0fbaa6631117ad5fb11d10f412eb196dfa363a6f7c30ac7b4ec106",
    ("hex-torus", "NO_COOP"): "4b943cde1e2e1d6de470946222a2138dfc0aea09102c1f62b249fa6e9e7a2fd2",
    ("sectorized-ball", "BOTH_COMP_RX"): "4e1d06f2fc0c790d843d8e97565f83c42cddc7e2c189dc4b4cdcfd6b010c8f7e",
    ("sectorized-ball", "SLOW_COMP_RX"): "69cf9c5d3d85741275a8f1e14d827ff8edbfe7d3e97a07276d687a2ce8dd0cc2",
    ("sectorized-ball", "NO_COOP"): "0b8d723de986d3970a284026b93f310a7569a9bb28736ae714d7fc0b0b6a759d",
    ("sectorized-torus", "BOTH_COMP_RX"): "4e413f6246d0cdb37fbc7eef122f348e9780485f5d29ec0647b30c7de46b9fca",
    ("sectorized-torus", "SLOW_COMP_RX"): "215c627f057956e20d69cfd91b8314e0e7ad1796bf49cf6d3bc408fceda7fce5",
    ("sectorized-torus", "NO_COOP"): "2e5cd31610dd54e47caf32df4c2875ecb9ee68a07eaac16c57f051fa3d8f4364",
}


@pytest.mark.parametrize("name", FIVE_NETWORKS)
def test_validate_output_is_byte_identical(capsys, monkeypatch, name):
    import mgnet.cli
    net = FIVE_NETWORKS[name]()
    monkeypatch.setattr(mgnet.cli, "_build_network", lambda args, scheme: net)
    model = {v: k for k, v in mgnet.cli.MODELS.items()}[net.model]
    alias = {v: k for k, v in SCHEME_ALIASES.items()}
    got = {}
    for scheme in _pinned_schemes(net, PIN_D[name]):
        code, out, _ = run(capsys, "validate", "--model", model, "--D", str(PIN_D[name]),
                           "--scheme", alias[scheme])
        assert code == 0
        got[(name, scheme.name)] = hashlib.sha256(out.encode()).hexdigest()
    assert got == {key: pin for key, pin in VALIDATE_PINS.items() if key[0] == name}


# sha256 of the `mgnet loads` and `mgnet closed-form` stdout for each network of
# FIVE_NETWORKS at PIN_D (rebuilt from its size flags), key order included; recorded
# when `LoadReport` and `ClosedForm` listed their JSON keys by hand.  The sectorized
# torus's slow-rx ledger again when routes came to break ties by unit step, not by id:
# its one subnet wraps onto itself, and `max_rx_link_load` reads 8, not 7
OUTPUT_PINS = {
    ("loads", "wyner", "BOTH_COMP_RX"): "d0bc21c9d023d4465b7c99556d32df38088a8781939235a5640ef970b1855584",
    ("closed-form", "wyner", "BOTH_COMP_RX"): "2801be4a3ad9a47c63f5f7463d0d908d2f19827cc7546696e435ec2106223bb5",
    ("loads", "wyner", "BOTH_COMP_TX"): "34b06942dcbca0743a9c847c808a9e518c6897743b6a09a887d9baeb54b6eb16",
    ("closed-form", "wyner", "BOTH_COMP_TX"): "480967f92ff7a37961b26d4a38b8719a445d11d26fb2444a95e71e063b773a83",
    ("loads", "wyner", "SLOW_COMP_RX"): "79a1878d38c93f3ccb017f773d7428f223010cd6258b65185ee0b5ef22362368",
    ("closed-form", "wyner", "SLOW_COMP_RX"): "16e0635bda554ea4dbb6bc52944f7c9b66537d7e8ace6f4eaf37b5fa8a1adde7",
    ("loads", "wyner", "SLOW_COMP_TX"): "772adf30cb2dad8588c21162f50da9e0a42bec95c240ea168ab54d944488eceb",
    ("closed-form", "wyner", "SLOW_COMP_TX"): "be4fbb5627336b00c67b545a7aa68a98a1c68af44d78e54f41503b75f7b49268",
    ("loads", "wyner", "NO_COOP"): "a6ecd54a0d09f5a50e8b133da9d366288696ececcbf1412ac27efe695576be80",
    ("closed-form", "wyner", "NO_COOP"): "418183ae9a261a83fa766b313db0d4820490cde280ce0652573b6fa0cd0a1ed2",
    ("loads", "hex-ball", "BOTH_COMP_RX"): "5a6235fc9a216becfb1618d5fb6509ade9ebfb7d06c333d2466404066b422d2f",
    ("closed-form", "hex-ball", "BOTH_COMP_RX"): "d0cbbc4151af0ddd3d100f0a645309b6f7987a41d6d0d52ff0e2fbd5d33cfa2e",
    ("loads", "hex-ball", "BOTH_COMP_TX"): "ab869cc701beaf7564c688cb5fe687c5da1818b840915548555b47826782d9f7",
    ("closed-form", "hex-ball", "BOTH_COMP_TX"): "166bab2c536c3b93d4b04e3decf89ddd7e0041610148c37ff2efd25061de10ba",
    ("loads", "hex-ball", "SLOW_COMP_RX"): "b5f2e9f54d645e38853f314145191772e91a219baa30dcb475f5131b742076b7",
    ("closed-form", "hex-ball", "SLOW_COMP_RX"): "851c4252822f8c525091d29235cf8666e4d41ed5c20c812d9f331d5203d16e77",
    ("loads", "hex-ball", "SLOW_COMP_TX"): "186682ddd2142348ce96b3b0f4027c96dcc792c519c51f66cb5534e28a1a3a47",
    ("closed-form", "hex-ball", "SLOW_COMP_TX"): "b94fb00873b09be1b956333387d0f5a07a1c7bafac9123778a5b23a5fe05ed13",
    ("loads", "hex-ball", "NO_COOP"): "430499ab7ff7a30075ddf2f87fe4198894ce5817a19d22812487829aa239a117",
    ("closed-form", "hex-ball", "NO_COOP"): "d9e92b027395b089d1fbb79ee59260da18762335d9010d747f03cf33786b0d21",
    ("loads", "hex-torus", "BOTH_COMP_RX"): "59fd718e9bae45bf71ab34e94e3c2a668bc3957d97cbb4b5859f2c327ec6a39b",
    ("closed-form", "hex-torus", "BOTH_COMP_RX"): "e8b1deecc8f10d1d2fc5a9b9c21acf119fe1db14396c0c0363a4ac3c0d6fc53f",
    ("loads", "hex-torus", "BOTH_COMP_TX"): "d45288cbb764170be0c2c9b9e3500fba4c994cc0752715f99724d2907d533ca0",
    ("closed-form", "hex-torus", "BOTH_COMP_TX"): "ddc5ccacd0b17500bdcf73e14101766c4801312dd9a16db90ca3659d749d4546",
    ("loads", "hex-torus", "NO_COOP"): "8dcc78adfeb9497942e0b9b2186f53e88e7e014d51beeec786a2c2dd488d3ad0",
    ("closed-form", "hex-torus", "NO_COOP"): "1ede554e52e8a1f10e5484195b79a21b9cee70d04958ae4b20101efb86831a03",
    ("loads", "sectorized-ball", "BOTH_COMP_RX"): "8ab6a08e9eca8af9d21d5cc2026c09b20dcb1ff7515f1733a73b1e9ddf32a4f5",
    ("closed-form", "sectorized-ball", "BOTH_COMP_RX"): "93baf1cb12e9225837b57cacc8e6c85fccba945298af7753ca8a2f01fe342948",
    ("loads", "sectorized-ball", "SLOW_COMP_RX"): "84de49014912c60048c2d1d46ed7eb7301d934c97348ff8e5880309f51670912",
    ("closed-form", "sectorized-ball", "SLOW_COMP_RX"): "a3e9277967de5a43a44c66dc9f6d7f1c8fba33e26d32d1716de7fef1637b0843",
    ("loads", "sectorized-ball", "NO_COOP"): "7c13a331173202940a4b6b27982b3c41ba0b1c8aad0438bc5c0daf01fdf3adc9",
    ("closed-form", "sectorized-ball", "NO_COOP"): "262166fe936970a13923101e6f5f17d3d7e953320310558acfae3cc199c15aae",
    ("loads", "sectorized-torus", "BOTH_COMP_RX"): "cc11fcfece3fc54e6096ef0e7f96cbef872cf6c0de001c56ffdc4d86f979daad",
    ("closed-form", "sectorized-torus", "BOTH_COMP_RX"): "8c492bb75bf18432f3221aca0c0de6fd8757dc72535c2687aae6fc00843f06e5",
    ("loads", "sectorized-torus", "SLOW_COMP_RX"): "018fee0355f35730822b9a5932c7a9924dc28ad869e614b0437c15546c62513a",
    ("closed-form", "sectorized-torus", "SLOW_COMP_RX"): "0f4905482292b5286bfa80222a89ea9daec2fe9a9a015503150190161679ffe3",
    ("loads", "sectorized-torus", "NO_COOP"): "45648d181b2a146784162f52f1a8f24c361267580de53445a5085d5d641f72b1",
    ("closed-form", "sectorized-torus", "NO_COOP"): "7ad44cf13faea2558a72bc3e92f3029ac68629974bf7208c2071103d5b8b9d53",
}


def _size_flags(net):
    """The --K, --radius or --tiling that builds ``net`` again."""
    if "tau" in net.params:
        return ["--tiling", "{0}x{0}".format(net.params["copies"])]
    ((key, value),) = net.params.items()
    return [f"--{key}", str(value)]


@pytest.mark.parametrize("name", FIVE_NETWORKS)
def test_loads_and_closed_form_output_is_byte_identical(capsys, name):
    net = FIVE_NETWORKS[name]()
    model = {v: k for k, v in MODELS.items()}[net.model]
    alias = {v: k for k, v in SCHEME_ALIASES.items()}
    common = ["--model", model, "--D", str(PIN_D[name]), "--L", str(net.L)]
    got = {}
    for scheme in _pinned_schemes(net, PIN_D[name]):
        for argv in (["loads", *common, *_size_flags(net)], ["closed-form", *common]):
            code, out, _ = run(capsys, *argv, "--scheme", alias[scheme])
            assert code == 0
            got[(argv[0], name, scheme.name)] = hashlib.sha256(out.encode()).hexdigest()
    assert got == {key: pin for key, pin in OUTPUT_PINS.items() if key[1] == name}


@pytest.mark.parametrize("L", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("region", "--model", "wyner", "--D", "4", "--mu-tx", "1", "--mu-rx", "1"),
    ("closed-form", "--model", "hex", "--D", "8", "--scheme", "both-rx"),
    ("sweep", "--model", "sectorized", "--D", "2..8"),
])
def test_nonpositive_l_exits_2(capsys, argv, L):
    code, out, err = run(capsys, *argv, "--L", L)
    assert code == 2
    assert out == ""
    assert f"L={L}" in err


@pytest.mark.parametrize("argv,named", [
    (("validate", "--model", "hex", "--D", "8", "--L", "0", "--radius", "2",
      "--scheme", "both-rx"), "L=0"),
    (("loads", "--model", "wyner", "--K", "16", "--D", "5", "--L", "3",
      "--scheme", "both-rx"), "D=5"),
    (("loads", "--model", "hex", "--D", "8", "--L", "3", "--scheme", "both-rx",
      "--tiling", "0x0"), "copies=0"),
    (("validate", "--model", "sectorized", "--D", "4", "--radius", "-1",
      "--scheme", "both-rx"), "radius=-1"),
])
def test_bad_network_parameters_are_named(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize("budgets, named", [
    (("--mu-tx", "1/0", "--mu-rx", "1"), "--mu-tx=1/0"),
    (("--mu-tx", "abc", "--mu-rx", "1"), "--mu-tx=abc"),
    (("--mu-tx=-1/2", "--mu-rx", "1"), "--mu-tx=-1/2"),
    (("--mu-tx", "1", "--mu-rx", "1/0"), "--mu-rx=1/0"),
])
def test_bad_prelog_budgets_are_named(capsys, budgets, named):
    code, out, err = run(capsys, "region", "--model", "hex", "--D", "8", "--L", "3", *budgets)
    assert code == 2
    assert out == ""
    assert err == f"error: {named}: need a nonnegative rational p/q\n"


def _budget_by_fraction(text):
    """The budget rule: ``Fraction(text)`` if it reads as a nonnegative value whose terms
    Python can write in decimal (within its int string limit), else None."""
    try:
        value = F(text)
        str(value.numerator), str(value.denominator)
    except (ValueError, ZeroDivisionError):
        return None
    return value if value >= 0 else None


decimal_digits = st.text("0123456789", min_size=1, max_size=6)
budget_texts = st.one_of(
    st.builds("{}/{}".format, decimal_digits, decimal_digits),
    st.builds("{}/0".format, decimal_digits), st.builds("0/{}".format, decimal_digits),
    # signs, spaces, points, underscores, a tab and Arabic-Indic digits, anywhere
    st.text("0123456789/+-. _\t٣٤", min_size=1, max_size=8),
    st.sampled_from(["1.5", "3", "1e3", "1_0/3", "3/1_0", "٣/4", "3/٤", "+3/4",
                     "-3/4", "3/-4", "3/+4", " 3/4 ", "3 /4", "3/ 4", "0/0", "00/000", "-0/7",
                     "1/2/3", "1" * 4301 + "/3", "3/" + "1" * 4301, "1" * 4300 + "/7",
                     "1e5000", "1e-5000", "1e4299", "2.5e-4299"]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(budget_texts)
def test_budgets_are_read_by_the_fraction_rule(text):
    """A budget is accepted with the value ``Fraction(text)`` gives, or refused with the
    same exit-2 message, whichever way the CLI reads it."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["region", "--model", "wyner", "--D", "6", "--L", "3",
                     f"--mu-tx={text}", "--mu-rx", "1"])
    value = _budget_by_fraction(text)
    if value is None:
        assert (code, out.getvalue(), err.getvalue()) == \
            (2, "", f"error: --mu-tx={text}: need a nonnegative rational p/q\n")
    else:
        assert (code, err.getvalue()) == (0, "")
        assert ratio_from_json(json.loads(out.getvalue())["mu_tx"]) == value


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("flag, text", [("--mu-tx", "1e5000"), ("--mu-rx", "1e-5000"),
                                        ("--mu-tx", "2.5e4300")])
def test_budgets_past_the_int_string_limit_are_refused_in_both_formats(capsys, fmt, flag, text):
    """A budget whose terms Python cannot write in decimal is refused, naming its flag,
    whether or not the output would echo it (JSON does, CSV does not)."""
    budgets = {"--mu-tx": "1", "--mu-rx": "1", flag: text}
    code, out, err = run(capsys, "region", "--model", "wyner", "--D", "6", "--L", "3",
                         *(x for pair in budgets.items() for x in pair), "--format", fmt)
    assert (code, out, err) == (2, "", f"error: {flag}={text}: need a nonnegative rational p/q\n")


@pytest.mark.parametrize("argv, L, reason", [
    (("closed-form", "--model", "wyner", "--D", "6", "--scheme", "both-rx"), "9" * 4300,
     "integer string conversion"),
    (("sweep", "--model", "wyner", "--D", "2..6"), "9" * 4300, "integer string conversion"),
    (("loads", "--model", "wyner", "--K", "16", "--D", "6", "--scheme", "both-rx"), "9" * 4300,
     "integer string conversion"),
    (("sweep", "--model", "wyner", "--D", "4..4"), "1" + "0" * 400, "too large for a float"),
    (("region", "--model", "wyner", "--D", "4", "--mu-tx", "1", "--mu-rx", "1", "--format",
      "csv"), "1" + "0" * 400, "too large for a float"),
], ids=["closed-form", "sweep", "loads", "sweep-csv-float", "region-csv-float"])
def test_an_l_whose_values_cannot_be_written_is_named(capsys, argv, L, reason):
    """An L that argparse reads, but whose L-fold values pass Python's int string limit
    (4300 digits) or, written as a CSV decimal, a float's range, exits 2 naming --L, with
    nothing written."""
    code, out, err = run(capsys, *argv, "--L", L)
    assert (code, out) == (2, "")
    assert err.startswith("error: --L: a value it scales is too large to write (")
    assert reason in err


_REGION_VERTEX_TOO_LARGE = "error: --L, --mu-tx, --mu-rx: a vertex they set is too large to write ("


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ("--model", "hex", "--D", "8", "--L", "3", "--mu-tx", "1/" + "9" * 4299, "--mu-rx", "7/2"),
    ("--model", "wyner", "--D", "6", "--L", "9" * 4300, "--mu-tx", "100", "--mu-rx", "100"),
], ids=["hex-mu-tx", "wyner-L"])
def test_a_region_vertex_that_cannot_be_written_names_its_flags(capsys, argv, fmt):
    """Budgets and an L that are read, but that give a region vertex past Python's int
    string limit, exit 2 naming --L, --mu-tx and --mu-rx, with nothing written."""
    code, out, err = run(capsys, "region", *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith(_REGION_VERTEX_TOO_LARGE) and "integer string conversion" in err


@pytest.mark.parametrize("argv", [
    ("figure", "--which", "fig8"),
    ("sweep", "--model", "wyner", "--L", "3", "--D", "2..10"),  # opens its file lazily
])
def test_an_out_that_cannot_be_opened_is_named(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: --out={path}: No such file or directory\n"
    assert not path.parent.exists()


@pytest.mark.parametrize("step", ["0", "-2"])
def test_sweep_nonpositive_step_exits_2(capsys, step):
    code, out, err = run(capsys, "sweep", "--model", "wyner", "--L", "3",
                         "--D", "2..6", "--step", step)
    assert code == 2
    assert out == ""
    assert f"--step={step}" in err


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--model", "wyner", "--L", "3", "--D", "2..10..2"),
     "error: --D=2..10..2: need an integer or lo..hi\n"),
    (("sweep", "--model", "wyner", "--L", "3", "--D", "two"),
     "error: --D=two: need an integer or lo..hi\n"),
    (("sweep", "--model", "hex", "--L", "3", "--D", "..8"),
     "error: --D=..8: need an integer or lo..hi\n"),
    (("loads", "--model", "hex", "--D", "8", "--L", "3", "--scheme", "both-rx",
      "--tiling", "\u00b2x\u00b2"), "error: --tiling must look like 2x2\n"),
])
def test_malformed_value_names_its_flag(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


def test_loads_hex_tiling(capsys):
    code, out, _ = run(capsys, "loads", "--model", "hex", "--D", "8", "--L", "3",
                       "--scheme", "both-rx", "--tiling", "2x2")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_match"] is True
    assert ratio_from_json(doc["ledger"]["mu_rx"]) == F(7, 4)


@pytest.mark.parametrize("model", ["hex", "sectorized"])
def test_torus_cells_are_numbered_along_the_parallelogram(capsys, model):
    """On every torus with tau <= 5 and M <= 3, cell i is (a, b) = divmod(i, 3 tau M): the
    rows are the mt-by-3mt parallelogram's (mt = tau M), and the masters `validate` prints
    for each cooperative scheme and D of that tau are the parallelogram's lattice points."""
    build = build_hex_torus if model == "hex" else build_sectored_hex_torus
    runs = [(alias, D, scheme_tau(MODELS[model], scheme, D))
            for alias, scheme in sorted(SCHEME_ALIASES.items()) if scheme.cooperative
            for D in valid_range(MODELS[model], scheme, 10)]
    assert {tau for *_, tau in runs} == ({1, 2, 4, 5} if model == "hex" else {1, 2, 3, 4, 5})
    for tau in range(1, 6):
        for M in (1, 2, 3):
            mt, P = tau * M, 3 * tau * M
            net = build(tau, M, 1)
            assert list(net.cell_coords) == [divmod(i, P) for i in range(mt * P)]
            assert builder_rows(net) == tuple((a, 0, P - 1) for a in range(mt))
            points = [a * P + b for a in range(mt) for b in range(P) if is_master((a, b), tau)]
            for alias, D in ((alias, D) for alias, D, t in runs if t == tau):
                code, out, _ = run(capsys, "validate", "--model", model, "--D", str(D),
                                   "--scheme", alias, "--tiling", f"{M}x{M}")
                assert code == 0 and sorted(json.loads(out)["masters"]) == points


def test_loads_torus_mismatch_exits_3(capsys, monkeypatch):
    import dataclasses

    import mgnet.cli
    real = mgnet.cli.closed_form

    def off_by_one(*args):
        cf = real(*args)
        return dataclasses.replace(cf, mu_rx=cf.mu_rx + 1)

    monkeypatch.setattr(mgnet.cli, "closed_form", off_by_one)
    code, out, _ = run(capsys, "loads", "--model", "sectorized", "--D", "4", "--L", "3",
                       "--scheme", "both-rx", "--tiling", "2x2")
    assert code == 3
    assert json.loads(out)["exact_match"] is False


# every valid (D, scheme) of D <= 26 on a line of m whole (D+2)-cell periods, L in {1, 3}
WYNER_PERIODS = [(D, alias, m * (D + 2), L) for D in range(27)
                 for alias, scheme in sorted(SCHEME_ALIASES.items())
                 if D in valid_range(WYNER, scheme, 26)
                 for m in (1, 2, 3, 5) for L in (1, 3)]


def test_wyner_line_of_whole_periods_matches_the_closed_form(capsys):
    assert len(WYNER_PERIODS) == 520 + 2 * 4 * 14  # even D >= 2, plus no-coop at D 0..26
    for D, alias, K, L in WYNER_PERIODS:
        code, out, _ = run(capsys, "loads", "--model", "wyner", "--K", str(K), "--D", str(D),
                           "--L", str(L), "--scheme", alias)
        assert (code, json.loads(out)["exact_match"]) == (0, True), (D, alias, K, L)


@pytest.mark.parametrize("D, K, code", [(6, 8, 3), (6, 24, 3), (6, 2000, 3), (2, 12, 3),
                                        (0, 2, 3), (3, 15, 3), (6, 17, 0), (6, 28, 0),
                                        (2, 10, 0), (3, 14, 0)])
def test_wyner_mismatch_exits_3_only_on_whole_periods(capsys, monkeypatch, D, K, code):
    import dataclasses

    import mgnet.cli
    real = mgnet.cli.closed_form

    def off_by_one(*args):
        cf = real(*args)
        return dataclasses.replace(cf, mu_tx=cf.mu_tx + 1)

    monkeypatch.setattr(mgnet.cli, "closed_form", off_by_one)
    got, out, _ = run(capsys, "loads", "--model", "wyner", "--K", str(K), "--D", str(D),
                      "--L", "2", "--scheme", "no-coop" if D in (0, 3) else "both-tx")
    assert (got, json.loads(out)["exact_match"]) == (code, False)


@pytest.mark.parametrize("size", [("--model", "hex", "--D", "8", "--radius", "6"),
                                  ("--model", "wyner", "--D", "6", "--K", "17")])
def test_loads_off_torus_mismatch_exits_0(capsys, size):
    # edge effects make a ball or line ledger differ by design
    code, out, _ = run(capsys, "loads", *size, "--L", "3", "--scheme", "both-rx")
    assert code == 0
    assert json.loads(out)["exact_match"] is False


UNUSED_SIZE_FLAGS = {
    "wyner-tiling": (("loads", "--model", "wyner", "--D", "6", "--L", "3", "--K", "17",
                      "--tiling", "2x2"), "--tiling"),
    "wyner-radius": (("validate", "--model", "wyner", "--D", "6", "--K", "17",
                      "--radius", "3"), "--radius"),
    "hex-K": (("validate", "--model", "hex", "--D", "8", "--radius", "3", "--K", "17"), "--K"),
    "sectorized-K": (("loads", "--model", "sectorized", "--D", "4", "--L", "3",
                      "--tiling", "2x2", "--K", "17"), "--K"),
    "hex-radius-and-tiling": (("validate", "--model", "hex", "--D", "8", "--radius", "3",
                               "--tiling", "2x2"), "--radius or --tiling"),
}


@pytest.mark.parametrize("argv, flag", UNUSED_SIZE_FLAGS.values(), ids=UNUSED_SIZE_FLAGS.keys())
def test_size_flag_the_model_does_not_use_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv, "--scheme", "both-rx")
    assert (code, out) == (2, "")
    assert flag in err


def test_closed_form_command(capsys):
    code, out, _ = run(capsys, "closed-form", "--model", "sectorized", "--D", "4",
                       "--L", "3", "--scheme", "slow-rx")
    assert code == 0
    doc = json.loads(out)
    assert ratio_from_json(doc["mu_rx"]) == F(3)


def test_sweep_wyner(capsys):
    code, out, _ = run(capsys, "sweep", "--model", "wyner", "--L", "3",
                       "--D", "2..10", "--step", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert lines[0].startswith("D,")


def test_sweep_writes_each_row_as_it_is_made(monkeypatch):
    import mgnet.cli
    real, seen = mgnet.cli.formulas, []

    def tripwire(model, D, L):  # the sweep may not run ahead of its output
        seen.append(D)
        assert len(seen) <= 4, "sweep computed rows it had not written"
        return real(model, D, L)

    class FullAfterThreeRows(io.StringIO):
        def write(self, text):
            if self.getvalue().count("\n") == 4:
                raise BrokenPipeError
            return super().write(text)

    monkeypatch.setattr(mgnet.cli, "formulas", tripwire)
    monkeypatch.setattr(sys, "stdout", FullAfterThreeRows())
    tracemalloc.start()
    try:
        with pytest.raises(BrokenPipeError):
            main(["sweep", "--model", "wyner", "--L", "3", "--D", "2..2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sys.stdout.getvalue()
    monkeypatch.undo()
    assert seen == [2, 4, 6, 8]
    assert peak < 2**20, "the D range was held in memory"  # a list of it takes ~36 MB
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert main(["sweep", "--model", "wyner", "--L", "3", "--D", "2..6"]) == 0
    assert written == buf.getvalue()


def test_sweep_with_no_valid_d_writes_nothing(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--model", "hex", "--L", "3", "--D", "4..6",
                         "--out", str(path))
    assert (code, out, path.exists()) == (2, "", False)
    assert "no valid D" in err


@pytest.mark.parametrize("spec, code", [("-3..5", 2), ("-4..6", 0), ("-10..-2", 2), ("-x..5", 2)])
def test_sweep_reads_a_negative_range_as_two_words(spec, code):
    def sweep(*d_args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(["sweep", "--model", "wyner", "--L", "3", *d_args])
        return got, out.getvalue(), err.getvalue()

    two_words = sweep("--D", spec)
    assert two_words == sweep(f"--D={spec}")
    assert two_words[0] == code and "expected one argument" not in two_words[2]


def reference_sweep(model, L, spec, step):
    """The sweep's output as a loop that tests every D of its range with check_params."""
    if ".." in spec:
        if step < 1:
            raise ValueError(f"--step={step}: need a step >= 1")
        lo, hi = spec.split("..")
        ds = range(int(lo), int(hi) + 1, step)
    else:
        ds = range(int(spec), int(spec) + 1)
    buf, w = io.StringIO(), None
    for d in ds:
        try:
            check_params(model, Scheme.BOTH_COMP_RX, d, 1)
        except ValueError:
            continue
        f = formulas(model, d, L)
        if w is None:
            w = csv.writer(buf, lineterminator="\n")
            names = [k for k in _SWEEP_COLUMNS if k in f]
            w.writerow(["D"] + names)
        w.writerow([d] + [ratio_to_csv(f[n]) for n in names])
    if w is None:
        raise ValueError("no valid D in the sweep range for this model")
    return buf.getvalue()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(-3, 40), st.integers(-10, 400),
       st.integers(1, 12), st.sampled_from((0, 1, 3)), st.booleans())
def test_sweep_equals_testing_every_d(model, lo, hi, step, L, single):
    spec = str(lo) if single else f"{lo}..{hi}"
    try:
        expected = (0, reference_sweep(MODELS[model], L, spec, step), "")
    except ValueError as exc:
        expected = (2, "", f"error: {exc}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", "--model", model, "--L", str(L), f"--D={spec}",
                     "--step", str(step)])
    assert (code, out.getvalue(), err.getvalue()) == expected


def test_figure_csv_is_byte_stable(capsys):
    import csv
    import io
    _, out1, _ = run(capsys, "figure", "--which", "fig5a")
    _, out2, _ = run(capsys, "figure", "--which", "fig5a")
    assert out1 == out2
    rows = list(csv.reader(io.StringIO(out1)))
    series = {r[0] for r in rows[1:]}
    assert len(series) == 7


def test_figure_to_file(tmp_path, capsys):
    path = tmp_path / "fig10.csv"
    code, _, _ = run(capsys, "figure", "--which", "fig10", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0] == "series,point,s_f,s_s,s_f_num,s_f_den,s_s_num,s_s_den"
    assert "2.5" in text


def test_unknown_figure_exits_2(capsys):
    import pytest
    with pytest.raises(SystemExit) as exc:
        run(capsys, "figure", "--which", "fig99")
    assert exc.value.code == 2


def test_parser_is_built_once():
    from mgnet.cli import make_parser
    assert make_parser() is make_parser()


REUSED = [
    ("region", "--model", "hex", "--D", "8", "--L", "3", "--mu-tx", "5/8", "--mu-rx", "7/4"),
    ("region", "--model", "sectorized", "--D", "4", "--L", "3",
     "--mu-tx", "1/2", "--mu-rx", "5/2", "--format", "csv"),
    ("figure", "--which", "fig8"),
]


def test_parser_reuse_after_rejections_gives_identical_output(capsys):
    first = [run(capsys, *argv) for argv in REUSED]
    assert all(code == 0 and out for code, out, _ in first)
    with pytest.raises(SystemExit) as exc:  # argparse rejects the argument
        run(capsys, "figure", "--which", "fig99")
    assert exc.value.code == 2
    capsys.readouterr()
    assert [run(capsys, *argv) for argv in REUSED] == first
    code, out, err = run(capsys, "region", "--model", "wyner", "--D", "4", "--L", "0",
                         "--mu-tx", "1", "--mu-rx", "1")  # ValueError, exit 2
    assert (code, out) == (2, "") and "L=0" in err
    assert [run(capsys, *argv) for argv in REUSED] == first


def test_csv_rendering_rules():
    from mgnet.rationals import ratio_to_csv
    assert ratio_to_csv(F(21, 8)) == "2.625"
    assert ratio_to_csv(F(3)) == "3"
    assert ratio_to_csv(F(-7, 4)) == "-1.75"
    assert ratio_to_csv(F(1, 3)) == "0.333333333333"
    assert ratio_to_csv(F(47, 24)) == "1.95833333333"


# --- closed-form's flat JSON writer -----------------------------------------

json_strings = st.text() | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x01\x1f\x7f", "\n\r\t\b\f", "é ü", "\u2028\u2029", "\U0001f600", ""])
json_ints = (st.integers() | st.integers(min_value=-10**40, max_value=10**40)
             | st.integers(10**40, 10**60) | st.integers(-10**60, -10**40))
json_ratios = st.builds(lambda num, den: {"num": num, "den": den}, json_ints, json_ints)
flat_dicts = st.dictionaries(json_strings, json_strings | json_ints | json_ratios,
                             min_size=1, max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flat_dicts)
def test_json_writer_equals_json_dumps_indent_2(obj):
    assert _flat_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{"a": "b"}, {"": ""}, {'"\\': '\\"'},
                                 {"\x00\x1f\x7f": "\n\r\t\b\f"},
                                 {"é ü": "\U0001f600"}, {"n": 0, "m": -1},
                                 {"big": -(10**400)}, {"z": 1, "a": 2},
                                 {"r": {"num": 3, "den": 8}},
                                 {"r": {"num": -(10**50), "den": 10**60}},
                                 {"den": {"num": 0, "den": 1}, "num": 3},
                                 {"s": "x", "r": {"num": 7, "den": 2}, "i": 7}])
def test_json_writer_edge_values(obj):
    assert _flat_json(obj) == json.dumps(obj, indent=2)


def test_json_writer_rejects_what_json_dumps_rejects():
    for obj, error in [({"x": F(1, 2)}, TypeError), ({"x": 10**4300}, ValueError),
                       ({"x": {"num": 10**4300, "den": 1}}, ValueError)]:
        with pytest.raises(error):
            json.dumps(obj, indent=2)
        with pytest.raises(error):
            _flat_json(obj)


# --- JSON output -------------------------------------------------------

JSON_COMMANDS = {
    "region": ("region", "--model", "hex", "--D", "8", "--L", "3",
               "--mu-tx", "5/8", "--mu-rx", "7/4"),
    "closed-form": ("closed-form", "--model", "sectorized", "--D", "4", "--L", "3",
                    "--scheme", "slow-rx"),
    "loads": ("loads", "--model", "hex", "--D", "8", "--L", "3", "--scheme", "both-rx",
              "--tiling", "2x2"),
    "validate": ("validate", "--model", "wyner", "--K", "16", "--D", "6",
                 "--scheme", "both-rx"),
}


def _json_reference(argv):
    """The dict a JSON command prints, built from the library API, not from `mgnet.cli`."""
    from mgnet.association import assign, scheme_tau
    from mgnet.loads import closed_form, finite_prelogs, message_ledger
    from mgnet.rationals import ratio_to_json
    from mgnet.topology import build_hex_torus, build_wyner
    from mgnet.validation import validate
    if argv[0] == "closed-form":
        return closed_form(MODELS["sectorized"], Scheme.SLOW_COMP_RX, 4, 3).to_json_dict()
    if argv[0] == "validate":
        net = build_wyner(16, 1)
        subnets, report = validate(net, assign(net, 6, Scheme.BOTH_COMP_RX))
        return {**report.to_json_dict(), "n_subnets": len(subnets), "masters": subnets.masters}
    net = build_hex_torus(scheme_tau(MODELS["hex"], Scheme.BOTH_COMP_RX, 8), 2, 3)
    assoc = assign(net, 8, Scheme.BOTH_COMP_RX)
    ledger = message_ledger(net, assoc, validate(net, assoc)[0])
    cf = closed_form(MODELS["hex"], Scheme.BOTH_COMP_RX, 8, 3)
    fin_tx, fin_rx = finite_prelogs(ledger, net)
    return {"ledger": ledger.to_json_dict(), "closed_form": cf.to_json_dict(),
            "finite": {"mu_tx": ratio_to_json(fin_tx), "mu_rx": ratio_to_json(fin_rx)},
            "exact_match": ledger.mu_tx == cf.mu_tx and ledger.mu_rx == cf.mu_rx}


@pytest.mark.parametrize("argv", JSON_COMMANDS.values(), ids=JSON_COMMANDS.keys())
def test_json_commands_print_json_dumps_indent_2(capsys, argv):
    if argv[0] == "region":
        assert run(capsys, *argv) == _region_reference("hex", 8, 3, "5/8", "7/4", "json")
        return
    assert run(capsys, *argv) == (0, json.dumps(_json_reference(argv), indent=2) + "\n", "")


def _closed_form_reference(model, scheme, D, L):
    """(exit code, stdout) of ``mgnet closed-form`` by the Fraction API."""
    from mgnet.loads import closed_form
    try:
        return 0, json.dumps(closed_form(model, scheme, D, L).to_json_dict(), indent=2) + "\n"
    except ValueError:  # a value past Python's int string limit
        return 2, ""


@pytest.mark.parametrize("model", sorted(MODELS))
def test_closed_form_text_equals_the_fraction_api(capsys, model):
    """Every valid scheme, D <= 30, L in 1..5 and 4290 digits; and a 4300-digit L, which
    takes some values past the int string limit, so both paths refuse it alike. A refusal
    prints one error line, whose wording is not pinned here."""
    alias = {v: k for k, v in SCHEME_ALIASES.items()}
    codes = set()
    for scheme in Scheme:
        for D in valid_range(MODELS[model], scheme, 30):
            for L in (*range(1, 6), "9" * 4290, "9" * 4300):
                argv = ["closed-form", "--model", model, "--D", str(D), "--L", str(L),
                        "--scheme", alias[scheme]]
                code, out, err = run(capsys, *argv)
                assert (code, out) == _closed_form_reference(MODELS[model], scheme, D, int(L)), \
                    argv[:7]
                assert err == "" if code == 0 else (err[:7], err.count("\n")) == ("error: ", 1), \
                    argv[:7]
                codes.add(code)
    assert codes == {0, 2}


# --- dispatch: one parse with the subcommand's own parser -----------------

PARSE_CASES = [
    ("region", "--model", "wyner", "--D", "6", "--L=3", "--mu-tx=9/8", "--mu-rx", "21/8"),
    ("region", "--format=csv", "--model=hex", "--D=8", "--L=3", "--mu-tx=5/8",
     "--mu-rx=7/4", "--out", "x.csv"),
    ("validate", "--model", "wyner", "--K=16", "--D", "6", "--scheme=both-rx"),
    ("validate", "--model=hex", "--radius=3", "--D=8", "--L=2", "--scheme", "no-coop"),
    ("loads", "--model", "sectorized", "--tiling=2x2", "--D", "4", "--L", "3",
     "--scheme", "both-rx"),
    ("closed-form", "--model=hex", "--D=8", "--L=3", "--scheme=slow-rx", "--out=cf.json"),
    ("figure", "--which=fig5a"),
    ("sweep", "--model", "wyner", "--L", "3", "--D=2..10", "--step=4"),
    ("sweep", "--model=sectorized", "--L=1", "--D", "4"),
]


def test_every_command_has_a_parse_case():
    from mgnet.cli import make_parser
    assert {argv[0] for argv in PARSE_CASES} == set(make_parser().commands)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv))
def test_parse_equals_top_level_parse(argv):
    from mgnet.cli import make_parser, parse_args
    assert vars(parse_args(list(argv))) == vars(make_parser().parse_args(list(argv)))


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["nosuch", "--model", "wyner"]])
def test_no_or_unknown_command_exits_2_with_top_level_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mgnet [-h]")
    assert ("invalid choice: 'nosuch'" in err) == bool(argv)


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: mgnet [-h]"),
                                          (["region", "--help"], "usage: mgnet region"),
                                          (["sweep", "-h"], "usage: mgnet sweep")])
def test_help_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(usage)


# sha256 of `mgnet --help` and of each `mgnet <command> --help` at 80 columns (Python 3.11),
# recorded when `make_parser` added every subcommand's options one by one; the top-level
# text is the module docstring, re-recorded when it came to name the ratio fast paths, when
# region and figure text came to be written from the integer hull's pairs, and when the
# general JSON writer gave way to json.dumps and closed-form's flat writer
HELP_PINS = {
    "mgnet": "e8b3d61ffc7beb4acf90d0e4242c6bcfd6efd287592da16f7d0bccb4baa6061a",
    "closed-form": "0e52b006af5a0266fc1cdd38bb6e5a112eedf356e9702852c31adc8c5207031d",
    "figure": "ed34ded0183204489b2d90eeb16cadfb609200a935283e891053dbc71924709e",
    "loads": "f24799f8a3946e8dbf5f59b17a035acfeab4ab19c6f83a768cef435dafd32a81",
    "region": "10ce6b699032837af60eb13325c150e50935c5a4442ebb89e0a7e1dfcb9380fa",
    "sweep": "21c1d06c0c87fc385fea3569967c2e77430e4ae5cc89b63b31b57ce44ca644ec",
    "validate": "c0525da50fa5823018e61944626ecb26bb433c8c50facd1a8d7e206689df0deb",
}


@pytest.mark.parametrize("command", ["mgnet", *sorted(make_parser().commands)])
def test_help_text_is_byte_identical(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command == "mgnet" else [command, "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_PINS[command]


def test_unknown_trailing_option_exits_2_with_the_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closed-form", "--model", "hex", "--D", "8", "--L", "3",
              "--scheme", "both-rx", "--bogus", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mgnet closed-form")
    assert "mgnet closed-form: error: unrecognized arguments: --bogus 1" in err


# --- canonical `--flag value` argv read without argparse ----------------

COMMANDS = sorted(make_parser().commands)
ODD_VALUES = ["", "-2", "-1/2", "2.5", "bogus", "-h", "--model", "--"]


def _values(action):
    if action.choices:
        good = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        good = st.integers(0, 30).map(str)
    else:
        good = st.sampled_from(["9/8", "0", "3", "2..10", "8", "2x2", "x.csv"])
    return st.tuples(st.sampled_from([None] * 24 + ODD_VALUES), good).map(
        lambda pair: pair[1] if pair[0] is None else pair[0])


@st.composite
def argvs(draw):
    """Mostly canonical argv of one command, with argparse-only forms mixed in."""
    command = draw(st.sampled_from(COMMANDS))
    flags = {flag: action for flag, action
             in make_parser().commands[command]._option_string_actions.items()
             if action.nargs is None}  # argparse's table of one-value options
    items = [[flag, draw(_values(action))] for flag, action in flags.items()
             if action.required or draw(st.booleans())]
    if items and draw(st.sampled_from([False] * 4 + [True])):  # a flag may go missing
        items.pop(draw(st.integers(0, len(items) - 1)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        flag = draw(st.sampled_from(sorted(flags)))
        value = draw(_values(flags[flag]))
        items.append(draw(st.sampled_from([
            [flag, value],  # given twice, unless it went missing above
            [f"{flag}={value}"],
            [flag[:draw(st.integers(3, 5))], value],  # a prefix, unique or not
            ["-h"], ["--bogus", value], [value]])))
    return [command] + sum(draw(st.permutations(items)), [])


def _outcome(parse, argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            got = vars(parse(argv))
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


def _by_the_command_parser(argv):
    return make_parser().commands[argv[0]].parse_args(argv[1:],
                                                      argparse.Namespace(command=argv[0]))


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_parse_equals_argparse(argv):
    """Same namespace as the top-level parse, or the same exit and messages as the
    command's own parser (the top-level one prints its own usage for unrecognized
    arguments, see test_unknown_trailing_option_exits_2_with_the_command_usage)."""
    got = _outcome(parse_args, argv)
    assert got == _outcome(_by_the_command_parser, argv)
    assert got[0] == _outcome(make_parser().parse_args, argv)[0]


def _query_argv():
    """Every argv shape the bench's query stream sends: region (json and csv),
    closed-form, sweep and figure, with the values it draws from."""
    for model, ds in {"wyner": (2, 6), "hex": (2, 8, 14), "sectorized": (2, 4)}.items():
        for d, L, fmt, mu in zip(ds * 2, "1525", ("json", "csv") * 2, ("9/8", "0", "3", "41/97")):
            yield ["region", "--model", model, "--D", str(d), "--L", L,
                   "--mu-tx", mu, "--mu-rx", "21/8", "--format", fmt]
            for scheme in sorted(SCHEME_ALIASES):
                yield ["closed-form", "--model", model, "--D", str(d), "--L", L,
                       "--scheme", scheme]
            yield ["sweep", "--model", model, "--L", L, "--D", f"{d}..{d + 16}"]
    for name in ("fig5a", "fig5b", "fig8", "fig10"):
        yield ["figure", "--which", name]


def test_query_argv_are_read_without_argparse(monkeypatch):
    want = [vars(make_parser().parse_args(argv)) for argv in _query_argv()]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was asked to parse a canonical argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [vars(parse_args(argv)) for argv in _query_argv()] == want
    # an option glued to its value, and -h, which takes no value
    for argv in (["figure", "--which=fig8"], ["figure", "--which", "fig8", "-h", "x"]):
        with pytest.raises(AssertionError):
            parse_args(argv)


# --- ratio helpers read Fractions and ints without re-wrapping them -------

def _ratio_to_json_by_fraction(x):
    f = F(x)
    return {"num": f.numerator, "den": f.denominator}


def _ratio_to_csv_by_fraction(x):
    f = F(x)
    den, twos, fives = f.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{float(f):.12g}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


decimal_fractions = st.builds(lambda n, a, b: F(n, 2**a * 5**b),
                              st.integers(-10**15, 10**15), st.integers(0, 30), st.integers(0, 30))
any_fractions = st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30))
ratios = (st.booleans() | st.integers(-10**30, 10**30) | st.just(0) | st.just(F(0))
          | decimal_fractions | any_fractions)


@settings(max_examples=400, deadline=None)
@given(ratios)
def test_ratio_helpers_match_the_fraction_versions(x):
    from mgnet.rationals import ratio_to_csv, ratio_to_json
    got = ratio_to_json(x)
    assert json.dumps(got) == json.dumps(_ratio_to_json_by_fraction(x))
    assert ratio_to_csv(x) == _ratio_to_csv_by_fraction(x)


@pytest.mark.parametrize("x", [True, False, 0, -3, F(0), F(-7, 4), F(1, 3), F(47, 24),
                               F(-1, 2**40), F(3, 5**12), F(10**20 + 1, 7), "3/8"])
def test_ratio_helpers_edge_values(x):
    from mgnet.rationals import ratio_to_csv, ratio_to_json
    assert json.dumps(ratio_to_json(x)) == json.dumps(_ratio_to_json_by_fraction(x))
    assert ratio_to_csv(x) == _ratio_to_csv_by_fraction(x)


# --- region and figure text written from the integer hull ----------------

def _polyline_csv(series):
    """The region and figure CSV writer the CLI had before it wrote rows from integer
    pairs, kept as the oracle: ``csv.writer`` over polylines of Fraction points."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["series", "point", "s_f", "s_s", "s_f_num", "s_f_den", "s_s_num", "s_s_den"])
    for label, pts in series:
        for i, p in enumerate(pts):
            w.writerow([label, i, _ratio_to_csv_by_fraction(p.s_f),
                        _ratio_to_csv_by_fraction(p.s_s), p.s_f.numerator, p.s_f.denominator,
                        p.s_s.numerator, p.s_s.denominator])
    return buf.getvalue()


def _region_reference(model, D, L, tx_text, rx_text, fmt):
    """(exit code, stdout, stderr) of ``mgnet region`` by the Fraction API: its JSON is
    ``json.dumps(to_json_dict, indent=2)``, its CSV ``_polyline_csv`` of the boundary."""
    from mgnet.regions import achievable_region, boundary_polyline
    mu_tx, mu_rx = F(tx_text), F(rx_text)
    try:
        region = achievable_region(MODELS[model], D, L, mu_tx, mu_rx)
        if fmt == "csv":
            return 0, _polyline_csv([("region", boundary_polyline(region))]), ""
        doc = region.to_json_dict(MODELS[model], D, L, mu_tx, mu_rx)
        return 0, json.dumps(doc, indent=2) + "\n", ""
    except ValueError as exc:  # a vertex past Python's int string limit
        return 2, "", f"{_REGION_VERTEX_TOO_LARGE}{exc})\n"


def _budget_texts(model, D, L):
    """(tx, rx) budget texts: zero and one, each variant's requirements exactly (the full
    mixed share, m = 1, and the full slow-only share) and at a third of them, written
    unreduced, and terms near the 4300-digit limit of Python's int string conversion."""
    from mgnet.regions import _MIXED, _SLOW_ONLY
    f = formulas(MODELS[model], D, L)
    out = [("0/1", "0/1"), ("1", "1/1"), ("0", "5/2"), ("3/2", "0.75")]
    for keys in (*_MIXED, *_SLOW_ONLY):
        if any(k is not None and k not in f for k in keys):
            continue
        need = [max(F(0), f[k]) if k is not None else F(0) for k in keys]
        for scale in (F(1), F(1, 3)):
            tx, rx = (v * scale for v in need)
            out.append((f"{3 * tx.numerator}/{3 * tx.denominator}",
                        f"{6 * rx.numerator}/{6 * rx.denominator}"))
    big = "9" * 4300  # 1/big takes some vertices past the limit: exit 2 in both paths
    out += [(f"{big}/7", "2/3"), ("5/4", f"{big}/{big[:-1]}"), (f"1/{big}", "7/2"),
            ("3/" + "7" * 4290, "1/" + "3" * 4290), (f"{big}/{big}", "0")]
    return out


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_region_text_equals_the_fraction_api(capsys, model, fmt):
    """Every valid D <= 20, L in 1..5 and budget pair of ``_budget_texts``; some pairs
    take vertices past the int string limit, which both paths refuse alike."""
    codes = set()
    for D in valid_range(MODELS[model], Scheme.BOTH_COMP_RX, 20):
        for L in range(1, 6):
            for tx, rx in _budget_texts(model, D, L):
                argv = ["region", "--model", model, "--D", str(D), "--L", str(L),
                        "--mu-tx", tx, "--mu-rx", rx, "--format", fmt]
                got = run(capsys, *argv)
                assert got == _region_reference(model, D, L, tx, rx, fmt), argv[:7]
                codes.add(got[0])
    assert codes == {0, 2}


FIGURES_OUT = pathlib.Path(__file__).resolve().parent.parent / "out" / "figures"


@pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig8", "fig10"])
def test_figure_text_equals_build_figure_and_the_committed_csv(capsys, name):
    from mgnet.figures import FIGURES, build_figure
    from mgnet.regions import achievable_region, boundary_polyline, outer_polygon_wyner
    spec = FIGURES[name]
    series = build_figure(name)
    # build_figure as it was written before it viewed the integer series
    assert series == [(label, boundary_polyline(
        outer_polygon_wyner(d or spec["D"], spec["L"]) if tx is None
        else achievable_region(spec["model"], d or spec["D"], spec["L"], tx, rx)))
        for label, tx, rx, d in spec["series"]]
    code, out, err = run(capsys, "figure", "--which", name)
    assert (code, err) == (0, "")
    assert out == _polyline_csv(series) == (FIGURES_OUT / f"{name}.csv").read_text()
