"""Canonical text, LaTeX, and JSON output, plus the frozen fifth-order forms."""

import json
import pathlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given

from jetvar import (
    Expr,
    Jet,
    Param,
    TIME,
    euler_lagrange,
    jacobi,
    parse_expr,
    render,
    sigma,
)

from conftest import hypo_expr_strategy, rand_poly

DATA = pathlib.Path(__file__).parent / "data"

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
T = Expr.atom(TIME)


def test_canonical_pinned_strings():
    assert render(sigma(3)) == "(2*q'*q''' - 3*q''^2)/(2*q'^2)"
    assert render(Expr.const(0)) == "0"
    assert render(Expr.const(-1)) == "-1"
    assert render(Expr.const(Fraction(3, 4))) == "3/4"
    assert render(Q1) == "q'"
    assert render(-Q1) == "-q'"
    assert render(Q1 / 2) == "q'/2"
    assert render(1 / (2 * Q1)) == "1/(2*q')"
    assert render(1 / Q1) == "1/q'"
    assert render(Q0 + T) == "q + t"
    assert render(Expr.atom(Jet(5))) == "q^(5)"
    assert render(Expr.log(Q1 / Q0)) == "log(q'/q)"
    assert render((Q0 + 1) / (Q1 - 1)) == "(q + 1)/(q' - 1)"


def test_canonical_round_trip_fixed():
    cases = [sigma(n) for n in range(3, 7)]
    cases += [Expr.log(Q0 / T) * Q1, (T ** 2 - 1) / (Q2 + Q0),
              Expr.const(0), Expr.const(Fraction(-7, 3))]
    for e in cases:
        assert parse_expr(render(e)) == e


@given(hypo_expr_strategy())
def test_canonical_round_trip_property(e):
    assert parse_expr(render(e)) == e


def test_round_trip_random_bulk():
    rng = random.Random(5)
    for _ in range(100):
        e = rand_poly(rng, jets_max=4) / rand_poly(rng, jets_max=2, max_terms=2)
        assert parse_expr(render(e)) == e


def test_latex_jet_decorations():
    assert render(Q1, "latex") == "\\dot{q}"
    assert render(Q2, "latex") == "\\ddot{q}"
    assert render(Expr.atom(Jet(3)), "latex") == "\\dddot{q}"
    assert render(Expr.atom(Jet(4)), "latex") == "q^{(4)}"
    assert render(Expr.atom(Jet(0)), "latex") == "q"


def test_latex_structure():
    assert render(sigma(3), "latex") == (
        "\\frac{2 \\dot{q} \\dddot{q} - 3 \\ddot{q}^{2}}{2 \\dot{q}^{2}}")
    assert render(Expr.atom(Param("a12")) * Q0, "latex") == "q a_{12}"
    assert render(Expr.log(Q1), "latex") == "\\log\\left(\\dot{q}\\right)"
    assert render(Expr.const(Fraction(1, 2)), "latex") == "\\frac{1}{2}"


def test_json_pinned_bytes():
    expect = ('{"num": [{"coeff": {"n": "1", "d": "1"}, "atoms": []}], '
              '"den": [{"coeff": {"n": "1", "d": "1"}, "atoms": []}]}')
    assert render(Expr.const(1), "json-ast") == expect


def test_json_schema_and_determinism():
    e = sigma(3) + Expr.log(Q1) * Expr.atom(Param("b3"))
    blob1 = render(e, "json-ast")
    blob2 = render(e, "json-ast")
    assert blob1 == blob2
    doc = json.loads(blob1)
    assert set(doc) == {"num", "den"}
    for term in doc["num"] + doc["den"]:
        assert list(term) == ["coeff", "atoms"]
        assert list(term["coeff"]) == ["n", "d"]
        assert isinstance(term["coeff"]["n"], str)
        int(term["coeff"]["n"])  # arbitrary-precision integer strings
        for atom in term["atoms"]:
            assert atom["kind"] in {"time", "jet", "param", "log"}
            assert isinstance(atom["exp"], int)
            if atom["kind"] == "log":
                assert set(atom["arg"]) == {"num", "den"}


def test_json_big_integers_stay_exact():
    big = 10 ** 40
    e = Expr.const(Fraction(big, 7)) * Q1
    doc = json.loads(render(e, "json-ast"))
    assert doc["num"][0]["coeff"]["n"] == str(big)
    assert doc["den"][0]["coeff"]["n"] == "7"


def test_integers_past_the_str_digit_limit():
    # 2^20000 has 6021 digits, more than str() converts by default (4300)
    e = parse_expr("2^20000*q")
    text = render(e)
    assert len(text) == 6023 and text.endswith("*q")
    assert parse_expr(text) == e
    doc = json.loads(render(e, "json-ast"))
    assert doc["num"][0]["coeff"]["n"] == text[:-2]
    assert render(e, "latex") == text[:-2] + " q"
    # a log atom's sort key spells out its argument's coefficients
    assert render(parse_expr("log(" + text + " + 1)")) == f"log({text} + 1)"
    # exponents and jet orders of that length print too
    k = "1" + "0" * 5000
    for src, key in ((f"q^{k}", "exp"), (f"q^({k})", "order")):
        e = parse_expr(src)
        assert parse_expr(render(e)) == e
        doc = json.loads(render(e, "json-ast"), parse_int=Decimal)
        assert doc["num"][0]["atoms"][0][key] == Decimal(k)
        assert k in render(e, "latex")


# json-ast of sigma(3), a log with a time atom, zero and two parameters:
# json.dumps's separators, and its ASCII escapes in parameter names
_JSON_AST = [
    (sigma(3),
     '{"num": [{"coeff": {"n": "2", "d": "1"}, "atoms": [{"kind": "jet", '
     '"order": 1, "exp": 1}, {"kind": "jet", "order": 3, "exp": 1}]}, '
     '{"coeff": {"n": "-3", "d": "1"}, "atoms": [{"kind": "jet", "order": 2, '
     '"exp": 2}]}], "den": [{"coeff": {"n": "2", "d": "1"}, "atoms": '
     '[{"kind": "jet", "order": 1, "exp": 2}]}]}'),
    (Expr.log(Q1 / 2 + T) * Q2 ** 3 / 5,
     '{"num": [{"coeff": {"n": "1", "d": "1"}, "atoms": [{"kind": "jet", '
     '"order": 2, "exp": 3}, {"kind": "log", "arg": {"num": [{"coeff": '
     '{"n": "1", "d": "1"}, "atoms": [{"kind": "jet", "order": 1, "exp": 1}]}, '
     '{"coeff": {"n": "2", "d": "1"}, "atoms": [{"kind": "time", "exp": 1}]}], '
     '"den": [{"coeff": {"n": "2", "d": "1"}, "atoms": []}]}, "exp": 1}]}], '
     '"den": [{"coeff": {"n": "5", "d": "1"}, "atoms": []}]}'),
    (Expr.const(0),
     '{"num": [{"coeff": {"n": "0", "d": "1"}, "atoms": []}], '
     '"den": [{"coeff": {"n": "1", "d": "1"}, "atoms": []}]}'),
    (Expr.atom(Param("q\u0663")) ** 2 - Expr.atom(Param("b2")),
     '{"num": [{"coeff": {"n": "1", "d": "1"}, "atoms": [{"kind": "param", '
     '"name": "q\\u0663", "exp": 2}]}, {"coeff": {"n": "-1", "d": "1"}, '
     '"atoms": [{"kind": "param", "name": "b2", "exp": 1}]}], '
     '"den": [{"coeff": {"n": "1", "d": "1"}, "atoms": []}]}'),
]


def test_json_ast_pinned_strings():
    for e, text in _JSON_AST:
        assert render(e, "json-ast") == text


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        render(Q1, "pretty")


def test_frozen_fifth_order_equation():
    want = (DATA / "el_sigma5.txt").read_text().strip()
    assert render(euler_lagrange(sigma(5))) == want
    # goldens parse back to the very expressions they freeze
    assert parse_expr(want) == euler_lagrange(sigma(5))


def test_frozen_fifth_order_energy():
    want = (DATA / "jacobi_sigma5.txt").read_text().strip()
    assert render(jacobi(sigma(5))) == want
    assert parse_expr(want) == jacobi(sigma(5))
