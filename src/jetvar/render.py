"""Deterministic text forms of canonical expressions.

Three modes: canonical-text (round-trips through the parser), latex, and
json-ast (a byte-stable term-list serialization with arbitrary-precision
integer strings and no floating point).
"""

from __future__ import annotations

import json
import re

from .atoms import Jet, LogAtom, Param, TimeAtom
from .expr import Expr
from .poly import Polynomial, decimal_text

MODES = ("canonical-text", "latex", "json-ast")


def render(e: Expr, mode: str = "canonical-text") -> str:
    if mode == "canonical-text":
        return _canonical(e)
    if mode == "latex":
        return _latex(e)
    if mode == "json-ast":
        tree = _json_expr(e)
        try:
            return json.dumps(tree)
        except ValueError:  # an exponent or jet order too long for str()
            return _json_text(tree)
    raise ValueError(f"unknown render mode {mode!r}")


def atom_label(a) -> str:
    """Canonical-text spelling of one atom, for messages and headers."""
    return _c_atom(a)


# -- canonical text ------------------------------------------------------------


def _c_atom(a) -> str:
    if isinstance(a, TimeAtom):
        return "t"
    if isinstance(a, Jet):
        if a.order == 0:
            return "q"
        if a.order <= 3:
            return "q" + "'" * a.order
        return f"q^({decimal_text(a.order)})"
    if isinstance(a, Param):
        return a.name
    if isinstance(a, LogAtom):
        return f"log({_canonical(a.arg)})"
    raise TypeError(f"unknown atom {a!r}")


def _poly_text(p: Polynomial, atom_text, power: str, sep: str) -> str:
    """Terms of p in order; power formats (atom, exponent) and sep joins
    the factors of a term."""
    if p.is_zero:
        return "0"
    chunks = []
    for idx, (mono, coeff) in enumerate(p.terms):
        mag = abs(coeff)
        factors = [power.format(atom_text(a), decimal_text(ex)) if ex > 1
                   else atom_text(a) for a, ex in mono]
        if mag != 1 or not factors:
            factors.insert(0, decimal_text(mag))
        body = sep.join(factors)
        if idx == 0:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks)


def _c_den_simple(p: Polynomial) -> bool:
    """True when a denominator needs no parentheses after '/'."""
    if len(p.terms) != 1:
        return False
    mono, coeff = p.terms[0]
    if not mono:
        return True  # bare positive integer
    return coeff == 1 and len(mono) == 1


def _canonical(e: Expr) -> str:
    num = _poly_text(e.num, _c_atom, "{}^{}", "*")
    if e.den.is_const and e.den.const_value() == 1:
        return num
    den = _poly_text(e.den, _c_atom, "{}^{}", "*")
    if len(e.num.terms) > 1:
        num = f"({num})"
    if not _c_den_simple(e.den):
        den = f"({den})"
    return f"{num}/{den}"


# -- latex ---------------------------------------------------------------------

_SUBSCRIPT = re.compile(r"([A-Za-z_]+)(\d+)\Z")


def _l_atom(a) -> str:
    if isinstance(a, TimeAtom):
        return "t"
    if isinstance(a, Jet):
        if a.order == 0:
            return "q"
        if a.order == 1:
            return r"\dot{q}"
        if a.order == 2:
            return r"\ddot{q}"
        if a.order == 3:
            return r"\dddot{q}"
        return f"q^{{({decimal_text(a.order)})}}"
    if isinstance(a, Param):
        m = _SUBSCRIPT.match(a.name)
        if m:
            return f"{m.group(1)}_{{{m.group(2)}}}"
        return a.name
    if isinstance(a, LogAtom):
        return r"\log\left(" + _latex(a.arg) + r"\right)"
    raise TypeError(f"unknown atom {a!r}")


def _latex(e: Expr) -> str:
    num = _poly_text(e.num, _l_atom, "{}^{{{}}}", " ")
    if e.den.is_const and e.den.const_value() == 1:
        return num
    return (r"\frac{" + num + "}{"
            + _poly_text(e.den, _l_atom, "{}^{{{}}}", " ") + "}")


# -- json ast ------------------------------------------------------------------


def _json_atom(a, ex: int) -> dict:
    if isinstance(a, TimeAtom):
        return {"kind": "time", "exp": ex}
    if isinstance(a, Jet):
        return {"kind": "jet", "order": a.order, "exp": ex}
    if isinstance(a, Param):
        return {"kind": "param", "name": a.name, "exp": ex}
    if isinstance(a, LogAtom):
        return {"kind": "log", "arg": _json_expr(a.arg), "exp": ex}
    raise TypeError(f"unknown atom {a!r}")


def _json_poly(p: Polynomial) -> list:
    out = []
    for mono, coeff in p.terms:
        out.append({
            "coeff": {"n": decimal_text(coeff), "d": "1"},
            "atoms": [_json_atom(a, ex) for a, ex in mono],
        })
    if not out:
        out.append({"coeff": {"n": "0", "d": "1"}, "atoms": []})
    return out


def _json_expr(e: Expr) -> dict:
    return {"num": _json_poly(e.num), "den": _json_poly(e.den)}


def _json_text(v) -> str:
    """json.dumps(v) for the dicts, lists, strings and ints of a json-ast
    tree, with ints of any size."""
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(x)}"
                               for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(_json_text, v)) + "]"
    if isinstance(v, int):
        return decimal_text(v)
    return json.dumps(v)
