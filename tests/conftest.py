"""Shared generators for randomized suites.

Two flavours live here.  The seeded `random.Random` generators below feed
the bulk identity suites, which need hundreds of cases with a fixed seed
and a tight size envelope.  Hypothesis strategies for the smaller
property tests are built on top of the same envelope.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings

import jetvar
from jetvar import TIME, Expr, Jet, Param

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def child_env(**extra: str) -> dict:
    """Environment for a child Python that imports this jetvar: os.environ
    with jetvar's source directory first on PYTHONPATH, and extra on top."""
    src = str(Path(jetvar.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path,
                **extra)


def rand_coeff(rng: random.Random, bound: int = 100) -> Fraction:
    num = rng.randint(-bound, bound)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, bound))


def rand_poly(rng: random.Random, *, jets_max: int = 4, allow_t: bool = True,
              max_terms: int = 3, max_exp: int = 2,
              coeff_bound: int = 100) -> Expr:
    """Random polynomial expression in t and jets up to the given order."""
    atoms = [Jet(k) for k in range(jets_max + 1)]
    if allow_t:
        atoms.append(TIME)
    out = Expr.const(0)
    for _ in range(rng.randint(1, max_terms)):
        term = Expr.const(rand_coeff(rng, coeff_bound))
        for _ in range(rng.randint(0, 2)):
            term = term * Expr.atom(rng.choice(atoms)) ** rng.randint(1, max_exp)
        out = out + term
    if out.is_zero:
        out = Expr.atom(Jet(0))
    return out


def rand_lagrangian(rng: random.Random, *, allow_t: bool = False) -> Expr:
    """Random Lagrangian: polynomial, sometimes over a simple denominator."""
    p = rand_poly(rng, jets_max=3, allow_t=allow_t)
    roll = rng.random()
    if roll < 0.6:
        return p
    if roll < 0.85:
        return p / Expr.atom(Jet(1)) ** rng.randint(1, 2)
    return p / (Expr.atom(Jet(0)) + Expr.const(rng.randint(1, 9)))


def rand_log_expr(rng: random.Random, depth: int = 2) -> Expr:
    """Random rational expression in t, q, q', q'' and a1 whose terms carry
    logs of further such expressions, nested up to depth levels."""
    def small():
        return rand_poly(rng, jets_max=2, max_terms=2, max_exp=1, coeff_bound=9)

    e = small()
    if rng.random() < 0.4:
        e = e / small()
    if rng.random() < 0.3:
        e = e * Expr.atom(Param("a1"))
    for _ in range(rng.randint(1, 2) if depth else 0):
        arg = rand_log_expr(rng, depth - 1)
        if not arg.is_const:
            e = e + small() * Expr.log(arg)
    return e


def hypo_expr_strategy(max_depth: int = 3):
    """Hypothesis strategy for small rational jet expressions."""
    from hypothesis import strategies as st

    consts = st.integers(-9, 9).map(Expr.const)
    atoms = st.sampled_from(
        [Expr.atom(TIME)]
        + [Expr.atom(Jet(k)) for k in range(4)]
        + [Expr.atom(Param("a1")), Expr.atom(Param("b2"))]
    )
    leaves = st.one_of(consts, atoms)

    def extend(children):
        def binop(pair):
            op, (x, y) = pair
            if op == "+":
                return x + y
            if op == "-":
                return x - y
            if op == "*":
                return x * y
            if y.is_zero:
                return x
            return x / y

        return st.tuples(
            st.sampled_from("+-*/"), st.tuples(children, children)
        ).map(binop)

    return st.recursive(leaves, extend, max_leaves=6)
