"""Euler-Lagrange and Jacobi against oracles that share no code with jetvar.

The first oracle is perfbench/oracle.py: it evaluates canonical text exactly
modulo 2^61 - 1 at one random point, with Taylor-mode D_t and dual-number
partials, and computes E(L) and J(L) by their defining double sums.  It is
loaded read-only from its file and imports nothing from jetvar.  The second
is sympy's euler_equations, run only when sympy is installed.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from jetvar import euler_lagrange, jacobi, l2, render, schippers, sigma

from conftest import rand_lagrangian, rand_log_expr, rand_poly

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def _load_oracle():
    # compiled from source by hand so that no bytecode is written next to it
    spec = importlib.util.spec_from_loader("jetvar_test_oracle", loader=None,
                                           origin=str(ORACLE_PATH))
    module = importlib.util.module_from_spec(spec)
    exec(compile(ORACLE_PATH.read_text(), str(ORACLE_PATH), "exec"),
         module.__dict__)
    return module


oracle = _load_oracle()


def _random_inputs():
    rng = random.Random(5)
    cases = [(f"lagrangian#{i}", rand_lagrangian(rng, allow_t=i % 2 == 0))
             for i in range(15)]
    cases += [(f"log#{i}", rand_log_expr(rng, 1)) for i in range(15)]
    return cases


CASES = ([(f"sigma({n})", sigma(n)) for n in range(3, 7)]
         + [(f"schippers({n})", schippers(n)) for n in range(6, 10)]
         + [("L2", l2())]
         + _random_inputs())


@pytest.fixture
def deep_recursion():
    # the oracle's AST evaluator recurses once per term of a left-nested sum
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20000))
    yield
    sys.setrecursionlimit(old)


@pytest.mark.parametrize("label,L", CASES, ids=[c[0] for c in CASES])
def test_el_and_jacobi_match_the_oracle(label, L, deep_recursion):
    o = oracle.Oracle(label)
    text = render(L)
    assert o.value(render(euler_lagrange(L))) == o.el(text)
    assert o.value(render(jacobi(L))) == o.jacobi(text)


def _sympy_cases():
    rng = random.Random(7)
    return ([(f"sigma({n})", sigma(n)) for n in range(3, 6)]
            + [("schippers(6)", schippers(6)), ("L2", l2())]
            + [(f"poly#{i}", rand_poly(rng, jets_max=3)) for i in range(3)])


SYMPY_CASES = _sympy_cases()


@pytest.mark.parametrize("label,L", SYMPY_CASES,
                         ids=[c[0] for c in SYMPY_CASES])
def test_el_matches_sympy(label, L):
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    t = sympy.Symbol("t")
    q = sympy.Function("q")(t)
    n = max(oracle.jet_orders(render(L)))
    jets = [q.diff(t, k) for k in range(2 * n + 1)]
    names = {"t": t, "log": sympy.log}
    names.update({f"_q{k}": d for k, d in enumerate(jets)})

    def to_sympy(e):
        return sympy.sympify(oracle.to_python(render(e)), locals=names)

    # sympy drops an equation that is identically 0 = 0
    eqs = euler_equations(to_sympy(L), q, t)
    theirs = eqs[0].lhs if eqs else 0
    ours = to_sympy(euler_lagrange(L))
    # cancel over plain symbols: the derivatives of q(t) become y0, y1, ...
    ys = {d: sympy.Symbol(f"y{k}") for k, d in enumerate(jets)}
    assert sympy.cancel((theirs - ours).xreplace(ys)) == 0
