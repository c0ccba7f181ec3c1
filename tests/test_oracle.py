"""Exact operators against oracles that share no code with jetvar.

The first oracle is perfbench/oracle.py: it evaluates canonical text exactly
modulo 2^61 - 1 at one random point, with Taylor-mode D_t and dual-number
partials, and computes E(L) and J(L) by their defining double sums.  It is
loaded read-only from its file and imports nothing from jetvar.  It checks
arithmetic, partial derivatives, D_t^k, prolongation, E(L) and J(L).  The
second is sympy's euler_equations, run only when sympy is installed.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from jetvar import (
    Jet,
    euler_lagrange,
    jacobi,
    l2,
    parse_expr,
    prolong,
    render,
    schippers,
    sigma,
    total_derivative,
)
from jetvar.expr import partial

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


# -- arithmetic, partials, D_t^k and prolongation ---------------------------------

P = oracle.P


def _boundary_inputs():
    """Inputs whose total degrees sit at and across the field widths of the
    packed monomials: 8, 16, 24 and 32 bits hold degrees below 2^7, 2^15,
    2^23 and 2^31.  The second value says whether the input may be divided
    by or into: a gcd builds a dense coefficient list in its main atom, so
    one in an atom of degree 2^23 needs millions of lists."""
    out = []
    for b in (2 ** 7, 2 ** 8):
        out.append((f"ratio@{b}", f"(q^{b - 1}*q' + a1)/(q'^2*t^{b - 2} - 3)",
                    True))
        out.append((f"log@{b}", f"q^{b}*log(q' + 1) - t^{b - 1}/(q + 2)", True))
    # polynomials, which meet only polynomials below: a product or a
    # prolongation with a denominator takes a gcd too
    for b in (2 ** 7, 2 ** 15, 2 ** 23, 2 ** 31):
        out.append((f"poly@{b}",
                    f"q^{b - 2}*q' - 3*t*q''^{b - 1} + a1^{b}*q + 5*q^{b + 1}",
                    b < 2 ** 15))
    return [(label, parse_expr(src), small) for label, src, small in out]


def _operand_pairs():
    rng = random.Random(11)
    ops = [(f"poly#{i}", rand_poly(rng, jets_max=3), True) for i in range(12)]
    ops += [(f"log#{i}", rand_log_expr(rng, 1), True) for i in range(12)]
    ops += _boundary_inputs()
    # each operand meets the next one, and the last one meets the first,
    # poly#0
    return [(f"{a[0]},{b[0]}", a[1], b[1], a[2] and b[2])
            for a, b in zip(ops, ops[1:] + ops[:1])]


PAIRS = _operand_pairs()


@pytest.mark.parametrize("label,x,y,divide", PAIRS, ids=[c[0] for c in PAIRS])
def test_arithmetic_matches_the_oracle(label, x, y, divide, deep_recursion):
    o = oracle.Oracle(label)
    vx, vy = o.value(render(x)), o.value(render(y))
    assert o.value(render(x + y)) == (vx + vy) % P
    assert o.value(render(x - y)) == (vx - vy) % P
    assert o.value(render(x * y)) == vx * vy % P
    if divide and not y.is_zero:
        assert o.value(render(x / y)) == vx * pow(vy, -1, P) % P


@pytest.mark.parametrize("label,x,y,divide", PAIRS, ids=[c[0] for c in PAIRS])
def test_derivatives_match_the_oracle(label, x, y, divide, deep_recursion):
    # x is differentiated, and y serves as a characteristic for prolong
    o = oracle.Oracle(label)
    text = render(x)
    for i in sorted(oracle.jet_orders(text)):
        assert (o.value(render(partial(x, Jet(i))))
                == o.partial_series(text, i, 0)[0])
    for k in (1, 2, 3):
        assert o.value(render(total_derivative(x, k))) == o.dt(text, k)
    assert o.value(render(prolong(y, x))) == o.prolong(render(y), text)
