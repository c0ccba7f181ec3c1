"""Exact operators against oracles that share no code with jetvar.

The first oracle is perfbench/oracle.py: it evaluates canonical text exactly
modulo 2^61 - 1 at one random point, with Taylor-mode D_t and dual-number
partials, and computes E(L) and J(L) by their defining double sums.  It is
loaded read-only from its file and imports nothing from jetvar.  It checks
arithmetic, partial derivatives, D_t^k, prolongation, E(L), J(L) and the
Mobius substitution.  The second is sympy's euler_equations, run only when
sympy is installed.
"""

import importlib.util
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from jetvar import (
    Expr,
    Jet,
    Param,
    euler_lagrange,
    jacobi,
    l2,
    mobius_substitute,
    parse_expr,
    pre_schwarzian,
    prolong,
    render,
    schippers,
    sigma,
    total_derivative,
)
from jetvar.expr import partial

from conftest import child_env, rand_lagrangian, rand_log_expr, rand_poly

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
    by or into: a gcd of two operands that both hold its main atom builds a
    dense coefficient list in it, so one in an atom of degree 2^23 needs
    millions of lists."""
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


HUGE_X = ("q^2147483646*q' - 3*t*q''^2147483647 + a1^2147483648*q"
          " + 5*q^2147483649")
HUGE_Y = "(q^127*q' + a1)/(q'^2*t^126 - 3)"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_capped(code: str) -> str:
    """stdout of a fresh Python running code against this jetvar, with its
    address space capped at 1 GiB, which is asserted to exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=120,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_product_with_a_huge_degree_in_the_gcd_atom():
    # Cross-cancelling x*y takes the gcd of x's numerator, of degree 2^31
    # in a1, with y's denominator, which is free of a1: a gcd that reads
    # x's coefficients in a1 as a dense list runs out of memory under the
    # cap, where the sparse one returns at once.
    out = _run_capped(
        "from jetvar import parse_expr, render\n"
        f"print(render(parse_expr({HUGE_X!r}) * parse_expr({HUGE_Y!r})))")
    o = oracle.Oracle("huge product")
    x, y = render(parse_expr(HUGE_X)), render(parse_expr(HUGE_Y))
    assert o.value(out.strip()) == o.value(x) * o.value(y) % P


@pytest.mark.parametrize("L", ["q^2147483648*q'", "(q^2147483648 + 1)*q'/q"])
def test_gauge_with_a_huge_degree_in_the_integration_atom(L):
    # the integrator reads the integrand's coefficients in q sparsely; a
    # dense list of them, one per power, runs out of memory under the cap
    out = _run_capped(
        "from jetvar import extract_gauge, parse_expr, render\n"
        f"print(render(extract_gauge(parse_expr({L!r})).gauge))")
    o = oracle.Oracle("huge gauge")
    assert o.dt(out.strip(), 1) == o.value(render(parse_expr(L)))


RECIPROCALS = ["7/(schippers(5) + 1/3)",
               "7/(schippers(5) + 1/3 + log(q^(3) + q'))"]


def _sum_value(o, text: str, size: int = 500) -> int:
    """o.value(text) for a long sum, size top-level terms at a time, as the
    oracle's evaluator recurses once per term of a sum."""
    depth, start, count, total = 0, 0, 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in "+-" and text[i - 1] == " ":
            count += 1
            if count % size == 0:
                total += o.value("0 " + text[start:i] if start else text[:i])
                start = i
    return (total + o.value("0 " + text[start:] if start else text)) % P


def _quotient_value(o, text: str) -> int:
    """o.value of a long canonical text (N)/(D)."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            break
    assert text[i + 1:i + 3] == "/(" and text.endswith(")")
    num, den = text[1:i], text[i + 3:-1]
    return _sum_value(o, num) * pow(_sum_value(o, den), -1, P) % P


@pytest.mark.parametrize("L", RECIPROCALS)
def test_el_of_a_reciprocal_fifth_order_lagrangian(L, deep_recursion):
    # The gcd's content folds here must start from the short coefficients:
    # read in ascending powers, each input ran past a minute.
    out = _run_capped(
        "from jetvar import euler_lagrange, parse_expr, render\n"
        f"print(render(euler_lagrange(parse_expr({L!r}))))")
    o = oracle.Oracle("reciprocal")
    assert _quotient_value(o, out.strip()) == o.el(render(parse_expr(L)))


# -- the Mobius substitution -------------------------------------------------------


def _mobius_inputs():
    rng = random.Random(13)
    return ([(f"sigma({n})", sigma(n)) for n in range(3, 6)]
            + [("L2", l2()), ("presch", pre_schwarzian()),
               ("schippers(5)", schippers(5)),
               ("sigma(4)+log(q')", sigma(4) + parse_expr("log(q')"))]
            + [(f"log#{i}", rand_log_expr(rng, 1)) for i in range(6)])


def _param(name):
    return Expr.atom(Param(name))


A, B, C, D = (_param(n) for n in "abcd")
LOG_A1 = parse_expr("log(a1)")
# (label, (a, b, c, d) as passed, d as the map uses it); a bare parameter d
# is eliminated through the unit determinant
MOBIUS_MAPS = [
    ("integer", (2, 1, 3, 2), 2),
    ("integer-negative", (1, -3, 0, 1), 1),
    ("symbolic", (A, B, C, D), (1 + B * C) / A),
    ("log-parameter", (LOG_A1, B, 2, D), (1 + 2 * B) / LOG_A1),
]
MOBIUS_CASES = [(f"{m[0]}:{label}", e, m[1], m[2])
                for m in MOBIUS_MAPS for label, e in _mobius_inputs()]


def _value_with_jets(o, text, jets):
    """The oracle's value of text with the jet q^(k) set to jets(k)."""
    point = o._leaf_series(0)

    def leaf(name):
        if name.startswith("_q"):
            return [jets(int(name[2:]))]
        return point(name)

    return o._eval(o._tree(text), oracle._Series(0), leaf)[0]


@pytest.mark.parametrize("label,e,abcd,d", MOBIUS_CASES,
                         ids=[c[0] for c in MOBIUS_CASES])
def test_mobius_substitute_matches_the_oracle(label, e, abcd, d,
                                              deep_recursion):
    # each jet q^(k) of e goes to D_t^k w, with w = (a*q + b)/(c*q + d)
    # written out as text, so the oracle alone differentiates it
    a, b, c, d = (render(v if isinstance(v, Expr) else Expr.const(v))
                  for v in (*abcd[:3], d))
    w = f"(({a})*q + ({b}))/(({c})*q + ({d}))"
    o = oracle.Oracle(label)
    image = render(mobius_substitute(e, *abcd))
    assert o.value(image) == _value_with_jets(o, render(e),
                                              lambda k: o.dt(w, k))
