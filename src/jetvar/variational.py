"""Variational operators: Euler-Lagrange, energy function, gauge extraction.

For a Lagrangian L(t, q0, ..., qn) both operators are read off the
Ostrogradsky momenta

  p_n = dL/dq{n},   p_r = dL/dq{r} - D_t p_{r+1}   (r = n-1, ..., 0),

one D_t per order: the Euler-Lagrange expression is E(L) = p_0 and the
energy (Jacobi) function is

  J(L) = sum_{r=1}^{n} q{r} * p_r - L.

E(L) = 0 identically exactly when L is a total derivative D_t P; such L are
null Lagrangians and P is their gauge function, recovered here by peeling
the top jet order one integration at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import TIME, Jet, LogAtom
from .errors import (
    IntegrationUnsupported,
    NoJet,
    NonexactTop,
    NonlinearTop,
    NotNull,
)
from .expr import E_ZERO, Expr, jet, log, partial
from .jets import total_derivative
from .poly import P_ONE


def _momenta(L: Expr, n: int, low: int):
    """Ostrogradsky momenta p_n, p_{n-1}, ..., p_low of L, whose jet order
    is n, one at a time."""
    p = E_ZERO
    for r in range(n, low - 1, -1):
        d = partial(L, Jet(r))
        p = d if p.is_zero else d - total_derivative(p)
        yield p


def euler_lagrange(L: Expr) -> Expr:
    """Euler-Lagrange expression of L; identically 0 iff L is null."""
    n = L.jet_order()
    if n is None:
        return E_ZERO
    for p in _momenta(L, n, 0):
        pass  # only p_0 is kept
    return p


def jacobi(L: Expr) -> Expr:
    """Energy function of L; conserved on-shell when L has no explicit time."""
    n = L.jet_order()
    if n is None:
        return -L
    out = -L
    # J needs no p_0, which would cost one more D_t
    momenta = list(_momenta(L, n, 1))
    for r, p in enumerate(reversed(momenta), start=1):
        if not p.is_zero:
            out = out + jet(r) * p
    return out


def is_null(L: Expr) -> bool:
    """True iff the Euler-Lagrange expression of L vanishes identically."""
    return euler_lagrange(L).is_zero


@dataclass(frozen=True)
class GaugeResult:
    """Gauge function P with D_t P = L; the additive constant is fixed to 0."""

    gauge: Expr


@dataclass(frozen=True)
class TopIsolation:
    """Decomposition E = coefficient * Jet(order) + remainder."""

    order: int
    coefficient: Expr
    remainder: Expr


def _integrate(A: Expr, x) -> Expr:
    """Antiderivative of A with respect to the atom x, constant fixed to 0.

    Supported integrands: polynomial in x, plus a remainder of the form
    r/(linear in x) which integrates to a log atom.  The denominator may not
    contain x beyond first degree, and no log argument may contain x.
    """
    for a in A.all_atoms():
        if isinstance(a, LogAtom) and x in a.arg.all_atoms():
            raise IntegrationUnsupported(
                f"integrand contains log depending on {a!r}")
    num, den = A.num, A.den
    ddeg = den.degree_in(x)
    if ddeg > 1:
        raise IntegrationUnsupported(
            "denominator has degree > 1 in the integration variable")

    ncoeffs = [Expr(p, P_ONE) for p in num.as_univariate(x)]
    dcoeffs = [Expr(p, P_ONE) for p in den.as_univariate(x)]
    alpha = dcoeffs[-1]
    if ddeg == 0:
        quot, rem = [c / alpha for c in ncoeffs], E_ZERO
    else:
        # synthetic division of the numerator by alpha*x + beta
        beta = dcoeffs[0]
        p = len(ncoeffs) - 1
        quot = [E_ZERO] * p
        for i in range(p, 0, -1):
            q = ncoeffs[i] / alpha
            quot[i - 1] = q
            ncoeffs[i - 1] = ncoeffs[i - 1] - q * beta
        rem = ncoeffs[0]

    xe = Expr.atom(x)
    out = E_ZERO
    for i, c in enumerate(quot):
        if not c.is_zero:
            out = out + c * Fraction(1, i + 1) * xe ** (i + 1)
    if not rem.is_zero:
        out = out + (rem / alpha) * log(Expr(den, P_ONE))
    return out


def extract_gauge(L: Expr) -> GaugeResult:
    """Recover the gauge function P with D_t P = L for a null Lagrangian.

    Peels the top jet order: with n = jet_order(L), dL/dq{n} must be free of
    q{n} and its antiderivative in q{n-1} strips one order off L.  The final
    jet-free remainder is integrated in t.
    """
    if not euler_lagrange(L).is_zero:
        raise NotNull("Euler-Lagrange expression does not vanish")
    gauge = E_ZERO
    rem = L
    while True:
        n = rem.jet_order()
        if n is None or n == 0:
            break
        A = partial(rem, Jet(n))
        if Jet(n) in A.all_atoms():
            raise NonexactTop(
                f"top-order coefficient still depends on jet order {n}")
        piece = _integrate(A, Jet(n - 1))
        gauge = gauge + piece
        rem = rem - total_derivative(piece)
        new_n = rem.jet_order()
        if new_n is not None and new_n >= n:
            raise IntegrationUnsupported(
                "peeling failed to lower the jet order")
    if not rem.is_zero:
        gauge = gauge + _integrate(rem, TIME)
    if total_derivative(gauge) != L:
        raise IntegrationUnsupported(
            "reconstructed gauge does not reproduce the Lagrangian")
    return GaugeResult(gauge=gauge)


def isolate_top(E: Expr) -> TopIsolation:
    """Write E as C * Jet(m) + R with C and R free of the top jet q{m}."""
    m = E.jet_order()
    if m is None:
        raise NoJet("expression contains no jet variables")
    top = Jet(m)
    C = partial(E, top)
    if top in C.all_atoms():
        raise NonlinearTop(f"expression is not linear in jet order {m}")
    R = E - C * jet(m)
    if top in R.all_atoms():
        raise NonlinearTop(f"expression is not linear in jet order {m}")
    return TopIsolation(order=m, coefficient=C, remainder=R)
