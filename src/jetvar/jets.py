"""Differential operators on jet expressions.

The total time derivative treats q0, q1, ... as coordinates of a jet space
and acts as D_t = d/dt + sum_j q{j+1} d/dq{j}.  Prolongation extends an
evolutionary vector field with characteristic phi to all jet orders:
pr v = sum_k D_t^k(phi) d/dq{k}.
"""

from __future__ import annotations

from .atoms import Jet, TimeAtom
from .expr import E_ONE, Expr, _derive, jet
from .poly import Polynomial


def _dt_field(atoms) -> dict:
    """D_t = d/dt + sum_k q{k+1} d/dq{k} as coefficients on the given atoms."""
    return {a: jet(a.order + 1) if isinstance(a, Jet) else E_ONE
            for a in atoms if isinstance(a, (TimeAtom, Jet))}


def _dt_poly(p: Polynomial) -> Polynomial:
    """D_t of a log-free polynomial, as a polynomial."""
    return p.derive({a: c.num for a, c in _dt_field(p.atoms()).items()})


def total_derivative(e: Expr, k: int = 1) -> Expr:
    """k-fold total time derivative of e (k >= 1; k = 0 returns e)."""
    if k < 0:
        raise ValueError("total derivative order must be nonnegative")
    for _ in range(k):
        e = _derive(e, _dt_field(e.all_atoms()))
    return e


def jet_order(e: Expr):
    """Largest jet order occurring anywhere in e, or None if jet-free."""
    return e.jet_order()


def prolong(phi: Expr, e: Expr) -> Expr:
    """Apply the prolonged vector field with characteristic phi to e.

    Only jet orders actually present in e contribute, so the formally
    infinite sum truncates exactly.
    """
    phi = Expr._coerce(phi)
    field = {}
    at = 0
    for k in sorted(a.order for a in e.all_atoms() if isinstance(a, Jet)):
        phi = total_derivative(phi, k - at)
        at = k
        field[Jet(k)] = phi
    return _derive(e, field)
