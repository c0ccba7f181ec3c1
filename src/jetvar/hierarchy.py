"""Built-in Lagrangian families: pre-Schwarzian, Schwarzian, and the two
higher-Schwarzian hierarchies.

sigma(n) is the SL(2,R)-invariant family: sigma(3) is the Schwarzian
derivative, sigma(4) = D_t sigma(3), sigma(5) = D_t sigma(4) - sigma(3)^2,
sigma(6) = D_t sigma(5).  Orders above 6 have no pinned definition here and
are rejected.  schippers(n) follows the recurrence
S_{n+1} = D_t S_n - (n-1)*(q2/q1)*S_n from S_3 = sigma(3); it is defined for
every n >= 3 and is not SL(2,R)-invariant beyond n = 3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedOrder
from .expr import Expr, jet
from .jets import total_derivative
from .poly import decimal_text


def pre_schwarzian() -> Expr:
    """q2/q1, the logarithmic derivative of q1."""
    return jet(2) / jet(1)


def l2() -> Expr:
    """(1/2)*(q2/q1)^2, the second-order Lagrangian of the hierarchy."""
    v = pre_schwarzian()
    return Fraction(1, 2) * v * v


@lru_cache(maxsize=None)
def sigma(n: int) -> Expr:
    """The SL(2,R)-invariant higher Schwarzian of order n, 3 <= n <= 6."""
    if not isinstance(n, int) or not 3 <= n <= 6:
        got = decimal_text(n) if isinstance(n, int) else repr(n)
        raise UnsupportedOrder(f"sigma is defined for orders 3..6, got {got}")
    if n == 3:
        v = pre_schwarzian()
        return jet(3) / jet(1) - Fraction(3, 2) * v * v
    if n == 4:
        return total_derivative(sigma(3))
    if n == 5:
        s3 = sigma(3)
        return total_derivative(sigma(4)) - s3 * s3
    return total_derivative(sigma(5))


# S_3, S_4, ... as far as they have been asked for
_SCHIPPERS: list = []


def schippers(n: int) -> Expr:
    """The recurrence hierarchy S_n of order n >= 3.

    The orders are built upward in a loop from the largest one memoised, so
    a high order costs no Python recursion.
    """
    if not isinstance(n, int) or n < 3:
        got = decimal_text(n) if isinstance(n, int) else repr(n)
        raise UnsupportedOrder(f"schippers is defined for orders >= 3, got {got}")
    if not _SCHIPPERS:
        _SCHIPPERS.append(sigma(3))
    while len(_SCHIPPERS) <= n - 3:
        m = len(_SCHIPPERS) + 2  # the order of the last one
        prev = _SCHIPPERS[-1]
        _SCHIPPERS.append(total_derivative(prev)
                          - (m - 1) * pre_schwarzian() * prev)
    return _SCHIPPERS[n - 3]


_NO_ORDER = {"presch": pre_schwarzian, "L2": l2}
_WITH_ORDER = {"sigma": sigma, "schippers": schippers}


def builtin(name: str, order: int | None = None) -> Expr:
    """Look up a built-in family by its surface name.

    presch and L2 take no order; sigma and schippers require one.
    """
    if name in _NO_ORDER:
        if order is not None:
            raise UnsupportedOrder(f"{name} takes no order argument")
        return _NO_ORDER[name]()
    if name in _WITH_ORDER:
        if order is None:
            raise UnsupportedOrder(f"{name} requires an order argument")
        return _WITH_ORDER[name](order)
    raise UnsupportedOrder(f"unknown builtin {name!r}")


BUILTIN_NAMES = (*_NO_ORDER, *_WITH_ORDER)
