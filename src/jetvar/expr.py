"""Canonical rational expressions over jet atoms.

An Expr is a reduced fraction num/den of Polynomials such that

  * gcd(num, den) = 1,
  * all coefficients are integers with overall content 1,
  * the leading coefficient of den is positive.

Under the fixed atom and monomial orders this makes the representation
unique, so semantic equality is structural equality and ``is_zero`` is just
a check on the numerator.  All arithmetic routes through the same reduction,
and log atoms carry canonical Exprs as arguments so they compare by value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .atoms import TIME, Atom, Jet, LogAtom, Param, TimeAtom
from .errors import (
    DivisionByZero,
    UnsupportedAtom,
    UnsupportedLogArgument,
)
from .poly import P_ONE, P_ZERO, Polynomial, decimal_text, exact_div, poly_gcd


def _content_and_sign(num: Polynomial, den: Polynomial):
    """Divide num/den by the gcd of all their coefficients, with the sign
    that makes the leading coefficient of den positive (den nonzero)."""
    g = _int_gcd(num.coeff_content(), den.coeff_content())
    if den.coeffs[0] < 0:
        g = -g
    if g != 1:
        num, den = num.div_int(g), den.div_int(g)
    return num, den


class Expr:
    """Immutable exact rational expression in canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial, _reduced: bool = False):
        if not _reduced:
            num, den = _reduce(num, den)
        # set through the slots' descriptors, past __setattr__
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Expr values are immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c) -> "Expr":
        if type(c) is int:
            return Expr(Polynomial.const(c), P_ONE, _reduced=True)
        c = Fraction(c)
        return Expr(Polynomial.const(c.numerator),
                    Polynomial.const(c.denominator), _reduced=True)

    @staticmethod
    def atom(a: Atom) -> "Expr":
        return Expr(Polynomial.atom(a), P_ONE, _reduced=True)

    @staticmethod
    def log(arg) -> "Expr":
        return log(arg)

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value(), self.den.const_value())

    def atoms(self) -> set:
        """Atoms appearing at top level (log atoms included, not opened)."""
        return self.num.atoms() | self.den.atoms()

    def all_atoms(self) -> set:
        """Atoms at any depth, including inside log arguments."""
        out = set()
        stack = [self]
        while stack:
            e = stack.pop()
            for a in e.atoms():
                if a in out:
                    continue
                out.add(a)
                if isinstance(a, LogAtom):
                    stack.append(a.arg)
        return out

    def jet_order(self):
        """Largest jet order at any depth, or None when jet-free."""
        best = None
        for a in self.all_atoms():
            if isinstance(a, Jet) and (best is None or a.order > best):
                best = a.order
        return best

    def sort_key(self):
        return tuple(
            tuple((tuple((a.sort_key(), e) for a, e in m), decimal_text(c))
                  for m, c in p.terms)
            for p in (self.num, self.den))

    def partial(self, atom: Atom) -> "Expr":
        return partial(self, atom)

    def substitute(self, atom: Atom, value) -> "Expr":
        return substitute(self, atom, value)

    def substitute_many(self, mapping: dict) -> "Expr":
        return substitute_many(self, mapping)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        return (isinstance(other, Expr)
                and other.num == self.num and other.den == self.den)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.num, self.den))
            _set_hash(self, h)
            return h

    def __repr__(self):
        from .render import render

        return f"Expr({render(self)})"

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Expr":
        if isinstance(v, Expr):
            return v
        if isinstance(v, (int, Fraction)):
            return Expr.const(v)
        return NotImplemented

    def __add__(self, other):
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        if self.den == o.den:
            return Expr(self.num.add(o.num), self.den)
        g = poly_gcd(self.den, o.den)
        if g.is_const:
            num = self.num.mul(o.den).add(o.num.mul(self.den))
            return Expr(num, self.den.mul(o.den))
        d1 = exact_div(self.den, g)
        d2 = exact_div(o.den, g)
        num = self.num.mul(d2).add(o.num.mul(d1))
        return Expr(num, self.den.mul(d2))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.num.neg(), self.den, _reduced=True)

    def __sub__(self, other):
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(o.__neg__())

    def __rsub__(self, other):
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return E_ZERO
        # cross-cancel so the product of reduced fractions is reduced
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num if g1.is_const else exact_div(self.num, g1)
        d2 = o.den if g1.is_const else exact_div(o.den, g1)
        n2 = o.num if g2.is_const else exact_div(o.num, g2)
        d1 = self.den if g2.is_const else exact_div(self.den, g2)
        return Expr(*_content_and_sign(n1.mul(n2), d1.mul(d2)), _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by zero expression")
        # num and den are coprime with content 1: only the sign can change
        return self.__mul__(
            Expr(*_content_and_sign(o.den, o.num), _reduced=True))

    def __rtruediv__(self, other):
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return E_ONE
        if k < 0:
            if self.is_zero:
                raise DivisionByZero("zero raised to a negative power")
            num, den, k = self.den, self.num, -k
        else:
            num, den = self.num, self.den
        # num and den are coprime, so powers stay coprime; the sign step
        # makes the leading coefficient of den positive
        return Expr(*_content_and_sign(num.pow(k), den.pow(k)), _reduced=True)


_set_num = Expr.num.__set__
_set_den = Expr.den.__set__
_set_hash = Expr._hash.__set__


def _reduce(num: Polynomial, den: Polynomial):
    if den.is_zero:
        raise DivisionByZero("expression denominator is zero")
    if num.is_zero:
        return P_ZERO, P_ONE
    if not den.is_const:
        g = poly_gcd(num, den)
        if not g.is_const:
            num = exact_div(num, g)
            den = exact_div(den, g)
    return _content_and_sign(num, den)


E_ZERO = Expr.const(0)
E_ONE = Expr.const(1)


# -- public constructors -----------------------------------------------------


def const(c) -> Expr:
    """Exact constant from an int or Fraction."""
    return Expr.const(c)


def time() -> Expr:
    return Expr.atom(TIME)


def jet(order: int) -> Expr:
    """The jet coordinate q^(order); jet(0) is q itself."""
    return Expr.atom(Jet(order))


def param(name: str) -> Expr:
    """A named symbolic constant."""
    return Expr.atom(Param(name))


def log(arg: Expr) -> Expr:
    """Natural log as an opaque atom over a canonical argument.

    log(1) collapses to 0; any other constant argument is rejected since it
    has no exact rational value.
    """
    arg = Expr._coerce(arg)
    if arg is NotImplemented:
        raise UnsupportedLogArgument("log argument must be an expression")
    if arg.is_zero:
        raise UnsupportedLogArgument("log(0) is undefined")
    if arg.is_const:
        if arg.const_value() == 1:
            return E_ZERO
        value = decimal_text(arg.num.const_value())
        if arg.den != P_ONE:
            value += "/" + decimal_text(arg.den.const_value())
        raise UnsupportedLogArgument(f"log of constant {value} has no exact value")
    return Expr.atom(LogAtom(arg))


# -- differentiation ----------------------------------------------------------


def _lcm(p: Polynomial, q: Polynomial) -> Polynomial:
    g = poly_gcd(p, q)
    return p.mul(q) if g.is_const else p.mul(exact_div(q, g))


def _derive(e: Expr, field: dict) -> Expr:
    """X(e) for the vector field X = sum_a field[a] * d/da.

    field maps time, jet and param atoms to Expr coefficients; atoms it
    omits are constants of X.  A log atom takes its coefficient from the
    chain rule X(log A) = X(A)/A, which is applied here and nowhere else.
    """
    coeffs = {}
    for a in e.atoms():
        if isinstance(a, LogAtom):
            c = _derive(a.arg, field) / a.arg
        else:
            c = field.get(a)
        if c is not None and not c.is_zero:
            coeffs[a] = c
    if not coeffs:
        return E_ZERO
    # X = Y/m, where Y has the polynomial coefficients c_a * m
    m = P_ONE
    for c in coeffs.values():
        if c.den != P_ONE:
            m = _lcm(m, c.den)
    poly_field = {a: c.num if m == P_ONE else c.num.mul(exact_div(m, c.den))
                  for a, c in coeffs.items()}
    n, d = e.num, e.den
    yn = n.derive(poly_field)
    yd = d.derive(poly_field)
    # With g = gcd(d, Y d) and h = d/g,
    #   X(n/d) = (Y n * d - n * Y d) / (d^2 m) = (Y n * h - n * (Y d/g)) / (d h m).
    # The numerator is prime to h: gcd(n, d) = 1 and gcd(h, Y d/g) = 1.  So
    # of the denominator g h^2 m, only m and the part of g prime to h can
    # share factors with it.
    g = poly_gcd(d, yd)
    h = d if g.is_const else exact_div(d, g)
    num = yn.mul(h).sub(n.mul(exact_div(yd, g)))
    if num.is_zero:
        return E_ZERO
    free = g
    while not free.is_const:
        shared = poly_gcd(free, h)
        if shared.is_const:
            break
        free = exact_div(free, shared)
    den = g.mul(m)
    free = free.mul(m)
    if not free.is_const:
        common = poly_gcd(num, free)
        if not common.is_const:
            num, den = exact_div(num, common), exact_div(den, common)
    return Expr(*_content_and_sign(num, den.mul(h).mul(h)), _reduced=True)


def partial(e: Expr, atom: Atom) -> Expr:
    """Exact partial derivative with respect to a time, jet, or param atom."""
    if isinstance(atom, LogAtom):
        raise UnsupportedAtom("cannot differentiate with respect to a log atom")
    if not isinstance(atom, (TimeAtom, Jet, Param)):
        raise UnsupportedAtom(f"cannot differentiate with respect to {atom!r}")
    return _derive(e, {atom: E_ONE})


# -- substitution -------------------------------------------------------------


def _subst_poly(p: Polynomial, mapping: dict, cache: dict) -> Expr:
    out = E_ZERO
    for m, c in p.terms:
        term = Expr.const(c)
        for a, ex in m:
            key = (a, ex)
            val = cache.get(key)
            if val is None:
                base = cache.get((a, 1))
                if base is None:
                    if isinstance(a, LogAtom):
                        new_arg = substitute_many(a.arg, mapping)
                        base = log(new_arg)
                    elif a in mapping:
                        base = mapping[a]
                    else:
                        base = Expr.atom(a)
                    cache[(a, 1)] = base
                val = base if ex == 1 else base ** ex
                cache[key] = val
            term = term * val
        out = out + term
    return out


def substitute_many(e: Expr, mapping: dict) -> Expr:
    """Simultaneously replace atoms by expressions (atoms -> Expr)."""
    if not mapping:
        return e
    cache: dict = {}
    num = _subst_poly(e.num, mapping, cache)
    den = _subst_poly(e.den, mapping, cache)
    if den.is_zero:
        raise DivisionByZero("substitution makes a denominator vanish")
    return num / den

def substitute(e: Expr, atom: Atom, value: Expr) -> Expr:
    """Replace one atom by an expression everywhere, including inside logs."""
    return substitute_many(e, {atom: Expr._coerce(value)})

