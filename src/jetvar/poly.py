"""Sparse multivariate polynomials over exact rationals.

A monomial is a tuple of (atom, exponent) pairs in ascending atom order with
strictly positive exponents; the empty tuple is the unit monomial.  A
polynomial stores its nonzero terms sorted in descending degree-lexicographic
monomial order, so two polynomials are semantically equal iff they are
structurally equal.

The gcd here is the content-and-primitive-part recursion with a primitive
pseudo-remainder sequence in the largest atom, which is plenty for the
expression sizes produced by jet orders up to six.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable

from .atoms import Atom
from .errors import DivisionByZero

Mono = tuple  # tuple[tuple[Atom, int], ...], ascending by atom sort key

UNIT_MONO: Mono = ()


def mono_key(mono: Mono):
    """Degree-lexicographic sort key (larger key = larger monomial)."""
    deg = 0
    parts = []
    for atom, exp in mono:
        deg += exp
        parts.append((atom.sort_key(), exp))
    parts.reverse()  # most significant atom first
    return (deg, tuple(parts))


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        k1, k2 = a1.sort_key(), a2.sort_key()
        if k1 == k2:
            out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif k1 < k2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_pow(m: Mono, k: int) -> Mono:
    if k == 0:
        return UNIT_MONO
    return tuple((a, e * k) for a, e in m)


def mono_gcd(m1: Mono, m2: Mono) -> Mono:
    if not m1 or not m2:
        return UNIT_MONO
    d2 = dict_of(m2)
    out = []
    for a, e in m1:
        e2 = d2.get(a)
        if e2:
            out.append((a, min(e, e2)))
    return tuple(out)


def mono_div(m: Mono, d: Mono) -> Mono | None:
    """m / d, or None when d does not divide m."""
    if not d:
        return m
    dd = dict_of(m)
    for a, e in d:
        have = dd.get(a, 0)
        if have < e:
            return None
        if have == e:
            del dd[a]
        else:
            dd[a] = have - e
    return tuple(sorted(dd.items(), key=lambda it: it[0].sort_key()))


def dict_of(m: Mono) -> dict:
    return dict(m)


def mono_degree_in(m: Mono, atom: Atom) -> int:
    for a, e in m:
        if a == atom:
            return e
    return 0


def mono_without(m: Mono, atom: Atom) -> Mono:
    return tuple((a, e) for a, e in m if a != atom)


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple):
        # terms must be presorted descending with nonzero coefficients;
        # use from_dict for untrusted input.
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    @staticmethod
    def from_dict(d: dict) -> "Polynomial":
        items = [(m, c) for m, c in d.items() if c != 0]
        items.sort(key=lambda it: mono_key(it[0]), reverse=True)
        return Polynomial(tuple(items))

    @staticmethod
    def const(c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return P_ZERO
        return Polynomial(((UNIT_MONO, c),))

    @staticmethod
    def atom(a: Atom) -> "Polynomial":
        return Polynomial(((((a, 1),), Fraction(1)),))

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0][0]:
            return self.terms[0][1]
        raise ValueError("polynomial is not constant")

    def __eq__(self, other):
        return isinstance(other, Polynomial) and other.terms == self.terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m, c in self.terms:
            factors = [str(c)] + [f"{a!r}^{e}" if e > 1 else repr(a) for a, e in m]
            bits.append("*".join(factors))
        return "Polynomial(" + " + ".join(bits) + ")"

    # -- arithmetic -------------------------------------------------------

    def add(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d = dict(self.terms)
        for m, c in other.terms:
            v = d.get(m)
            if v is None:
                d[m] = c
            else:
                v = v + c
                if v == 0:
                    del d[m]
                else:
                    d[m] = v
        return Polynomial.from_dict(d)

    def neg(self) -> "Polynomial":
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0 or self.is_zero:
            return P_ZERO
        if c == 1:
            return self
        return Polynomial(tuple((m, k * c) for m, k in self.terms))

    def mul_term(self, mono: Mono, coeff: Fraction) -> "Polynomial":
        if coeff == 0 or self.is_zero:
            return P_ZERO
        if not mono:
            return self.scale(coeff)
        d = {}
        for m, c in self.terms:
            d[mono_mul(m, mono)] = c * coeff
        return Polynomial.from_dict(d)

    def mul(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return P_ZERO
        if len(self.terms) == 1:
            m, c = self.terms[0]
            return other.mul_term(m, c)
        if len(other.terms) == 1:
            m, c = other.terms[0]
            return self.mul_term(m, c)
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                v = d.get(m)
                if v is None:
                    d[m] = c1 * c2
                else:
                    d[m] = v + c1 * c2
        return Polynomial.from_dict(d)

    def pow(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = P_ONE
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    # -- structure --------------------------------------------------------

    def leading(self):
        """(monomial, coefficient) of the largest term."""
        return self.terms[0]

    def atoms(self) -> set:
        out = set()
        for m, _ in self.terms:
            for a, _e in m:
                out.add(a)
        return out

    def has_atom(self, atom: Atom) -> bool:
        for m, _ in self.terms:
            for a, _e in m:
                if a == atom:
                    return True
        return False

    def degree_in(self, atom: Atom) -> int:
        deg = 0
        for m, _ in self.terms:
            e = mono_degree_in(m, atom)
            if e > deg:
                deg = e
        return deg

    def coeff_content(self) -> Fraction:
        """Positive rational content: gcd of numerators / lcm applied via Fraction."""
        num_gcd = 0
        den_lcm = 1
        for _, c in self.terms:
            num_gcd = _int_gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        if num_gcd == 0:
            return Fraction(0)
        return Fraction(num_gcd, den_lcm)

    def mono_content(self) -> Mono:
        """Largest monomial dividing every term."""
        if self.is_zero:
            return UNIT_MONO
        common = self.terms[0][0]
        for m, _ in self.terms[1:]:
            if not common:
                break
            common = mono_gcd(common, m)
        return common

    def div_mono(self, mono: Mono) -> "Polynomial":
        if not mono:
            return self
        out = []
        for m, c in self.terms:
            q = mono_div(m, mono)
            if q is None:
                raise ValueError("monomial does not divide every term")
            out.append((q, c))
        return Polynomial(tuple(out))

    def as_univariate(self, atom: Atom) -> list:
        """Dense coefficient list [c0, c1, ...] of Polynomials in atom."""
        deg = self.degree_in(atom)
        buckets: list[dict] = [dict() for _ in range(deg + 1)]
        for m, c in self.terms:
            e = mono_degree_in(m, atom)
            buckets[e][mono_without(m, atom)] = c
        return [Polynomial.from_dict(b) for b in buckets]

    @staticmethod
    def from_univariate(coeffs: Iterable["Polynomial"], atom: Atom) -> "Polynomial":
        d = {}
        for e, p in enumerate(coeffs):
            if p.is_zero:
                continue
            xe = ((atom, e),) if e else UNIT_MONO
            for m, c in p.terms:
                d[mono_mul(m, xe)] = c
        return Polynomial.from_dict(d)

    def derive(self, field: dict) -> "Polynomial":
        """sum over atoms a of field[a] * d(self)/da.

        field maps atoms to Polynomial coefficients; atoms it omits,
        log atoms included, are held fixed.
        """
        d = {}
        for m, c in self.terms:
            for i, (a, e) in enumerate(m):
                y = field.get(a)
                if y is None:
                    continue
                head, tail = m[:i], m[i + 1:]
                rest = head + tail if e == 1 else head + ((a, e - 1),) + tail
                for ym, yc in y.terms:
                    nm = mono_mul(rest, ym)
                    d[nm] = d.get(nm, 0) + c * e * yc
        return Polynomial.from_dict(d)


P_ZERO = Polynomial(())
P_ONE = Polynomial(((UNIT_MONO, Fraction(1)),))


# -- exact division and gcd ------------------------------------------------


def exact_div(num: Polynomial, den: Polynomial) -> Polynomial:
    """num / den when den divides num exactly; raises ValueError otherwise."""
    if den.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if num.is_zero:
        return P_ZERO
    if den.is_const:
        return num.scale(1 / den.const_value())
    if len(den.terms) == 1:
        m, c = den.terms[0]
        return num.div_mono(m).scale(1 / c)
    lead_m, lead_c = den.leading()
    rem = num
    out = {}
    while not rem.is_zero:
        rm, rc = rem.leading()
        q = mono_div(rm, lead_m)
        if q is None:
            raise ValueError("inexact polynomial division")
        coef = rc / lead_c
        out[q] = out.get(q, Fraction(0)) + coef
        rem = rem.sub(den.mul_term(q, coef))
    return Polynomial.from_dict(out)


def _pos_primitive(p: Polynomial) -> Polynomial:
    """Divide out rational content and make the leading coefficient positive."""
    if p.is_zero:
        return p
    c = p.coeff_content()
    if p.leading()[1] < 0:
        c = -c
    return p.scale(1 / c)


def _prs_gcd(f: list, g: list, atom: Atom) -> Polynomial:
    """Primitive PRS gcd of two primitive univariate polys (coeff lists)."""

    def degree(u):
        return len(u) - 1

    def trim(u):
        while u and u[-1].is_zero:
            u.pop()
        return u

    def is_zero(u):
        return not u

    def prim(u):
        # remove the recursive content of the coefficient list
        cont = P_ZERO
        for c in u:
            cont = poly_gcd(cont, c)
            if cont.is_const and not cont.is_zero:
                return u
        return [exact_div(c, cont) for c in u]

    def prem(u, v):
        # pseudo-remainder of u by v in the main atom
        u = list(u)
        dv = degree(v)
        lv = v[-1]
        while not is_zero(u) and degree(u) >= dv:
            du = degree(u)
            lu = u[-1]
            shifted = [P_ZERO] * (du - dv) + [c.mul(lu) for c in v]
            u = [c.mul(lv) for c in u]
            u = [a.sub(b) for a, b in
                 zip(u, shifted + [P_ZERO] * (len(u) - len(shifted)))]
            u = trim(u)
        return u

    f = trim(list(f))
    g = trim(list(g))
    if degree(f) < degree(g):
        f, g = g, f
    while True:
        if is_zero(g):
            return Polynomial.from_univariate(prim(f), atom)
        if degree(g) == 0:
            return P_ONE
        r = prem(f, g)
        f, g = g, prim(trim(r)) if r else []


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Primitive gcd with positive leading coefficient (rational content dropped).

    gcd(0, q) = primitive part of q; gcd of two constants is 1.
    """
    if p.is_zero:
        return _pos_primitive(q)
    if q.is_zero:
        return _pos_primitive(p)
    if p.is_const or q.is_const:
        return P_ONE

    mp = p.mono_content()
    mq = q.mono_content()
    mg = mono_gcd(mp, mq)
    p = p.div_mono(mp)
    q = q.div_mono(mq)
    base = Polynomial(((mg, Fraction(1)),)) if mg else P_ONE
    if p.is_const or q.is_const:
        return base

    if p == q or p == q.neg():
        return base.mul(_pos_primitive(p))

    atoms = p.atoms() | q.atoms()
    atom = max(atoms, key=lambda a: a.sort_key())

    pu = p.as_univariate(atom)
    qu = q.as_univariate(atom)

    cont_p = P_ZERO
    for c in pu:
        cont_p = poly_gcd(cont_p, c)
    cont_q = P_ZERO
    for c in qu:
        cont_q = poly_gcd(cont_q, c)
    cont = poly_gcd(cont_p, cont_q)

    pp_p = [exact_div(c, cont_p) for c in pu]
    pp_q = [exact_div(c, cont_q) for c in qu]
    g = _prs_gcd(pp_p, pp_q, atom)
    return _pos_primitive(base.mul(cont).mul(g))
