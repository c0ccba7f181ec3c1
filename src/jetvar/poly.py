"""Sparse multivariate polynomials with integer coefficients.

A monomial is a tuple of (atom, exponent) pairs in ascending atom order with
strictly positive exponents; the empty tuple is the unit monomial.  A
polynomial stores its nonzero int coefficients with their monomials, sorted
in descending degree-lexicographic monomial order, so two polynomials are
semantically equal iff they are structurally equal.  Rational values live
one level up, as a numerator and denominator in ``expr.Expr``.

The gcd is the content-and-primitive-part recursion in the largest atom.
One image of both primitive parts at a random point modulo a word-size prime
bounds the degree of their gcd.  That settles coprime pairs at once, and
pairs where the smaller part divides the larger by one trial division, which
covers almost every gcd that jet calculus asks for.  A proper common factor
is read off the gcd of the two values at a large integer (GCDHEU), and the
primitive pseudo-remainder sequence is the last resort.
"""

from __future__ import annotations

import random
import sys
from heapq import heappop, heappush
from math import gcd as _int_gcd
from math import isqrt
from operator import index as _as_int
from typing import Iterable

from .atoms import Atom
from .errors import DivisionByZero

Mono = tuple  # tuple[tuple[Atom, int], ...], ascending by atom sort key

# str() and int() convert ints of up to this many decimal digits whatever
# sys.set_int_max_str_digits allows (640)
_SHORT_DIGITS = sys.int_info.str_digits_check_threshold


def decimal_text(n: int) -> str:
    """str(n) for an int of any size.

    str refuses ints longer than sys.get_int_max_str_digits() digits (4300
    by default); Decimal converts exactly and has no such limit.
    """
    if n.bit_length() <= 3 * _SHORT_DIGITS:  # |n| < 8^d has at most d digits
        return str(n)
    from decimal import Decimal

    return str(Decimal(n))


def decimal_int(digits: str) -> int:
    """int(digits) for a run of ASCII digits of any length."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    from decimal import Decimal

    return int(Decimal(digits))

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
    d2 = dict(m2)
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
    dd = dict(m)
    for a, e in d:
        have = dd.get(a, 0)
        if have < e:
            return None
        if have == e:
            del dd[a]
        else:
            dd[a] = have - e
    return tuple(sorted(dd.items(), key=lambda it: it[0].sort_key()))


def mono_degree_in(m: Mono, atom: Atom) -> int:
    for a, e in m:
        if a == atom:
            return e
    return 0


def mono_without(m: Mono, atom: Atom) -> Mono:
    return tuple((a, e) for a, e in m if a != atom)


class Polynomial:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple):
        # terms must be presorted descending with nonzero int coefficients;
        # use from_dict for untrusted input.  The hash is computed on first
        # use, since most intermediate polynomials are never hashed.
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    @staticmethod
    def from_dict(d: dict) -> "Polynomial":
        items = [(m, c) for m, c in d.items() if c != 0]
        items.sort(key=lambda it: mono_key(it[0]), reverse=True)
        return Polynomial(tuple(items))

    @staticmethod
    def const(c: int) -> "Polynomial":
        c = _as_int(c)
        if c == 0:
            return P_ZERO
        return Polynomial(((UNIT_MONO, c),))

    @staticmethod
    def atom(a: Atom) -> "Polynomial":
        return Polynomial(((((a, 1),), 1),))

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def const_value(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and not self.terms[0][0]:
            return self.terms[0][1]
        raise ValueError("polynomial is not constant")

    def __eq__(self, other):
        return isinstance(other, Polynomial) and other.terms == self.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
            return h

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

    def scale(self, c: int) -> "Polynomial":
        c = _as_int(c)
        if c == 0 or self.is_zero:
            return P_ZERO
        if c == 1:
            return self
        return Polynomial(tuple((m, k * c) for m, k in self.terms))

    def div_int(self, c: int) -> "Polynomial":
        """self / c for a nonzero int c that divides every coefficient."""
        if c == 1:
            return self
        return Polynomial(tuple((m, k // c) for m, k in self.terms))

    def mul_term(self, mono: Mono, coeff: int) -> "Polynomial":
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

    def coeff_content(self) -> int:
        """gcd of the coefficients, positive (0 for the zero polynomial)."""
        return _int_gcd(*[c for _, c in self.terms])

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
P_ONE = Polynomial(((UNIT_MONO, 1),))


# -- exact division and gcd ------------------------------------------------


class _LargestFirst:
    """Heap entry for a monomial; the heap pops the largest monomial first."""

    __slots__ = ("key", "mono")

    def __init__(self, mono: Mono):
        self.key = mono_key(mono)
        self.mono = mono

    def __lt__(self, other: "_LargestFirst") -> bool:
        return self.key > other.key


def exact_div(num: Polynomial, den: Polynomial) -> Polynomial:
    """num / den when den divides num with an integral quotient; raises
    ValueError otherwise.

    For a primitive den (integer content 1, as every poly_gcd result is) the
    quotient is integral whenever it exists, by Gauss's lemma.
    """
    if den.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if num.is_zero:
        return P_ZERO
    if len(den.terms) == 1:
        m, c = den.terms[0]
        if c != 1 and any(k % c for _, k in num.terms):
            raise ValueError("inexact polynomial division")
        return num.div_mono(m).div_int(c)
    (lead_m, lead_c), tail = den.terms[0], den.terms[1:]
    # The remainder is a dict with a heap of its monomials.  Each step
    # cancels the largest one, and every monomial it adds is smaller than
    # that, so a monomial, once popped, never comes back.
    rem = dict(num.terms)
    heap = [_LargestFirst(m) for m, _ in num.terms]  # sorted, hence a heap
    out = []
    while heap:
        m = heappop(heap).mono
        c = rem.pop(m)
        if not c:
            continue
        q = mono_div(m, lead_m)
        coef, r = divmod(c, lead_c)
        if q is None or r:
            raise ValueError("inexact polynomial division")
        out.append((q, coef))  # q's come out in descending order
        for dm, dc in tail:
            nm = mono_mul(q, dm)
            v = rem.get(nm)
            if v is None:
                rem[nm] = -coef * dc
                heappush(heap, _LargestFirst(nm))
            else:
                rem[nm] = v - coef * dc
    return Polynomial(tuple(out))


def _pos_primitive(p: Polynomial) -> Polynomial:
    """Divide out the integer content and make the leading coefficient positive."""
    if p.is_zero:
        return p
    c = p.coeff_content()
    if p.leading()[1] < 0:
        c = -c
    return p.div_int(c)


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


# The image certificate evaluates at a point modulo the Mersenne prime
# 2^61 - 1, drawn from a private fixed-seed generator.
_PRIME = (1 << 61) - 1
_POINTS = random.Random(20240617)


def _image(coeffs: list, point: dict) -> list:
    """Coefficients in F_p of a coefficient list evaluated at point."""
    out = []
    for c in coeffs:
        s = 0
        for m, k in c.terms:
            for a, e in m:
                k = k * pow(point[a], e, _PRIME) % _PRIME
            s += k
        out.append(s % _PRIME)
    return out


def _gcd_degree_mod(f: list, g: list) -> int:
    """Degree of gcd(f, g) in F_p[x]; f, g are coefficient lists, lowest
    first, with nonzero leading entries."""
    while g:
        inv = pow(g[-1], -1, _PRIME)
        dg = len(g) - 1
        f = list(f)
        while len(f) > dg:
            c = f.pop() * inv % _PRIME
            if c:
                off = len(f) - dg
                for i in range(dg):
                    f[off + i] = (f[off + i] - c * g[i]) % _PRIME
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _image_gcd_degree(f: list, g: list, atom: Atom):
    """An upper bound on deg_atom gcd(f, g) from one modular image, or None.

    f and g are coefficient lists in atom of polynomials with integer
    coefficients, and G = gcd(f, g) is taken primitive, so f/G has integer
    coefficients too (Gauss's lemma).  Let phi evaluate every other atom at
    a random point and reduce mod p.  If phi(lc f) != 0, then, as
    lc f = lc G * lc(f/G), phi(lc G) divides phi(lc f) != 0, so
    deg phi(G) = deg G.  phi(G) divides both images, hence their gcd in
    F_p[x], so deg G <= k, that gcd's degree.  The bound holds at every
    point: an unlucky one only raises k or zeroes a leading coefficient
    (None), and both send poly_gcd down its slower exact path.  So the
    point decides how fast poly_gcd answers, never what it answers.
    """
    atoms = set()
    for c in f + g:
        atoms |= c.atoms()
    point = {a: _POINTS.randrange(1, _PRIME) for a in atoms}
    fi = _image(f, point)
    gi = _image(g, point)
    if not fi[-1] or not gi[-1]:
        return None
    return _gcd_degree_mod(fi, gi)


def _divides(d: Polynomial, p: Polynomial) -> bool:
    try:
        exact_div(p, d)
    except ValueError:
        return False
    return True


def _evaluate(p: Polynomial, atom: Atom, v: int) -> Polynomial:
    """p with atom replaced by the integer v."""
    d = {}
    for m, c in p.terms:
        e = mono_degree_in(m, atom)
        if e:
            m = mono_without(m, atom)
            c *= v ** e
        d[m] = d.get(m, 0) + c
    return Polynomial.from_dict(d)


def _xi_adic(p: Polynomial, atom: Atom, xi: int) -> Polynomial:
    """The polynomial in atom whose coefficients are the balanced base-xi
    digits of p's coefficients, so that its value at atom = xi is p."""
    d = {}
    half = xi // 2
    for m, c in p.terms:
        e = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                d[mono_mul(m, ((atom, e),)) if e else m] = r
            c = (c - r) // xi
            e += 1
    return Polynomial.from_dict(d)


def _heuristic_gcd(f: Polynomial, g: Polynomial, atom: Atom, k: int):
    """The primitive gcd G of f and g read off its value at atom = xi, or
    None after six values of xi (GCDHEU: Char, Geddes and Gonnet, 1989).

    k must bound deg_atom G, and the coefficients of f in atom must have no
    common factor but an integer.  A candidate h is accepted only when it
    has degree k in atom and divides f and g: then h divides G, and G/h,
    of degree 0 in atom, divides every coefficient of f in atom, so it is
    an integer, and h = G up to sign.
    """
    fn = max(abs(c) for _, c in f.terms)
    gn = max(abs(c) for _, c in g.terms)
    b = 2 * min(fn, gn) + 29
    xi = max(min(b, 99 * isqrt(b)),
             2 * min(fn // abs(f.leading()[1]), gn // abs(g.leading()[1])) + 4)
    for _ in range(6):
        fv = _evaluate(f, atom, xi)
        gv = _evaluate(g, atom, xi)
        if not fv.is_zero and not gv.is_zero:
            # gcd of the two values over the integers; G's value divides it
            hv = poly_gcd(fv, gv).scale(
                _int_gcd(fv.coeff_content(), gv.coeff_content()))
            h = _pos_primitive(_xi_adic(hv, atom, xi))
            if h.degree_in(atom) == k and _divides(h, f) and _divides(h, g):
                return h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Primitive gcd with positive leading coefficient (integer content dropped).

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
    base = Polynomial(((mg, 1),)) if mg else P_ONE
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
    # base and cont are primitive with positive leading coefficients, and so
    # is their product (Gauss's lemma): the early returns need no
    # _pos_primitive.
    head = base.mul(cont)
    k = _image_gcd_degree(pp_p, pp_q, atom)
    if k == 0:
        # deg G = 0: G is a common factor of the coefficients of the
        # primitive part pp_p, so a constant
        return head
    f = Polynomial.from_univariate(pp_p, atom)
    g = Polynomial.from_univariate(pp_q, atom)
    if k == min(len(pp_p), len(pp_q)) - 1:
        # G may be all of the smaller part; it is iff that part divides
        # the larger one
        small, large = (f, g) if len(pp_p) <= len(pp_q) else (g, f)
        small = _pos_primitive(small)
        if _divides(small, large):
            return head.mul(small)
    elif k is not None:
        # deg G <= k, below both degrees: G is a proper factor of both
        h = _heuristic_gcd(f, g, atom, k)
        if h is not None:
            return head.mul(h)
    # an unlucky point, or no luck with xi
    return _pos_primitive(head.mul(_prs_gcd(pp_p, pp_q, atom)))
