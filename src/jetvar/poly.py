"""Sparse multivariate polynomials with integer coefficients, packed.

A polynomial is a layout and its terms.  The layout is the tuple of the
atoms the polynomial uses, in ascending ``Atom.sort_key`` order, and a field
width w: the least multiple of 8 with D < 2^(w-1), where D is the total
degree of the leading term.  Layouts are interned: while one is in use, no
other layout object has its atom tuple and width.  A monomial x_0^e_0 * ... * x_{n-1}^e_{n-1} of
total degree d is packed into one int, its key,

    key = d << (n*w)  |  e_{n-1} << ((n-1)*w)  |  ...  |  e_1 << w  |  e_0,

and the terms are two tuples, ``keys`` strictly descending and ``coeffs``
their nonzero int coefficients.  Since the layout is a function of the
terms, two polynomials are equal iff they share a layout and their terms.
Rational values live one level up, as a numerator and denominator in
``expr.Expr``.

Order.  No exponent exceeds D, so every field holds a value below 2^(w-1),
and the top field holds the degree.  No field spills into its neighbour, so
comparing two keys as ints compares their highest differing field: the
total degree first, then the exponent of the largest atom, then of the next
one down.  An atom a monomial lacks has exponent 0 there, so where two
monomials first differ in their (atom, exponent) pairs read from the largest
atom down, the larger atom or the larger exponent wins in both.  That is the
graded order, lexicographic from the largest atom down, that the canonical
text prints its terms in.

Products.  Coded in one layout whose width fits the product's degree, the
key of a product of two monomials is the sum of their keys: no field
carries.  A single-term factor adds its key to every term, which keeps the
order; only a sum of several products needs a sort.

Divisibility.  The top bit of every exponent field is a guard bit, zero in
every key.  For keys m and d of one layout and G the mask of the guard bits,
field i of (m | G) - d holds 2^(w-1) + m_i - d_i, a value in [1, 2^w) since
0 <= m_i, d_i < 2^(w-1).  So no borrow crosses a field boundary, and the
guard bit of field i survives iff m_i >= d_i: d divides m iff every guard
bit survives, and then m - d is the key of the quotient.

``terms`` decodes the keys into ((atom, exponent), ...) monomials, for the
code that walks a monomial atom by atom: the printers, the numeric
compiler, substitution and the Mobius image.  No arithmetic here reads it.

The gcd is the content-and-primitive-part recursion in the largest atom.
A content is the gcd of a polynomial's coefficients in that atom, read
sparsely, fewest terms first, until it is constant, and an operand free of
the atom meets the other's coefficients the same way.  Otherwise one image
of both primitive parts at a random point modulo a word-size prime bounds
the degree of their gcd; the image is the one dense list here, one int per
power.  That settles coprime pairs at once, and pairs where the smaller
part divides the larger by one trial division, which covers almost every
gcd that jet calculus asks for.  Every other pair, a proper common factor
or an unlucky point, goes to GCDHEU: the gcd of the two values at an
integer xi, read back as a polynomial in the atom, with xi growing until a
candidate that divides both parts is proved to be their gcd.
"""

from __future__ import annotations

import random
import sys
import weakref
from functools import lru_cache, reduce
from heapq import heappop, heappush
from math import gcd as _int_gcd
from math import isqrt
from operator import index as _as_int
from operator import neg as _neg
from operator import or_ as _or

from .atoms import Atom
from .errors import DivisionByZero

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


# -- layouts ------------------------------------------------------------------


def _width(deg: int) -> int:
    """Field width for a leading degree: the least multiple of 8 above its
    bit length, so that deg < 2^(width-1)."""
    return (deg.bit_length() + 8) & ~7


class _Layout:
    """Atoms in ascending order, each with a field of the same width."""

    __slots__ = ("atoms", "index", "atom_set", "width", "mask", "dshift",
                 "guards", "lows", "units", "__weakref__")

    def __init__(self, atoms: tuple, width: int):
        n = len(atoms)
        ones = ((1 << (n * width)) - 1) // ((1 << width) - 1)  # 1 in every field
        self.atoms = atoms
        self.index = dict(zip(atoms, range(n)))
        self.atom_set = frozenset(atoms)
        self.width = width
        self.mask = (1 << width) - 1
        self.dshift = n * width  # the degree field
        self.guards = ones << (width - 1)
        self.lows = ones * ((1 << (width - 1)) - 1)
        # keys of the monomials atom^1
        self.units = tuple([(1 << (i * width)) | (1 << self.dshift) for i in range(n)])

    def __reduce__(self):
        return _layout, (self.atoms, self.width)


# _layout interns layouts in the weak _LAYOUTS, as Polynomial.__eq__ compares
# them by identity; an lru_cache there could evict a layout in use and make a
# second one.  Joins, key-move plans and sub-layouts are pure functions of
# layouts, each behind an lru_cache of _CACHE_SIZE entries that keeps the
# layouts it names alive: bounded, so that a chain meeting ever new atoms, like
# D_t^k of q^(k), runs in bounded memory, and holds a workload's working set.
_LAYOUTS = weakref.WeakValueDictionary()
_CACHE_SIZE = 4096


def _layout(atoms: tuple, width: int) -> _Layout:
    lay = _LAYOUTS.get((atoms, width))
    if lay is None:
        lay = _LAYOUTS[atoms, width] = _Layout(atoms, width)
    return lay


@lru_cache(maxsize=_CACHE_SIZE)
def _join(la: _Layout, lb: _Layout, width: int) -> _Layout:
    """The layout over the atoms of la and lb, with the given width."""
    if la.atom_set >= lb.atom_set:
        atoms = la.atoms
    elif lb.atom_set >= la.atom_set:
        atoms = lb.atoms
    else:
        atoms = tuple(sorted(la.atom_set | lb.atom_set, key=Atom.sort_key))
    return _layout(atoms, width)


@lru_cache(maxsize=_CACHE_SIZE)
def _part(lay: _Layout, used: int, width: int) -> _Layout:
    """The layout, of this width, of the atoms of lay whose guards used sets."""
    w = lay.width
    return _layout(tuple(a for i, a in enumerate(lay.atoms)
                         if (used >> (i * w + w - 1)) & 1), width)


@lru_cache(maxsize=_CACHE_SIZE)
def _plan(src: _Layout, dst: _Layout):
    """How keys move from src to dst: ((lo, new_lo), runs).

    The fields of atoms that sit next to each other in both layouts, with
    equal widths, move as one run (lo, mask, new_lo); the degree field, with
    any run that ends just under it in both layouts, moves as (lo, new_lo)."""
    sw, dw = src.width, dst.width
    runs = []
    last = None
    for i, a in enumerate(src.atoms):
        j = dst.index.get(a)
        if j is None:
            continue  # an atom the keys do not use
        if sw == dw and last == (i - 1, j - 1):
            runs[-1][1] += sw
        else:
            runs.append([i * sw, sw, j * dw])
        last = (i, j)
    top = (src.dshift, dst.dshift)
    if runs and runs[-1][0] + runs[-1][1] == src.dshift and (
            runs[-1][2] - runs[-1][0] == dst.dshift - src.dshift):
        lo, _, new_lo = runs.pop()
        top = (lo, new_lo)
    return top, tuple((lo, (1 << bits) - 1, new_lo) for lo, bits, new_lo in runs)


def _recode(src: _Layout, dst: _Layout, keys):
    """keys of src coded in dst; dst has every atom the keys use, and a
    width that fits their degrees."""
    if src is dst:
        return keys
    (tlo, tnew), runs = _plan(src, dst)
    out = []
    for k in keys:
        x = (k >> tlo) << tnew
        for lo, m, new in runs:
            x |= ((k >> lo) & m) << new
        out.append(x)
    return out


def _normal(lay: _Layout, keys, coeffs) -> "Polynomial":
    """The polynomial with these terms (keys descending in lay, nonzero
    coefficients) over the layout of exactly the atoms they use."""
    if not keys:
        return P_ZERO
    width = ((keys[0] >> lay.dshift).bit_length() + 8) & ~7  # _width
    # a field of the OR of the keys is zero iff it is zero in every key; its
    # guard bit is set after adding lows iff it is not
    used = (reduce(_or, keys) + lay.lows) & lay.guards
    if width == lay.width and used == lay.guards:
        return Polynomial(lay, tuple(keys), tuple(coeffs))
    dst = _part(lay, used, width)
    return Polynomial(dst, tuple(_recode(lay, dst, keys)), tuple(coeffs))


def _min_key(lay: _Layout, keys) -> int:
    """Key of the fieldwise minimum of keys: the gcd of their monomials."""
    exps = (1 << lay.dshift) - 1
    g, w, fm = lay.guards, lay.width, lay.mask
    x = keys[-1] & exps
    for k in reversed(keys):
        if not x:
            return 0
        y = k & exps
        # the guard bit of a field survives where x's field is >= y's
        ge = (((x | g) - y) & g) >> (w - 1)
        x ^= (x ^ y) & (ge * fm)
    deg = 0
    y = x
    while y:
        deg += y & fm
        y >>= w
    return (deg << lay.dshift) | x


class Polynomial:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("layout", "keys", "coeffs", "_terms", "_hash")

    def __init__(self, layout: _Layout, keys: tuple, coeffs: tuple):
        # keys must be strictly descending in layout, the layout of exactly
        # the atoms they use with the width of the leading degree, and coeffs
        # nonzero ints.  The hash and the decoded terms are computed on first
        # use, since most intermediate polynomials need neither.  The slots
        # are set through their descriptors, past __setattr__.
        _set_layout(self, layout)
        _set_keys(self, keys)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    @staticmethod
    def const(c: int) -> "Polynomial":
        c = _as_int(c)
        if c == 0:
            return P_ZERO
        return Polynomial(_CONST, (0,), (c,))

    @staticmethod
    def atom(a: Atom) -> "Polynomial":
        return Polynomial(_layout((a,), 8), (257,), (1,))  # 1 << 8 | 1

    # -- predicates and views ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.keys

    @property
    def is_const(self) -> bool:
        return not self.layout.atoms

    def const_value(self) -> int:
        if self.layout.atoms:
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.keys else 0

    @property
    def terms(self) -> tuple:
        """((monomial, coefficient), ...) in descending order, a monomial
        being ((atom, exponent), ...) in ascending atom order."""
        try:
            return self._terms
        except AttributeError:
            pass
        lay = self.layout
        atoms, w, m = lay.atoms, lay.width, lay.mask
        exps = (1 << lay.dshift) - 1
        out = []
        for k, c in zip(self.keys, self.coeffs):
            mono = []
            x = k & exps
            i = 0
            while x:
                e = x & m
                if e:
                    mono.append((atoms[i], e))
                x >>= w
                i += 1
            out.append((tuple(mono), c))
        terms = tuple(out)
        _set_terms(self, terms)
        return terms

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.layout is self.layout
                and other.keys == self.keys and other.coeffs == self.coeffs)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.layout, self.keys, self.coeffs))
            _set_hash(self, h)
            return h

    def __reduce__(self):
        return Polynomial, (self.layout, self.keys, self.coeffs)

    def __repr__(self):
        if not self.keys:
            return "Polynomial(0)"
        bits = []
        for m, c in self.terms:
            factors = [str(c)] + [f"{a!r}^{e}" if e > 1 else repr(a) for a, e in m]
            bits.append("*".join(factors))
        return "Polynomial(" + " + ".join(bits) + ")"

    # -- arithmetic -------------------------------------------------------

    def add(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, other.coeffs)

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, tuple(map(_neg, other.coeffs)))

    def _plus(self, other: "Polynomial", coeffs: tuple) -> "Polynomial":
        """self + other, where coeffs are other's coefficients or their
        negatives."""
        if not other.keys:
            return self
        if not self.keys:
            return Polynomial(other.layout, other.keys, coeffs)
        la, lb = self.layout, other.layout
        ka, kb = self.keys, other.keys
        lay = la
        if la is not lb:
            lay = _join(la, lb, _width(max(ka[0] >> la.dshift, kb[0] >> lb.dshift)))
            ka = _recode(la, lay, ka)
            kb = _recode(lb, lay, kb)
        d = dict(zip(ka, self.coeffs))
        get = d.get
        cancelled = False
        for k, c in zip(kb, coeffs):
            v = get(k)
            if v is None:
                d[k] = c
            else:
                v += c
                if v:
                    d[k] = v
                else:
                    del d[k]
                    cancelled = True
        keys = sorted(d, reverse=True)
        coeffs = tuple(map(d.__getitem__, keys))
        if cancelled:
            # a cancellation can lower the degree or remove atoms
            return _normal(lay, keys, coeffs)
        return Polynomial(lay, tuple(keys), coeffs)

    def neg(self) -> "Polynomial":
        return Polynomial(self.layout, self.keys, tuple(map(_neg, self.coeffs)))

    def scale(self, c: int) -> "Polynomial":
        c = _as_int(c)
        if c == 0 or not self.keys:
            return P_ZERO
        if c == 1:
            return self
        return Polynomial(self.layout, self.keys, tuple([k * c for k in self.coeffs]))

    def div_int(self, c: int) -> "Polynomial":
        """self / c for a nonzero int c that divides every coefficient."""
        if c == 1:
            return self
        return Polynomial(self.layout, self.keys, tuple([k // c for k in self.coeffs]))

    def mul(self, other: "Polynomial") -> "Polynomial":
        ka, kb = self.keys, other.keys
        if not ka or not kb:
            return P_ZERO
        la, lb = self.layout, other.layout
        if not lb.atoms:
            return self.scale(other.coeffs[0])
        if not la.atoms:
            return other.scale(self.coeffs[0])
        width = _width((ka[0] >> la.dshift) + (kb[0] >> lb.dshift))
        if la is lb and width == la.width:
            lay = la
        else:
            lay = _join(la, lb, width)
            ka = _recode(la, lay, ka)
            kb = _recode(lb, lay, kb)
        ca, cb = self.coeffs, other.coeffs
        # Over the integers no product loses its leading term or an atom, so
        # lay stays the product's layout.
        if len(ka) == 1:
            ka, ca, kb, cb = kb, cb, ka, ca
        if len(kb) == 1:
            k, c = kb[0], cb[0]
            return Polynomial(lay, tuple([x + k for x in ka]),
                              tuple([x * c for x in ca]))
        d = {}
        get = d.get
        for k1, c1 in zip(ka, ca):
            for k2, c2 in zip(kb, cb):
                k = k1 + k2
                d[k] = get(k, 0) + c1 * c2
        keys = sorted([k for k, c in d.items() if c], reverse=True)
        return Polynomial(lay, tuple(keys), tuple(map(d.__getitem__, keys)))

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

    def atoms(self) -> frozenset:
        return self.layout.atom_set

    def degree_in(self, atom: Atom) -> int:
        lay = self.layout
        i = lay.index.get(atom)
        if i is None:
            return 0
        s, m = i * lay.width, lay.mask
        return max([(k >> s) & m for k in self.keys])

    def coeff_content(self) -> int:
        """gcd of the coefficients, positive (0 for the zero polynomial)."""
        return _int_gcd(*self.coeffs)

    def coefficients_in(self, atom: Atom) -> dict:
        """{e: the Polynomial coefficient of atom^e}, over the e that occur."""
        lay = self.layout
        i = lay.index.get(atom)
        if i is None:
            return {0: self}
        s, m, unit = i * lay.width, lay.mask, lay.units[i]
        buckets = {}
        for k, c in zip(self.keys, self.coeffs):
            e = (k >> s) & m
            b = buckets.get(e)
            if b is None:
                b = buckets[e] = ([], [])
            # one amount is taken from every key of a bucket: they stay sorted
            b[0].append(k - e * unit)
            b[1].append(c)
        return {e: _normal(lay, ks, cs) for e, (ks, cs) in buckets.items()}

    def derive(self, field: dict) -> "Polynomial":
        """sum over atoms a of field[a] * d(self)/da.

        field maps atoms to Polynomial coefficients; atoms it omits,
        log atoms included, are held fixed.
        """
        la = self.layout
        used = []
        ydeg = 0
        for i, a in enumerate(la.atoms):
            y = field.get(a)
            if y is not None and y.keys:
                used.append((i, y))
                dy = y.keys[0] >> y.layout.dshift
                if dy > ydeg:
                    ydeg = dy
        if not used:
            return P_ZERO
        # no term of the result has a degree above self's plus ydeg
        width = _width((self.keys[0] >> la.dshift) + ydeg)
        lay = _join(la, _CONST, width)
        for _, y in used:
            if y.layout.atoms:
                lay = _join(lay, y.layout, width)
        w, m, units = lay.width, lay.mask, lay.units
        keys = _recode(la, lay, self.keys)
        coeffs = self.coeffs
        d = {}
        get = d.get
        for i, y in used:
            j = i if lay is la else lay.index[la.atoms[i]]
            s, unit = j * w, units[j]
            yl = y.layout
            if len(y.keys) == 1:
                # d/da of the term c*x^k is c*e*x^(k - unit); times y, whose
                # one term is yc*x^yk, it is c*e*yc*x^(k + shift)
                shift = _recode(yl, lay, y.keys)[0] - unit
                yc = y.coeffs[0]
                for k, c in zip(keys, coeffs):
                    e = (k >> s) & m
                    if e:
                        k += shift
                        d[k] = get(k, 0) + c * e * yc
            else:
                ys = tuple(zip(_recode(yl, lay, y.keys), y.coeffs))
                for k, c in zip(keys, coeffs):
                    e = (k >> s) & m
                    if e:
                        base, ce = k - unit, c * e
                        for yk, yc in ys:
                            nk = base + yk
                            d[nk] = get(nk, 0) + ce * yc
        keys = sorted([k for k, c in d.items() if c], reverse=True)
        return _normal(lay, keys, map(d.__getitem__, keys))


_set_layout = Polynomial.layout.__set__
_set_keys = Polynomial.keys.__set__
_set_coeffs = Polynomial.coeffs.__set__
_set_terms = Polynomial._terms.__set__
_set_hash = Polynomial._hash.__set__

_CONST = _layout((), 8)
P_ZERO = Polynomial(_CONST, (), ())
P_ONE = Polynomial(_CONST, (0,), (1,))


# -- exact division and gcd ------------------------------------------------


def exact_div(num: Polynomial, den: Polynomial) -> Polynomial:
    """num / den when den divides num with an integral quotient; raises
    ValueError otherwise.

    For a primitive den (integer content 1, as every poly_gcd result is) the
    quotient is integral whenever it exists, by Gauss's lemma.
    """
    if not den.keys:
        raise DivisionByZero("polynomial division by zero")
    if not num.keys:
        return P_ZERO
    lay, dl = num.layout, den.layout
    if dl is not lay and (not dl.atom_set <= lay.atom_set or
                          den.keys[0] >> dl.dshift > num.keys[0] >> lay.dshift):
        raise ValueError("inexact polynomial division")
    g = lay.guards
    lead_c = den.coeffs[0]
    if len(den.keys) == 1:
        if lead_c != 1 and any(k % lead_c for k in num.coeffs):
            raise ValueError("inexact polynomial division")
        if dl is _CONST:
            return num.div_int(lead_c)
        (lead_k,) = _recode(dl, lay, den.keys)
        if any(((k | g) - lead_k) & g != g for k in num.keys):
            raise ValueError("inexact polynomial division")
        return _normal(lay, [k - lead_k for k in num.keys],
                       [c // lead_c for c in num.coeffs])
    dkeys = _recode(dl, lay, den.keys)
    lead_k = dkeys[0]
    tail = tuple(zip(dkeys[1:], den.coeffs[1:]))
    # The remainder is a dict with a heap of its negated keys.  Each step
    # cancels the largest key, and every key it adds is smaller than that,
    # so a key, once popped, never comes back.
    rem = dict(zip(num.keys, num.coeffs))
    heap = [-k for k in num.keys]  # ascending, hence a heap
    out_k, out_c = [], []
    while heap:
        m = -heappop(heap)
        c = rem.pop(m)
        if not c:
            continue
        coef, r = divmod(c, lead_c)
        if r or ((m | g) - lead_k) & g != g:
            raise ValueError("inexact polynomial division")
        q = m - lead_k
        out_k.append(q)  # q's come out in descending order
        out_c.append(coef)
        for dk, dc in tail:
            nk = q + dk
            v = rem.get(nk)
            if v is None:
                rem[nk] = -coef * dc
                heappush(heap, -nk)
            else:
                rem[nk] = v - coef * dc
    return _normal(lay, out_k, out_c)


def _pos_primitive(p: Polynomial) -> Polynomial:
    """Divide out the integer content and make the leading coefficient positive."""
    if p.is_zero:
        return p
    c = p.coeff_content()
    if p.coeffs[0] < 0:
        c = -c
    return p.div_int(c)


def _content_in(p: Polynomial, atom: Atom, g: Polynomial = P_ZERO) -> Polynomial:
    """gcd of g and the coefficients of p in atom, read sparsely until it is
    constant, fewest terms first: a short one makes the gcd small early."""
    for c in sorted(p.coefficients_in(atom).values(), key=lambda c: len(c.keys)):
        g = poly_gcd(g, c)
        if g.is_const:
            break
    return g


def _primitive_in(p: Polynomial, atom: Atom):
    """(content of p in atom, primitive part of p in atom)."""
    cont = _content_in(p, atom)
    return cont, p if cont.is_const else exact_div(p, cont)


# The image certificate evaluates at a point modulo the Mersenne prime
# 2^61 - 1, drawn from a private fixed-seed generator.
_PRIME = (1 << 61) - 1
_POINTS = random.Random(20240617)


def _image(p: Polynomial, atom: Atom, point: dict) -> list:
    """Coefficients in F_p, lowest first, of p in atom with every other atom
    evaluated at point."""
    lay = p.layout
    w, m = lay.width, lay.mask
    s = lay.index[atom] * w
    others = ((1 << lay.dshift) - 1) ^ (m << s)  # the other atoms' fields
    values = [point.get(a) for a in lay.atoms]
    out = {}
    get = out.get
    for k, v in zip(p.keys, p.coeffs):
        x = k & others
        for pt in values:
            if not x:
                break
            ex = x & m
            if ex:
                v = v * pow(pt, ex, _PRIME) % _PRIME
            x >>= w
        e = (k >> s) & m
        out[e] = get(e, 0) + v
    return [get(e, 0) % _PRIME for e in range(max(out) + 1)]


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


def _image_gcd_degree(f: Polynomial, g: Polynomial, atom: Atom):
    """An upper bound on deg_atom gcd(f, g) from one modular image, or None.

    f and g contain atom and have integer coefficients, and G = gcd(f, g)
    is taken primitive, so f/G has integer coefficients too (Gauss's
    lemma).  Let phi evaluate every other atom at a random point and
    reduce mod p.  If phi(lc f) != 0, then, as lc f = lc G * lc(f/G),
    phi(lc G) divides phi(lc f) != 0, so deg phi(G) = deg G.  phi(G)
    divides both images, hence their gcd in F_p[x], so deg G <= k, that
    gcd's degree.  The bound holds at every point: an unlucky one only
    raises k or zeroes a leading coefficient (None), and both send
    poly_gcd down its slower exact path.  So the point decides how fast
    poly_gcd answers, never what it answers.
    """
    point = {a: _POINTS.randrange(1, _PRIME)
             for a in (f.atoms() | g.atoms()) - {atom}}
    fi = _image(f, atom, point)
    gi = _image(g, atom, point)
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
    out = P_ZERO
    for e, c in p.coefficients_in(atom).items():
        out = out.add(c.scale(v ** e))
    return out


def _xi_adic(p: Polynomial, atom: Atom, xi: int) -> Polynomial:
    """The polynomial in atom whose coefficients are the balanced base-xi
    digits of p's coefficients, so that its value at atom = xi is p; p
    must be free of atom."""
    half = xi // 2
    x = Polynomial.atom(atom)
    out, power = P_ZERO, P_ONE
    while not p.is_zero:
        rs = [c % xi for c in p.coeffs]
        rs = [r - xi if r > half else r for r in rs]
        digit = _normal(p.layout, [k for k, r in zip(p.keys, rs) if r],
                        [r for r in rs if r])
        out = out.add(digit.mul(power))
        power = power.mul(x)
        p = p.sub(digit).div_int(xi)
    return out


def _heuristic_gcd(f: Polynomial, g: Polynomial, atom: Atom,
                   k: int | None) -> Polynomial:
    """The primitive gcd G of f and g, with a positive leading coefficient,
    read off its value at atom = xi (GCDHEU: Char, Geddes and Gonnet, 1989).

    f and g contain atom and are primitive in it; k bounds deg_atom G, or is
    None.  G(xi) divides hv = gcd(f(xi), g(xi)), integer content included,
    whose balanced xi-adic expansion is s*h, h primitive, |s| <= xi/2.  If h
    divides f and g, then G = h*c with c(xi) dividing s, and c = +-1 if:
    - deg_atom h == k: c is free of atom and divides every coefficient of f
      in atom, so it is an integer;
    - or xi > 2*|f| + 2 in max-norm, say |f| <= |g| (CGG's Theorem 1).  By
      Cauchy's bound, no nonzero polynomial in Z[atom] that divides one of
      f's coefficients in the other atoms has a root of modulus 1 + |f| or
      more, so none vanishes at xi.  c(xi) is an integer, so c's leading
      coefficient in the other atoms, which divides f's, forces c into
      Z[atom]; and then a nonconstant c has |c(xi)| > (xi/2)^deg c >= |s|.
    xi grows until h is certified, which happens: with f = G*u, g = G*v, a
    common factor of u(xi) and v(xi) divides their resultant in atom, which
    is nonzero and free of xi.  A prime factor of it that is not an integer
    divides both for finitely many xi only, as f is primitive in atom, so
    from some xi on hv = d*G(xi), d an integer dividing the resultant, and
    once xi > 2*|d*G| the expansion is d*G.
    """
    fn = max(map(abs, f.coeffs))
    gn = max(map(abs, g.coeffs))
    bound = 2 * min(fn, gn) + 2  # past it, the second certificate holds
    b = bound + 27
    xi = max(min(b, 99 * isqrt(b)),
             2 * min(fn // abs(f.coeffs[0]), gn // abs(g.coeffs[0])) + 4)
    while True:
        fv = _evaluate(f, atom, xi)
        gv = _evaluate(g, atom, xi)
        if not fv.is_zero and not gv.is_zero:
            hv = poly_gcd(fv, gv).scale(
                _int_gcd(fv.coeff_content(), gv.coeff_content()))
            h = _pos_primitive(_xi_adic(hv, atom, xi))
            if ((xi > bound or h.degree_in(atom) == k)
                    and _divides(h, f) and _divides(h, g)):
                return h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _split_monomial(p: Polynomial):
    """(key of the largest monomial dividing every term of p, p over it)."""
    lay = p.layout
    c = _min_key(lay, p.keys)
    if not c:
        return 0, p
    return c, _normal(lay, [k - c for k in p.keys], p.coeffs)


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

    lp, lq = p.layout, q.layout
    mp, p = _split_monomial(p)
    mq, q = _split_monomial(q)
    base = P_ONE
    if mp and mq:
        lay = _join(lp, lq, max(lp.width, lq.width))
        mg = _min_key(lay, [*_recode(lp, lay, (mp,)), *_recode(lq, lay, (mq,))])
        if mg:
            base = _normal(lay, (mg,), (1,))
    if p.is_const or q.is_const:
        return base

    if p == q or p == q.neg():
        return base.mul(_pos_primitive(p))

    atom = max(p.layout.atoms[-1], q.layout.atoms[-1], key=Atom.sort_key)
    if atom not in p.layout.index or atom not in q.layout.index:
        # G divides the operand free of atom and every coefficient of the
        # other in atom
        g, other = (p, q) if atom not in p.layout.index else (q, p)
        return base.mul(_content_in(other, atom, g))

    cont_p, f = _primitive_in(p, atom)
    cont_q, g = _primitive_in(q, atom)
    # base and the contents' gcd are primitive with positive leading
    # coefficients, and so is their product (Gauss's lemma): the early
    # returns need no _pos_primitive.
    head = base.mul(poly_gcd(cont_p, cont_q))
    k = _image_gcd_degree(f, g, atom)
    if k == 0:
        # deg G = 0: G is a common factor of the coefficients of the
        # primitive part f, so a constant
        return head
    df, dg = f.degree_in(atom), g.degree_in(atom)
    if k == min(df, dg):
        # G may be all of the smaller part; it is iff that part divides
        # the larger one
        small, large = (f, g) if df <= dg else (g, f)
        small = _pos_primitive(small)
        if _divides(small, large):
            return head.mul(small)
    # G is a proper factor of both parts, or the point was unlucky (k is
    # None) and bounds nothing
    return head.mul(_heuristic_gcd(f, g, atom, k))
