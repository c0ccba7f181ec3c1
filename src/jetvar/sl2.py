"""SL(2,R) invariance checks for jet expressions.

Two independent routes decide whether an expression is unchanged by the
Mobius action q -> (a*q + b)/(c*q + d) with a*d - b*c = 1:

  * infinitesimal: the residues of the three generating vector fields with
    characteristics 1, q0, q0^2 all vanish;
  * finite: substituting the prolonged Mobius image of q0 with symbolic
    unimodular parameters reproduces the expression exactly.

The finite route maps every input, logs included, through one polynomial
recurrence for the jets of the map (see _mobius_parts), whose numerators are
kept per map (_jets_of) and so computed once.  Its verdict cross-multiplies
the unreduced image num / den with e, num * e.den == e.num * den: canonical
forms are unique, so this decides image == e without reducing the image.

The parameter names a, b, c, d are reserved for the group action and are
rejected inside the expression under test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache, lru_cache

from .atoms import TIME, Jet, LogAtom, Param
from .errors import ReservedParameter, UnsupportedAtom
from .expr import Expr, const, jet, log, param
from .jets import _dt_poly, prolong
from .poly import P_ZERO, Polynomial, _content_in, exact_div

RESERVED_NAMES = ("a", "b", "c", "d")

# guards the growth of the numerator lists that _jets_of shares
_JETS_LOCK = threading.Lock()


@dataclass(frozen=True)
class InvarianceReport:
    """Residues of the three sl(2) generators and the combined verdict."""

    residue_translation: Expr
    residue_scaling: Expr
    residue_special: Expr
    invariant: bool


def _check_reserved(e: Expr) -> None:
    names = [a.name for a in e.all_atoms()
             if isinstance(a, Param) and a.name in RESERVED_NAMES]
    if names:
        # the least in atom order, so the message does not depend on hashes
        raise ReservedParameter(
            f"parameter name {min(names)!r} is reserved for the group action")


def sl2_residues(e: Expr) -> InvarianceReport:
    """Prolongation residues for the characteristics 1, q0, q0^2."""
    _check_reserved(e)
    r1 = prolong(const(1), e)
    rq = prolong(jet(0), e)
    rq2 = prolong(jet(0) ** 2, e)
    return InvarianceReport(
        residue_translation=r1,
        residue_scaling=rq,
        residue_special=rq2,
        invariant=r1.is_zero and rq.is_zero and rq2.is_zero,
    )


@lru_cache(maxsize=8)
def _jets_of(w: Expr):
    """(U, D_t U, rest, ubase, nums) for the map w = nums[0] / U.

    U = rest * ubase, with rest the content of U in q, integer content
    included, and ubase 1 when U is free of q.  nums holds the numerators
    N_0, N_1, ... computed so far; _mobius_parts extends it in place, so
    the jets of one map are computed once, however often it is applied.
    """
    U = w.den
    rest = _content_in(U, Jet(0)).scale(U.coeff_content())
    return U, _dt_poly(U), rest, exact_div(U, rest), [w.num]


def _mobius_parts(e: Expr, w: Expr, n: int):
    """Image of e under Jet(k) -> D_t^k(w), jets inside logs included, as
    the unreduced (num, den, j), meaning num / (den * U^j).

    Jet k maps to N_k / U^(k+1), where U is w's denominator and the
    numerators follow the polynomial recurrence
    N_{k+1} = D_t(N_k)*U - (k+1)*N_k*D_t(U), run only past the highest
    order w's table holds.  Numerator and denominator of
    e are each brought over one power of U, and the lower power is matched
    to the higher one.  A log whose argument has jets maps to the log of
    its argument's canonical image (_mobius_image).
    """
    U, DU, _, _, nums = _jets_of(w)
    with _JETS_LOCK:
        for k in range(len(nums) - 1, n):
            nk = nums[-1]
            nums.append(_dt_poly(nk).mul(U).sub(nk.mul(DU).scale(k + 1)))
    upow = cache(U.pow)

    @cache
    def image_atom(atom) -> Polynomial:
        """N_k for Jet(k); otherwise the atom's image, a polynomial."""
        if isinstance(atom, Jet):
            return nums[atom.order]
        if isinstance(atom, LogAtom) and atom.arg.jet_order() is not None:
            return log(_mobius_image(atom.arg, w, n)).num
        return Polynomial.atom(atom)

    def image_poly(p: Polynomial):
        """p with jets replaced, as (polynomial, j) meaning poly / U^j."""
        weights = [sum((a.order + 1) * ex for a, ex in m if isinstance(a, Jet))
                   for m, _ in p.terms]
        top = max(weights)
        out = P_ZERO
        for (mono, coeff), j in zip(p.terms, weights):
            poly = Polynomial.const(coeff)
            for atom, ex in mono:
                poly = poly.mul(image_atom(atom).pow(ex))
            out = out.add(poly.mul(upow(top - j)))
        return out, top

    num, jn = image_poly(e.num)
    den, jd = image_poly(e.den)
    return num.mul(upow(max(jd - jn, 0))), den, max(jn - jd, 0)


def _mobius_image(e: Expr, w: Expr, n: int) -> Expr:
    """The canonical image of _mobius_parts: the numerator is trial-divided
    by ubase, the part of U that contains q, before the ordinary Expr
    constructor reduces the rest."""
    num, den, uexp = _mobius_parts(e, w, n)
    _, _, rest, ubase, _ = _jets_of(w)
    residual = uexp
    while residual and not ubase.is_const:
        try:
            num = exact_div(num, ubase)
        except ValueError:
            break
        residual -= 1
    return Expr(num, den.mul(rest.pow(uexp)).mul(ubase.pow(residual)))


def mobius_substitute(e: Expr, a, b, c, d) -> Expr:
    """Replace every jet of q by the corresponding jet of (a*q + b)/(c*q + d).

    Jets inside log arguments are replaced too.  The parameters must be
    jet-free, and a log in a parameter must not depend on t, which the
    recurrence cannot differentiate; UnsupportedAtom is raised otherwise.
    When d is given as a bare symbolic parameter it is eliminated through
    the unimodular constraint d = (1 + b*c)/a, so the result is expressed
    over a, b, c only.
    """
    a, b, c, d = (Expr._coerce(v) for v in (a, b, c, d))
    for v in (a, b, c, d):
        if v is NotImplemented or not isinstance(v, Expr):
            raise UnsupportedAtom("Mobius parameters must be expressions")
        if v.jet_order() is not None:
            raise UnsupportedAtom("Mobius parameters must be jet-free")
        if any(isinstance(x, LogAtom) and TIME in x.arg.all_atoms()
               for x in v.all_atoms()):
            raise UnsupportedAtom("Mobius parameters must not have a log in t")
    atoms = list(d.atoms())
    if len(atoms) == 1 and isinstance(atoms[0], Param) and d == Expr.atom(atoms[0]):
        d = (1 + b * c) / a
    n = e.jet_order()
    if n is None:
        return e
    return _mobius_image(e, (a * jet(0) + b) / (c * jet(0) + d), n)


@cache
def _generic_map() -> Expr:
    """The unimodular map over the reserved parameters, built once."""
    a, b, c = param("a"), param("b"), param("c")
    return (a * jet(0) + b) / (c * jet(0) + (1 + b * c) / a)


def sl2_finite_check(e: Expr) -> bool:
    """True iff e is exactly reproduced by a symbolic unimodular Mobius map.

    Decided by cross-multiplying the unreduced image num / (den * U^j)
    with e, as the module docstring describes.
    """
    _check_reserved(e)
    n = e.jet_order()
    if n is None:
        return True
    w = _generic_map()
    num, den, j = _mobius_parts(e, w, n)
    return num.mul(e.den) == e.num.mul(den).mul(w.den.pow(j))
