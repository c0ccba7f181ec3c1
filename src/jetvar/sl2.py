"""SL(2,R) invariance checks for jet expressions.

Two independent routes decide whether an expression is unchanged by the
Mobius action q -> (a*q + b)/(c*q + d) with a*d - b*c = 1:

  * infinitesimal: the residues of the three generating vector fields with
    characteristics 1, q0, q0^2 all vanish;
  * finite: substituting the prolonged Mobius image of q0 with symbolic
    unimodular parameters reproduces the expression exactly.

The parameter names a, b, c, d are reserved for the group action and are
rejected inside the expression under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atoms import Jet, LogAtom, Param
from .errors import ReservedParameter, UnsupportedAtom
from .expr import Expr, _content_and_sign, const, jet, param, substitute_many
from .jets import _dt_poly, total_derivative
from .poly import P_ONE, Polynomial, exact_div, mono_gcd, poly_gcd

RESERVED_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class InvarianceReport:
    """Residues of the three sl(2) generators and the combined verdict."""

    residue_translation: Expr
    residue_scaling: Expr
    residue_special: Expr
    invariant: bool


def _check_reserved(e: Expr) -> None:
    for atom in e.all_atoms():
        if isinstance(atom, Param) and atom.name in RESERVED_NAMES:
            raise ReservedParameter(
                f"parameter name {atom.name!r} is reserved for the group action")


def sl2_residues(e: Expr) -> InvarianceReport:
    """Prolongation residues for the characteristics 1, q0, q0^2."""
    from .jets import prolong

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


def _single_param(e: Expr):
    """The Param atom when e is exactly one bare parameter, else None."""
    if not e.den.is_const or e.den.const_value() != 1:
        return None
    if len(e.num.terms) != 1:
        return None
    mono, coeff = e.num.terms[0]
    if coeff != 1 or len(mono) != 1:
        return None
    atom, exp = mono[0]
    if exp == 1 and isinstance(atom, Param):
        return atom
    return None


def _mobius_image(e: Expr, w: Expr, n: int) -> Expr:
    """Image of e under Jet(k) -> D_t^k(w), assembled without generic gcds.

    Every prolonged jet is N_k / U^(k+1) where U is w's denominator and the
    numerators follow the polynomial recurrence
    N_{k+1} = D_t(N_k)*U - (k+1)*N_k*D_t(U).  The image is built as one big
    fraction over a power of U and reduced by exact division by U alone,
    which sidesteps the multivariate gcd entirely on this shape.
    """
    U = w.den
    DU = _dt_poly(U)
    nums = [w.num]
    for k in range(n):
        nk = nums[-1]
        nums.append(_dt_poly(nk).mul(U).sub(nk.mul(DU).scale(k + 1)))

    upows = [Polynomial.const(1)]

    def upow(j: int) -> Polynomial:
        while len(upows) <= j:
            upows.append(upows[-1].mul(U))
        return upows[j]

    def image_poly(p: Polynomial):
        """p with jets replaced, as (polynomial, j) meaning poly / U^j."""
        parts = []
        top = 0
        for mono, coeff in p.terms:
            poly = Polynomial.const(coeff)
            j = 0
            for atom, ex in mono:
                if isinstance(atom, Jet):
                    poly = poly.mul(nums[atom.order].pow(ex))
                    j += (atom.order + 1) * ex
                else:
                    poly = poly.mul(Polynomial.atom(atom).pow(ex))
            parts.append((poly, j))
            top = max(top, j)
        out = Polynomial.from_dict({})
        for poly, j in parts:
            out = out.add(poly.mul(upow(top - j)))
        return out, top

    pn, jn = image_poly(e.num)
    pd, jd = image_poly(e.den)
    if jd >= jn:
        num, den_poly, uexp = pn.mul(upow(jd - jn)), pd, 0
    else:
        num, den_poly, uexp = pn, pd, jn - jd

    if U.degree_in(Jet(0)) != 1:
        # degenerate map (jet-free denominator); no special structure to
        # exploit, fall back to a full reduction
        return Expr(num, den_poly.mul(upow(uexp)))

    # U is linear in q0; its primitive part is irreducible, so trial
    # division by it plus a gcd against the U-free denominator factor gives
    # the fully reduced fraction without a big multivariate gcd.  The
    # content takes U's integer content too, so that ubase is primitive and
    # an integral quotient exists whenever ubase divides at all.
    c0, c1 = U.as_univariate(Jet(0))
    cont = poly_gcd(c0, c1).scale(U.coeff_content())
    ubase = exact_div(U, cont)
    if cont != P_ONE:
        den_poly = den_poly.mul(cont.pow(uexp))

    g = mono_gcd(num.mono_content(), den_poly.mono_content())
    if g:
        num, den_poly = num.div_mono(g), den_poly.div_mono(g)
    residual = uexp
    while residual > 0:
        try:
            num = exact_div(num, ubase)
        except ValueError:
            break
        residual -= 1
    g = poly_gcd(num, den_poly)
    if not g.is_const:
        num, den_poly = exact_div(num, g), exact_div(den_poly, g)
    den = den_poly.mul(ubase.pow(residual)) if residual else den_poly
    if den.is_zero:
        from .errors import DivisionByZero

        raise DivisionByZero("Mobius image denominator vanished")
    if num.is_zero:
        return const(0)
    return Expr(*_content_and_sign(num, den), _reduced=True)


def _has_log(e: Expr) -> bool:
    return any(isinstance(a, LogAtom) for a in e.all_atoms())


def mobius_substitute(e: Expr, a, b, c, d) -> Expr:
    """Replace every jet of q by the corresponding jet of (a*q + b)/(c*q + d).

    The parameters must be jet-free.  When d is given as a bare symbolic
    parameter it is eliminated through the unimodular constraint
    d = (1 + b*c)/a, so the result is expressed over a, b, c only.
    """
    a, b, c, d = (Expr._coerce(v) for v in (a, b, c, d))
    for v in (a, b, c, d):
        if v is NotImplemented or not isinstance(v, Expr):
            raise UnsupportedAtom("Mobius parameters must be expressions")
        if v.jet_order() is not None:
            raise UnsupportedAtom("Mobius parameters must be jet-free")
    if _single_param(d) is not None:
        d = (1 + b * c) / a
    w = (a * jet(0) + b) / (c * jet(0) + d)
    n = e.jet_order()
    if n is None:
        return e
    if _has_log(e) or any(_has_log(v) for v in (a, b, c, d)):
        # general but slower route that recurses into log arguments
        mapping = {Jet(0): w}
        wk = w
        for k in range(1, n + 1):
            wk = total_derivative(wk)
            mapping[Jet(k)] = wk
        return substitute_many(e, mapping)
    return _mobius_image(e, w, n)


def sl2_finite_check(e: Expr) -> bool:
    """True iff e is exactly reproduced by a symbolic unimodular Mobius map.

    Both sides are canonical, so the difference normalizes to zero exactly
    when the canonical forms coincide structurally.
    """
    _check_reserved(e)
    image = mobius_substitute(e, param("a"), param("b"), param("c"), param("d"))
    return image == e
