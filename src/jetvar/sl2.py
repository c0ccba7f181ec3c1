"""SL(2,R) invariance checks for jet expressions.

Two independent routes decide whether an expression is unchanged by the
Mobius action q -> (a*q + b)/(c*q + d) with a*d - b*c = 1:

  * infinitesimal: the residues of the three generating vector fields with
    characteristics 1, q0, q0^2 all vanish;
  * finite: substituting the prolonged Mobius image of q0 with symbolic
    unimodular parameters reproduces the expression exactly.

The finite route maps every input, logs included, through one polynomial
recurrence for the jets of the map (see _mobius_image).

The parameter names a, b, c, d are reserved for the group action and are
rejected inside the expression under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .atoms import TIME, Jet, LogAtom, Param
from .errors import ReservedParameter, UnsupportedAtom
from .expr import Expr, const, jet, log, param
from .jets import _dt_poly
from .poly import P_ZERO, Polynomial, _content_in, exact_div

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


def _mobius_image(e: Expr, w: Expr, n: int) -> Expr:
    """Image of e under Jet(k) -> D_t^k(w), jets inside logs included.

    Jet k maps to N_k / U^(k+1), where U is w's denominator and the
    numerators follow the polynomial recurrence
    N_{k+1} = D_t(N_k)*U - (k+1)*N_k*D_t(U).  A log whose argument has jets
    maps to the log of its argument's image.  Each image is brought over one
    power of U, trial-divided by the part of U that contains q, and reduced
    by the ordinary Expr constructor.
    """
    U = w.den
    DU = _dt_poly(U)
    nums = [w.num]
    for k in range(n):
        nk = nums[-1]
        nums.append(_dt_poly(nk).mul(U).sub(nk.mul(DU).scale(k + 1)))
    # U = rest * ubase with rest the content of U in q, integer content
    # included; ubase is 1 when U is free of q
    rest = _content_in(U, Jet(0))
    rest = rest.scale(U.coeff_content())
    ubase = exact_div(U, rest)

    upow = cache(U.pow)

    @cache
    def image_atom(atom) -> Polynomial:
        """N_k for Jet(k); otherwise the atom's image, a polynomial."""
        if isinstance(atom, Jet):
            return nums[atom.order]
        if isinstance(atom, LogAtom) and atom.arg.jet_order() is not None:
            return log(image(atom.arg)).num
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

    def image(x: Expr) -> Expr:
        num, jn = image_poly(x.num)
        den, jd = image_poly(x.den)
        num = num.mul(upow(max(jd - jn, 0)))
        uexp = residual = max(jn - jd, 0)
        while residual and not ubase.is_const:
            try:
                num = exact_div(num, ubase)
            except ValueError:
                break
            residual -= 1
        return Expr(num, den.mul(rest.pow(uexp)).mul(ubase.pow(residual)))

    return image(e)


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


def sl2_finite_check(e: Expr) -> bool:
    """True iff e is exactly reproduced by a symbolic unimodular Mobius map.

    Both sides are canonical, so the difference normalizes to zero exactly
    when the canonical forms coincide structurally.
    """
    _check_reserved(e)
    image = mobius_substitute(e, param("a"), param("b"), param("c"), param("d"))
    return image == e
