"""Infinitesimal and finite Mobius invariance checks."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from jetvar import (
    Expr,
    Jet,
    Param,
    ReservedParameter,
    TIME,
    UnsupportedAtom,
    mobius_substitute,
    pre_schwarzian,
    schippers,
    sigma,
    sl2_finite_check,
    sl2_residues,
    total_derivative,
)

from jetvar.sl2 import _jets_of

from conftest import rand_log_expr, rand_poly

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
A = Expr.atom(Param("a"))
B = Expr.atom(Param("b"))
C = Expr.atom(Param("c"))
A1 = Expr.atom(Param("a1"))
T = Expr.atom(TIME)


def test_sigma_family_is_invariant():
    for n in range(3, 7):
        rep = sl2_residues(sigma(n))
        assert rep.residue_translation.is_zero
        assert rep.residue_scaling.is_zero
        assert rep.residue_special.is_zero
        assert rep.invariant


def test_pre_schwarzian_fails_special_conformal():
    rep = sl2_residues(pre_schwarzian())
    assert rep.residue_translation.is_zero
    assert rep.residue_scaling.is_zero
    assert rep.residue_special == 2 * Q1
    assert not rep.invariant


def test_schippers_residues_vanish_only_at_base_order():
    assert sl2_residues(schippers(3)).invariant
    for n in range(4, 7):
        assert not sl2_residues(schippers(n)).invariant


def test_finite_agrees_with_infinitesimal_on_corpus():
    corpus = [sigma(n) for n in range(3, 7)]
    corpus += [schippers(n) for n in range(3, 7)]
    corpus += [pre_schwarzian(), Q1 ** 2, Q2 / Q1]
    for e in corpus:
        assert sl2_finite_check(e) == sl2_residues(e).invariant


def test_mobius_substitute_base_point():
    # identity transformation: a=d=1, b=c=0
    e = sigma(3)
    assert mobius_substitute(e, 1, 0, 0, 1) == e


def test_mobius_substitute_concrete():
    # q -> 1/q is (a,b,c,d) = (0,1,1,0) up to the determinant sign; use
    # instead q -> (q+1)/q with a=1,b=1,c=1,d... det = a*d-b*c = 1 forces
    # d via the group constraint, d = (1+b*c)/a = 2
    w = mobius_substitute(Q0, 1, 1, 1, 2)
    assert w == (Q0 + 1) / (Q0 + 2)


def test_mobius_image_of_first_jet():
    # D_t((a*q+b)/(c*q+d)) with unit determinant is q1/(c*q+d)^2
    d = (1 + B * C) / A
    w1 = mobius_substitute(Q1, A, B, C, d)
    expect = Q1 / (C * Q0 + d) ** 2
    assert w1 == expect
    # higher jets: the Mobius recurrence against D_t^k of the map itself
    w = (A * Q0 + B) / (C * Q0 + d)
    for k in (4, 5, 6):
        assert mobius_substitute(Expr.atom(Jet(k)), A, B, C, d) == total_derivative(w, k)


def test_symbolic_determinant_elimination():
    # passing the symbol d triggers elimination d = (1+b*c)/a
    d = Expr.atom(Param("d"))
    lhs = mobius_substitute(sigma(3), A, B, C, d)
    assert lhs == sigma(3)


def test_group_composition_is_contravariant():
    e = Q2 / Q1
    rng = random.Random(3)

    def rand_mobius():
        while True:
            a = Fraction(rng.randint(-4, 4))
            if a != 0:
                break
        b = Fraction(rng.randint(-4, 4))
        c = Fraction(rng.randint(-4, 4))
        d = (1 + b * c) / a
        return a, b, c, d

    def compose(m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)

    for _ in range(5):
        m1 = rand_mobius()
        m2 = rand_mobius()
        once = mobius_substitute(mobius_substitute(e, *m2), *m1)
        prod = compose(m2, m1)
        assert once == mobius_substitute(e, *prod)


def test_reserved_parameter_rejected():
    for bad in (A, B, C, Expr.atom(Param("d"))):
        with pytest.raises(ReservedParameter):
            sl2_residues(bad * Q1)
        with pytest.raises(ReservedParameter):
            sl2_finite_check(bad * Q1)


def test_free_parameters_ride_along():
    a1 = Expr.atom(Param("a1"))
    assert sl2_finite_check(a1 * sigma(3))
    rep = sl2_residues(a1 * sigma(3))
    assert rep.invariant


def test_mobius_rejects_jet_coefficients():
    with pytest.raises(UnsupportedAtom):
        mobius_substitute(Q0, Q1, 0, 0, 1)


def test_invariance_of_random_functions_of_sigma():
    rng = random.Random(17)
    for _ in range(5):
        c0 = Fraction(rng.randint(1, 9))
        e = c0 * sigma(3) ** 2 + sigma(4)
        assert sl2_finite_check(e)
        assert sl2_residues(e).invariant
    # but mixing in the pre-schwarzian breaks both routes
    e = sigma(3) + pre_schwarzian()
    assert not sl2_finite_check(e)
    assert not sl2_residues(e).invariant


def test_non_invariant_polynomial():
    rng = random.Random(29)
    for _ in range(5):
        e = rand_poly(rng, jets_max=2, allow_t=False, max_terms=2)
        assert sl2_finite_check(e) == sl2_residues(e).invariant


def test_generic_route_at_jet_order_four():
    # logs at jet order 4 take the same Mobius recurrence as everything
    # else; on a separate route their gcds once ran for minutes
    e = sigma(4) + Expr.log(Q1)
    assert not sl2_finite_check(e)  # log(q') picks up -2*log(c*q + d)
    assert not sl2_residues(e).invariant
    e = sigma(4) + Expr.log(sigma(3))
    assert sl2_finite_check(e)
    assert sl2_residues(e).invariant


MAPS = {
    "unimodular": (A, B, C, (1 + B * C) / A),
    "degenerate": (A, B, 0, 1 + A1),  # c = 0: U is free of q
    "content": (1, 1, 2, 4),  # (q + 1)/(2*q + 4): U has integer content 2
    "log-parameter": (Expr.log(A1), B, C, 1 + A1),
    "time-parameter": (1 + T, T, 0, 1),
}


@pytest.mark.parametrize("name", MAPS)
def test_recurrence_matches_term_by_term_substitution(name):
    a, b, c, d = MAPS[name]
    w = (a * Q0 + b) / (c * Q0 + d)
    rng = random.Random(41)
    for _ in range(4):
        e = rand_log_expr(rng)
        mapping = {Jet(k): total_derivative(w, k)
                   for k in range(e.jet_order() + 1)}
        assert mobius_substitute(e, a, b, c, d) == e.substitute_many(mapping)


def test_log_in_t_parameter_rejected():
    # the recurrence holds a log in a parameter fixed under D_t
    for bad in (Expr.log(T), Expr.log(A1 + Expr.log(T + 1))):
        with pytest.raises(UnsupportedAtom):
            mobius_substitute(Q1, 1, bad, 0, 1)


def test_finite_verdict_matches_the_canonical_image():
    # the finite check cross-multiplies the unreduced image with e; the
    # canonical route reduces the image and compares it with e
    d = Expr.atom(Param("d"))
    corpus = [sigma(n) for n in range(3, 7)]
    corpus += [schippers(n) for n in range(4, 7)] + [pre_schwarzian()]
    corpus += [sigma(4) + Expr.log(Q1), sigma(4) + Expr.log(sigma(3))]
    corpus += [A1 * sigma(3), A1 * pre_schwarzian(), sigma(3) + A1]
    corpus += [T ** 2 + A1, Expr.log(T + 1)]  # jet-free
    rng = random.Random(53)
    corpus += [rand_poly(rng, jets_max=2, max_terms=2) for _ in range(6)]
    corpus += [rand_log_expr(rng, 1) for _ in range(6)]
    verdicts = []
    for e in corpus:
        verdict = sl2_finite_check(e)
        assert verdict == (mobius_substitute(e, A, B, C, d) == e)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_jet_table_cache_keeps_results():
    # each map at a high jet order, a low one and a higher one again: the
    # table of numerators grows past what it holds, and with more maps
    # than the cache keeps, tables are dropped and rebuilt
    maps = list(MAPS.values()) + [(1, k, 1, k + 1) for k in range(1, 6)]
    assert len(maps) > _jets_of.cache_info().maxsize
    _jets_of.cache_clear()
    jets = {}

    def check(i, k):
        a, b, c, d = maps[i]
        if i not in jets:
            jets[i] = [(a * Q0 + b) / (c * Q0 + d)]
        while len(jets[i]) <= k:
            jets[i].append(total_derivative(jets[i][-1]))
        qk = Expr.atom(Jet(k))
        e = qk * Q0 / (Q1 + 2) + Expr.log(qk + Q0)
        mapping = {Jet(j): jets[i][j] for j in range(k + 1)}
        assert mobius_substitute(e, a, b, c, d) == e.substitute_many(mapping)

    for k in (4, 1, 6):
        for i in range(4):
            check(i, k)
    for k in (5, 1, 7):
        for i in range(len(maps)):
            check(i, k)


def test_jet_table_grows_correctly_under_threads():
    # threads share one map's table of numerators and extend it at once
    a, b, c, d = MAPS["unimodular"]
    w = (a * Q0 + b) / (c * Q0 + d)
    ref = [w]
    for _ in range(8):
        ref.append(total_derivative(ref[-1]))
    orders = (8, 3, 6, 1, 5, 2, 7, 4)
    barrier = threading.Barrier(len(orders), timeout=60)
    failures = []

    def work(k):
        barrier.wait()
        try:
            if mobius_substitute(Expr.atom(Jet(k)), a, b, c, d) != ref[k]:
                failures.append(k)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _jets_of.cache_clear()
            mobius_substitute(Q0, a, b, c, d)  # one table for all threads
            threads = [threading.Thread(target=work, args=(k,)) for k in orders]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
