"""The integer polynomial layer against sympy over the integers: `factor`,
`is_irreducible`, `real_roots` (and `isolate` on each factor), the linear factors of `factor` (the rational roots),
the pseudo-remainder routines (Sturm counts, gcd, squarefree part, exact division),
`resultant` and `charpoly`."""
import random
from fractions import Fraction

import pytest

from ietlab.algebraic import isolate, real_roots
from ietlab.matrices import charpoly
from ietlab.polynomials import (
    IntPoly,
    count_roots,
    divides,
    exact_quotient,
    factor,
    is_irreducible,
    poly_gcd,
    resultant,
    squarefree_part,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.subresultants_qq_zz import res_z  # noqa: E402

x = sympy.symbols("x")


def to_sympy(p: IntPoly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], x)


def from_sympy(q) -> IntPoly:
    return IntPoly(int(c) for c in reversed(q.all_coeffs()))


def normalized(q) -> IntPoly:
    """The primitive part with a positive leading coefficient."""
    return from_sympy(q).primitive_part()


def random_product(rng):
    """A product of one to four random factors of degree 1..4, total degree <= 15."""
    p, room = IntPoly((1,)), 15
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, min(4, room))
        p = p * IntPoly([rng.randint(-3, 3) for _ in range(d)] + [rng.choice((1, 2, 3, -1))])
        room -= d
        if room == 0:
            break
    return p


def test_factor_and_is_irreducible_match_sympy():
    rng = random.Random(20070508)
    for _ in range(200):
        p = random_product(rng)
        content, pieces = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
        expected = sorted((tuple(int(c) for c in reversed(q.all_coeffs())), e) for q, e in pieces)
        got_content, got = factor(p)
        assert (got_content, sorted((q.coeffs, e) for q, e in got)) == (int(content), expected), p
        assert is_irreducible(p) == (len(expected) == 1 and expected[0][1] == 1), p


def test_real_roots_match_sympy():
    rng = random.Random(20070509)
    for _ in range(100):
        p = random_product(rng)
        want = sympy.real_roots(sympy.Poly(list(reversed(p.coeffs)), x), multiple=False)
        got = real_roots(p)
        assert len(got) == len(want), p
        for r, (w, _) in zip(got, want):
            assert float(r) == pytest.approx(float(w), rel=1e-12, abs=1e-12), p


def test_isolate_matches_real_roots_on_each_irreducible_factor():
    rng = random.Random(20070509)  # the products of test_real_roots_match_sympy
    for _ in range(100):
        for q, _ in factor(random_product(rng))[1]:
            assert isolate(q) == real_roots(q), q


def test_count_roots_matches_sympy():
    rng = random.Random(20070510)
    for _ in range(100):
        p = random_product(rng)
        if p.degree < 1:
            continue
        ends = []
        while len(ends) < 6:
            k = rng.randint(0, 12)
            dyadic = Fraction(rng.randint(-(5 << k), 5 << k), 1 << k)
            other = Fraction(rng.randint(-500, 500), rng.choice((3, 7, 10, 99)))
            ends += [e for e in (dyadic, other) if p(e) != 0]
        ends.sort()
        for lo, hi in zip(ends, ends[1:]):
            want = to_sympy(p).count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                           sympy.Rational(hi.numerator, hi.denominator))
            assert count_roots(p, lo, hi) == want, (p, lo, hi)


def test_gcd_and_squarefree_part_match_sympy():
    rng = random.Random(20070511)
    for _ in range(100):
        common = random_product(rng)
        a = common * random_product(rng)
        b = common * random_product(rng)
        assert poly_gcd(a, b) == normalized(to_sympy(a).gcd(to_sympy(b))), (a, b)
        assert squarefree_part(a) == normalized(to_sympy(a).sqf_part()), a


def test_divides_and_exact_quotient_match_sympy():
    rng = random.Random(20070512)
    for _ in range(150):
        b = random_product(rng) * rng.choice((1, 2, -3))
        a = b * random_product(rng) if rng.random() < 0.5 else random_product(rng)
        q, r = sympy.div(to_sympy(a), to_sympy(b), domain=sympy.QQ)
        assert divides(b, a) == r.is_zero, (a, b)
        if r.is_zero:
            den = sympy.ilcm(*[c.q for c in q.all_coeffs()])
            assert exact_quotient(a, b) == normalized((q * den).set_domain(sympy.ZZ)), (a, b)
        else:
            with pytest.raises(ValueError):
                exact_quotient(a, b)


def test_resultant_and_charpoly_match_sympy():
    rng = random.Random(20070513)
    for _ in range(60):
        p, q = random_product(rng), random_product(rng)
        if p.degree < 1 or q.degree < 1:
            continue
        # sympy.resultant (1.14) returns Res(q, p) for some pairs, e.g.
        # (3x^3 - 3x^2 - 2x - 1, -3x^7 + ... + 27x); res_z runs the
        # subresultant PRS over Z
        want = res_z(to_sympy(p).as_expr(), to_sympy(q).as_expr(), x)
        assert resultant(p, q) == int(want), (p, q)
    for _ in range(60):
        n = rng.randint(1, 6)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        want = [int(c) for c in reversed(sympy.Matrix(M).charpoly(x).all_coeffs())]
        assert charpoly(M).coeffs == tuple(want), M


def test_rational_roots_match_sympy():
    rng = random.Random(29)
    for _ in range(60):
        # products of linear factors b x - a and a random cofactor
        p = IntPoly((rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            p = p * IntPoly((-rng.randint(-12, 12), rng.randint(1, 12)))
        if not p:
            continue
        roots = sympy.Poly(list(reversed(p.coeffs)), x).ground_roots()
        want = sorted(Fraction(int(r.p), int(r.q)) for r in roots if r.is_Rational)
        got = sorted(Fraction(-q.coeffs[0], q.coeffs[1]) for q, _ in factor(p)[1] if q.degree == 1)
        assert got == want, p
