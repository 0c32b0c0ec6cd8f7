import random
import time
from fractions import Fraction

from ietlab.polynomials import (
    IntPoly,
    count_roots,
    factor,
    is_irreducible,
    poly_gcd,
    root_bound,
    squarefree_part,
    sturm_chain,
)


def P(*cs):
    return IntPoly(cs)


def test_construction_strips_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).coeffs == ()
    assert not P()
    assert P(3).degree == 0
    assert P().degree == -1


def test_arithmetic_ring_identities():
    a, b, c = P(1, 2, 3), P(-4, 5), P(7)
    assert a + b - b == a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b).degree == a.degree + b.degree


def test_evaluation_horner():
    p = P(-1, 0, 2)  # 2x^2 - 1
    assert p(3) == 17
    assert p(Fraction(1, 2)) == Fraction(-1, 2)


def test_homogenized_sign_matches_fraction_value():
    # 2^(k deg) p(m / 2^k) is an integer with the sign of the exact value
    rng = random.Random(5)
    for p in (P(1, -3, 0, 1), P(1, -7, 13, -7, 1), P(-24, -46, -11, -13, 3), P(5)):
        for _ in range(200):
            k = rng.randint(0, 70)
            m = rng.randint(-(4 << k), 4 << k)
            v = p.homogenized(m, 1 << k)
            exact = p(Fraction(m, 1 << k))
            assert v == exact * 2 ** (k * p.degree)
            assert (v > 0) - (v < 0) == (exact > 0) - (exact < 0)


def test_derivative():
    assert P(5, 3, 0, 2).derivative() == P(3, 0, 6)
    assert P(7).derivative() == P()


def test_content_and_primitive():
    p = P(-6, -9, -3)
    assert p.content() == -3
    assert p.primitive_part() == P(2, 3, 1)
    assert p.primitive_part().lc > 0


def test_poly_gcd():
    a = P(-1, 0, 1)  # (x-1)(x+1)
    b = P(1, 2, 1)  # (x+1)^2
    assert poly_gcd(a, b) == P(1, 1)
    assert poly_gcd(a, P(2, 0, -2)) == P(-1, 0, 1)  # positive lc convention
    assert poly_gcd(P(1, 1), P(1, 0, 1)).degree == 0


def test_squarefree_part():
    p = P(1, 1) * P(1, 1) * P(-2, 1)
    sf = squarefree_part(p)
    assert sf == P(1, 1) * P(-2, 1) or sf == -(P(1, 1) * P(-2, 1))


def test_sturm_root_counting():
    p = P(-1, -2, 0, 1)  # x^3 - 2x - 1 = (x+1)(x^2-x-1)
    chain = sturm_chain(p)
    b = root_bound(p)
    assert count_roots(p, -b, b, chain) == 3
    assert count_roots(p, Fraction(0), b, chain) == 1
    assert count_roots(p, -b, Fraction(0), chain) == 2


def test_sturm_counts_distinct_roots_of_multiple():
    p = P(0, 0, 1) * P(-1, 1)  # x^2 (x-1)
    b = root_bound(p)
    assert count_roots(p, -b, b) == 2


def test_root_bound_contains_roots():
    p = P(-6, 11, -6, 1)  # roots 1, 2, 3
    b = root_bound(p)
    assert b > 3


def linear_roots(p):
    """The roots of the linear factors that `factor` finds, sorted."""
    return sorted(Fraction(-q.coeffs[0], q.coeffs[1]) for q, _ in factor(p)[1] if q.degree == 1)


def test_rational_roots():
    p = P(2, -1) * P(1, 3) * P(1, 0, 1)  # roots 2, -1/3
    assert linear_roots(p) == [Fraction(-1, 3), Fraction(2)]
    assert linear_roots(P(0, 0, 1)) == [Fraction(0)]
    assert linear_roots(P(1, 0, 1)) == []
    assert linear_roots(P(-6, 1) * P(5, 12) * P(1, 0, 1)) == [Fraction(-5, 12), Fraction(6)]


def test_factor_reassembles_and_finds_pieces():
    p = 6 * P(1, 1) * P(1, 1) * P(-1, 0, 1, 1)
    content, pieces = factor(p)
    assert content == 6
    assert dict(pieces) == {P(1, 1): 2, P(-1, 0, 1, 1): 1}


def test_factor_quartic_into_quadratics():
    # (x^2+1)(x^2-2) has no rational roots
    p = P(1, 0, 1) * P(-2, 0, 1)
    _, pieces = factor(p)
    assert sorted(q.coeffs for q, _ in pieces) == [(-2, 0, 1), (1, 0, 1)]
    # the e2* palindrome splits into two cubics
    _, pieces = factor(P(1, -16, 76, -138, 76, -16, 1))
    assert sorted(q.coeffs for q, _ in pieces) == [(-1, 6, -10, 1), (-1, 10, -6, 1)]
    # non-monic; the degree-2 search meets (x - 2)^2, which vanishes at the spare point 2
    _, pieces = factor(P(-24, -46, -11, -13, 3))
    assert sorted(q.coeffs for q, _ in pieces) == [(-3, -5, 1), (8, 2, 3)]


def test_factor_power_of_x():
    content, pieces = factor(P(0, 0, 0, 4))
    assert content == 4
    assert dict(pieces) == {P(0, 1): 3}


def test_is_irreducible():
    assert is_irreducible(P(-1, -1, 1))  # x^2 - x - 1
    assert not is_irreducible(P(-1, 3, -3, 1))  # (x-1)^3 is not squarefree
    assert is_irreducible(P(1, -3, 0, 1))  # x^3 - 3x + 1 (no rational roots)
    assert not is_irreducible(P(1, 0, 2, 0, 1))  # (x^2+1)^2
    assert not is_irreducible(P(-2, 0, 1, 0, 1))  # hmm: x^4 + x^2 - 2 = (x^2-1)(x^2+2)
    assert is_irreducible(P(-1, 8, -6, 1))  # census-style cubic
    assert is_irreducible(P(1, -1, -6, -1, 1))  # self-reciprocal quartic
    assert not is_irreducible(P(4))
    assert is_irreducible(P(3, 2))
    assert is_irreducible(P(1, -7199, 276121, -7199, 1))
    assert not is_irreducible(P(1, -16, 76, -138, 76, -16, 1))  # e2* palindrome
    assert not is_irreducible(P(-24, -46, -11, -13, 3))


def test_is_irreducible_quartic_with_quadratic_split():
    p = P(-1, -1, 1) * P(-1, 1, 1)
    assert not is_irreducible(p)


def test_factor_degree_limit():
    # no degree limit: cyclotomic splits of degree 9 and 15
    assert factor(IntPoly([1] + [0] * 8 + [1])) == (1, [
        (P(1, 1), 1),
        (P(1, -1, 1), 1),
        (P(1, 0, 0, -1, 0, 0, 1), 1),
    ])
    assert factor(IntPoly([-1] + [0] * 14 + [1])) == (1, [
        (P(-1, 1), 1),
        (P(1, 1, 1), 1),
        (P(1, 1, 1, 1, 1), 1),
        (P(1, -1, 0, 1, -1, 1, 0, -1, 1), 1),
    ])
    assert not is_irreducible(IntPoly([1] + [0] * 8 + [1]))


def test_swinnerton_dyer_is_irreducible():
    # the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5 splits into linear
    # and quadratic factors mod every prime: every subset of up to half the
    # modular factors is a candidate that must fail
    sd = P(576, 0, -960, 0, 352, 0, -40, 0, 1)
    assert is_irreducible(sd)
    assert factor(sd) == (1, [(sd, 1)])
    assert not is_irreducible(sd * P(-2, 0, 1))


def test_degree_six_irreducibility_is_fast():
    # the compound charpoly that eigen_moduli_squared factors for the
    # quartic x^4 + 6x^3 + 2x^2 - 3x + 4
    t = time.perf_counter()
    assert is_irreducible(P(64, -32, -88, -137, -22, -2, 1))
    assert time.perf_counter() - t < 0.2
