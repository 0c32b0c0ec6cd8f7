import math
import random
from fractions import Fraction

import pytest

from ietlab.algebraic import real_roots, root_in
from ietlab.builders import e2star_model
from ietlab.matrices import mat_vec
from ietlab.numberfield import (
    NumberField,
    mult_matrix,
    perron_pair,
    spectral_radius,
)
from ietlab.polynomials import IntPoly


def golden_field():
    phi = root_in(IntPoly((-1, -1, 1)), 1, 2)
    return NumberField(phi)


def quartic_field():
    # smallest root of the validated loop-matrix charpoly
    rho = root_in(IntPoly((1, -7, 13, -7, 1)), Fraction(1, 5), Fraction(1, 4))
    return NumberField(rho)


def test_field_basics():
    K = golden_field()
    assert K.n == 2
    phi = K.generator_element()
    assert phi * phi == phi + 1  # phi^2 = phi + 1
    assert float(phi) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_arithmetic_field_axioms_randomized():
    K = quartic_field()
    rng = random.Random(5)

    def rand_elt():
        return K.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])

    for _ in range(15):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == K.zero
        assert a * K.one == a
        if b:
            assert (a / b) * b == a
            assert b * b.inverse() == K.one


def test_rho_is_a_unit():
    K = quartic_field()
    rho = K.generator_element()
    inv = rho.inverse()
    # 1/rho has integral power coordinates iff rho is a unit
    assert all(c.denominator == 1 for c in inv.power_coords)
    assert rho * inv == K.one


def test_sign_and_comparisons():
    K = quartic_field()
    rho = K.generator_element()
    assert rho.sign() == 1
    assert (-rho).sign() == -1
    assert K.zero.sign() == 0
    assert rho < 1
    assert rho > Fraction(22, 100)
    assert rho < Fraction(23, 100)
    assert rho * rho < rho  # rho < 1
    assert rho == rho and (rho - rho).sign() == 0
    assert rho < Fraction(1, 2) and (rho - Fraction(1, 2)).sign() == -1
    assert Fraction(1, 2) > rho and (Fraction(1, 2) - rho).sign() == 1


def test_compare_total_order_randomized():
    K = golden_field()
    rng = random.Random(9)
    elts = [
        K.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)])
        for _ in range(12)
    ]
    for a in elts:
        for b in elts:
            sab = (a - b).sign()
            assert sab == -(b - a).sign()
            assert (a < b, a == b, a > b) == (sab < 0, sab == 0, sab > 0)
            assert (sab == 0) == ((a - b).coords == (Fraction(0), Fraction(0)))
            for c in elts:
                if a >= b and b >= c:
                    assert a >= c


def test_float_accuracy():
    K = quartic_field()
    rho = K.generator_element()
    x = rho ** 3 - 2 * rho + Fraction(1, 7)
    r = 0.22777710423438124
    assert float(x) == pytest.approx(r ** 3 - 2 * r + 1 / 7, abs=1e-12)


def test_min_poly():
    K = golden_field()
    phi = K.generator_element()
    assert phi.min_poly() == IntPoly((-1, -1, 1))
    assert K.from_rational(Fraction(1, 2)).min_poly() == IntPoly((-1, 2))
    # phi^2 generates the same field: minpoly x^2 - 3x + 1
    assert (phi * phi).min_poly() == IntPoly((1, -3, 1))
    Kq = quartic_field()
    rho = Kq.generator_element()
    assert rho.min_poly() == IntPoly((1, -7, 13, -7, 1))
    assert (rho * rho).min_poly().degree == 4


def test_min_poly_of_reciprocal():
    Kq = quartic_field()
    beta = Kq.generator_element().inverse()
    assert beta.min_poly() == IntPoly((1, -7, 13, -7, 1))  # self-reciprocal here
    K3 = NumberField(real_roots(IntPoly((-1, 6, -10, 1)))[-1])
    beta3 = K3.generator_element()
    # reciprocal minpoly, normalized with positive leading coefficient
    assert beta3.inverse().min_poly() == IntPoly((-1, 10, -6, 1))


def test_module_basis_views():
    # Z[lam]/2-style basis: coords double, values agree
    K = golden_field()
    phi = K.generator_element()
    half = [K.one / 2, phi / 2]
    Kh = K.with_basis(half)
    x = Kh.element([3, 4])  # 3/2 + 2 phi
    assert x == K.element([Fraction(3, 2), 2])
    assert Kh.from_rational(1).coords == (Fraction(2), Fraction(0))
    back = K.with_basis([Kh.basis[0] * 2, Kh.basis[1] * 2])
    assert back.element([1, 1]) == K.element([1, 1])


def test_mult_matrix_companion():
    K = quartic_field()
    rho = K.generator_element()
    R = mult_matrix(rho)
    # companion matrix of the minpoly in the power basis
    assert [R[i][0] for i in range(4)] == [0, 1, 0, 0]
    assert abs(_det4(R)) == 1
    # action agrees with multiplication on random elements
    rng = random.Random(2)
    for _ in range(10):
        z = [rng.randint(-5, 5) for _ in range(4)]
        x = K.element(z)
        assert list((rho * x).coords) == [Fraction(c) for c in mat_vec(R, z)]


def _det4(M):
    from ietlab.matrices import det

    return det(M)


def test_mult_matrix_rejects_non_stabilizing():
    K = golden_field()
    phi = K.generator_element()
    with pytest.raises(ValueError):
        mult_matrix(phi / 2)


def test_spectral_radius():
    assert spectral_radius([[2, 0], [0, 3]]) == 3
    M = [[1, 1], [1, 0]]
    assert float(spectral_radius(M)) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_perron_pair_simple():
    beta, v = perron_pair([[2]])
    assert beta == 2
    assert v[0].as_fraction() == 1


def test_perron_pair_fibonacci():
    beta, v = perron_pair([[1, 1], [1, 0]])
    assert float(beta) == pytest.approx((1 + math.sqrt(5)) / 2)
    s = v[0] + v[1]
    assert s == v[0].field.one
    assert v[0].sign() > 0 and v[1].sign() > 0


def test_perron_pair_validated_loop_matrix():
    M = [[1, 1, 1, 1], [0, 2, 1, 0], [1, 2, 2, 1], [1, 1, 1, 2]]
    beta, v = perron_pair(M)
    assert float(beta) == pytest.approx(1 / 0.22777710423438124, rel=1e-12)
    vals = [float(x) for x in v]
    assert sum(vals) == pytest.approx(1)
    assert all(x > 0 for x in vals)


def test_perron_pair_rejects_non_primitive():
    with pytest.raises(ValueError):
        perron_pair([[0, 1], [1, 0]])


def test_element_hash_consistency():
    K = golden_field()
    phi = K.generator_element()
    Kh = K.with_basis([K.one / 2, phi / 2])
    a = K.element([Fraction(1, 2), 1])
    b = Kh.element([1, 2])
    assert a == b
    assert hash(a) == hash(b)


def test_to_real_algebraic_round_trip():
    from ietlab.numberfield import to_real_algebraic

    K = golden_field()
    phi = K.generator_element()
    r = to_real_algebraic(phi * phi)
    assert r.poly == IntPoly((1, -3, 1))
    assert float(r) == pytest.approx((3 + math.sqrt(5)) / 2)
    half = to_real_algebraic(K.from_rational(Fraction(-3, 4)))
    assert half.is_rational and half.as_fraction() == Fraction(-3, 4)


@pytest.mark.parametrize("make", [golden_field, quartic_field, lambda: e2star_model().field])
def test_sign_table_encloses_generator_powers(make):
    # |2^P theta^k - m_k| <= r, against an independent copy of the
    # generator; tables below 300 bits round a 300-bit interval
    K = make()
    enc = K._enc
    oracle = root_in(K.minpoly, K.generator.lo, K.generator.hi)
    K.generator.refine_to(Fraction(1, 2**300))
    for _ in range(4):
        enc.refine()
        scale = 2**enc.bits
        oracle.refine_to(Fraction(1, scale << 100))
        lo, hi = oracle.lo, oracle.hi  # both generators are positive
        for k, m in enumerate(enc.mids):
            assert m - enc.rad <= scale * lo**k and scale * hi**k <= m + enc.rad


def test_eigen_moduli_all_real():
    from ietlab.numberfield import eigen_moduli_squared

    # loop-matrix charpoly: four real roots, squares sorted descending
    mods = eigen_moduli_squared(IntPoly((1, -7, 13, -7, 1)))
    assert [m for _, m in mods] == [1, 1, 1, 1]
    floats = [math.sqrt(float(u)) for u, _ in mods]
    assert floats[0] == pytest.approx(1 / 0.22777710423438124, rel=1e-9)
    assert floats == sorted(floats, reverse=True)


def test_eigen_moduli_complex_pair_identity():
    from ietlab.numberfield import eigen_moduli_squared, to_real_algebraic

    # x^3 - 6x^2 + 10x - 1: one small real root, complex pair with
    # |z|^2 = 1/r, which is the largest root of the reciprocal cubic
    p = IntPoly((-1, 10, -6, 1))
    mods = eigen_moduli_squared(p)
    assert [(round(math.sqrt(float(u)), 4), m) for u, m in mods] == [
        (3.0612, 2),
        (0.1067, 1),
    ]
    beta = max(real_roots(IntPoly((-1, 6, -10, 1))), key=float)
    assert mods[0][0] == beta  # pair modulus squared equals the reciprocal root


def test_spectral_radius_squared_companion():
    from ietlab.matrices import charpoly
    from ietlab.numberfield import eigen_moduli_squared

    u = eigen_moduli_squared(charpoly([[1, 1], [1, 0]]))[0][0]
    assert u.poly == IntPoly((1, -3, 1))
    assert float(u) == pytest.approx(((1 + math.sqrt(5)) / 2) ** 2)


@pytest.mark.parametrize("coeffs", [(1, -7, 11, -7, 1), (1, -8, 12, -8, 1)])
def test_eigen_moduli_salem_census_charpolys(coeffs):
    from ietlab.numberfield import eigen_moduli_squared, to_real_algebraic

    # Salem-type (4321) loops: real roots beta and 1/beta, a pair on the circle
    p = IntPoly(coeffs)
    mods = eigen_moduli_squared(p)
    b = NumberField(real_roots(p)[-1]).generator_element()
    assert [m for _, m in mods] == [1, 2, 1]
    assert mods[0][0] == to_real_algebraic(b**2)
    assert mods[1][0] == 1 and mods[1][0].poly == IntPoly((-1, 1))
    assert mods[2][0] == to_real_algebraic(b**-2)


def test_eigen_moduli_repeated_factor_and_two_pairs():
    from ietlab.numberfield import eigen_moduli_squared

    q = IntPoly((-1, 10, -6, 1))
    assert [m for _, m in eigen_moduli_squared(q * q)] == [4, 2]
    assert [u for u, _ in eigen_moduli_squared(q * q)] == [u for u, _ in eigen_moduli_squared(q)]
    with pytest.raises(NotImplementedError):
        eigen_moduli_squared(IntPoly((1, 0, 0, 0, 1)))  # x^4 + 1: two pairs


def test_eigen_moduli_non_monic_pair():
    from ietlab.numberfield import eigen_moduli_squared, to_real_algebraic

    (u, m), = eigen_moduli_squared(IntPoly((5, 1, 2)))  # 2x^2 + x + 5
    assert (u, m) == (Fraction(5, 2), 2)
    # 3x^3 - 6x^2 + 10x - 1: |z|^2 = 1 / (3 r) is a root of 9x^3 - 30x^2 + 6x - 1
    (u, m), _ = eigen_moduli_squared(IntPoly((-1, 10, -6, 3)))
    assert (u.poly, m) == (IntPoly((-1, 6, -30, 9)), 2)
    r = real_roots(IntPoly((-1, 10, -6, 3)))[0]
    assert u == to_real_algebraic(1 / (3 * NumberField(r).generator_element()))


def mp_moduli_squared(mp, p: IntPoly):
    """Squared root moduli of p from mpmath, merged within 1e-40 and
    sorted descending, as [[value, multiplicity], ...]."""
    roots = mp.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=300)
    out = []
    for m in sorted((abs(x) ** 2 for x in roots), reverse=True):
        if out and out[-1][0] - m < mp.mpf("1e-40"):
            out[-1][1] += 1
        else:
            out.append([m, 1])
    return out


def test_eigen_moduli_match_mpmath_on_one_complex_pair():
    mp = pytest.importorskip("mpmath").mp
    from ietlab.numberfield import eigen_moduli_squared
    from ietlab.polynomials import is_irreducible

    rng = random.Random(20070508)
    cases = []
    for n in (2, 3, 4):
        for a in (1, 2, 3):
            found = 0
            while found < 3:
                p = IntPoly([rng.choice([-1, 1]) * rng.randint(1, 6)]
                            + [rng.randint(-6, 6) for _ in range(n - 1)] + [a])
                if is_irreducible(p) and len(real_roots(p)) == n - 2:
                    cases.append(p)
                    found += 1
    tol = Fraction(1, 10**45)
    with mp.workdps(80):
        for p in cases:
            mods = eigen_moduli_squared(p)
            oracle = mp_moduli_squared(mp, p)
            assert [m for _, m in mods] == [m for _, m in oracle], p
            assert 2 in [m for _, m in mods], p
            for (u, _), (v, _) in zip(mods, oracle):
                u.refine_to(Fraction(1, 2**160))
                lo, hi = u.lo - tol, u.hi + tol
                assert mp.mpf(lo.numerator) / lo.denominator <= v, p
                assert v <= mp.mpf(hi.numerator) / hi.denominator, p


def test_cross_generator_equality_is_false():
    K = golden_field()
    Kq = quartic_field()
    assert K.one != Kq.one
    assert not (K.one == Kq.one)
    assert K.generator_element() != Kq.generator_element()
    with pytest.raises(TypeError):
        K.one + Kq.one
    with pytest.raises(TypeError):
        K.one < Kq.one


def test_non_monic_generator_arithmetic():
    # theta = largest root of 3x^3 - 5x + 1: theta^3 = (5 theta - 1) / 3
    th = real_roots(IntPoly((1, -5, 0, 3)))[-1]
    K = NumberField(th)
    t = K.generator_element()
    assert t**3 == (5 * t - 1) / 3
    assert t * t.inverse() == K.one
    assert (t**2).min_poly() == IntPoly((-1, 25, -30, 9))
    assert float(t) == pytest.approx(float(th))
