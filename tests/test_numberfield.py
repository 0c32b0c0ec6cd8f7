import math
import random
from fractions import Fraction

import pytest

from ietlab.algebraic import real_roots, root_in
from ietlab.builders import e2star_model
from ietlab.matrices import charpoly, mat_vec
from ietlab.modules import ModuleData
from ietlab.numberfield import (
    NumberField,
    Span,
    perron_pair,
    root_power,
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


def test_span_combination_is_the_field_sum():
    # integer and Fraction coefficients, with and without a base point,
    # give the sum of field products, in lowest terms
    K = quartic_field()
    rng = random.Random(23)

    def element():
        return K.from_power_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(K.n)])

    for _ in range(30):
        elements = [element() for _ in range(rng.randint(1, 5))]
        span = Span(elements)
        for coeffs in ([rng.randint(-50, 50) for _ in elements],
                       [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in elements]):
            want = K.zero
            for c, u in zip(coeffs, elements):
                want = want + c * u
            base = element()
            for got, expected in ((span.combine(coeffs), want), (span.combine(coeffs, base), base + want)):
                assert got == expected
                assert math.gcd(*got.num, got.den) == 1


def test_arithmetic_field_axioms_randomized():
    K = quartic_field()
    rng = random.Random(5)

    def rand_elt():
        return K.from_power_coords([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])

    for _ in range(15):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == K.zero
        assert a * K.one == a
        if b:
            assert (a / b) * b == a
            assert b * b.inverse() == K.one


@pytest.mark.parametrize("make", [quartic_field, lambda: e2star_model().field], ids=["quartic", "e2star"])
def test_negative_powers_and_abs(make):
    K = make()
    rng = random.Random(11)
    xs = [K.generator_element()]
    xs += [K.from_power_coords([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K.n)]) for _ in range(6)]
    for x in filter(None, xs):
        for k in (1, 2, 3):
            assert x ** -k * x ** k == K.one
        pos = x if x > 0 else -x
        assert abs(-pos) == pos
        assert abs(pos) == pos
    assert abs(K.zero) == K.zero


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
        K.from_power_coords([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)])
        for _ in range(12)
    ]
    for a in elts:
        for b in elts:
            sab = (a - b).sign()
            assert sab == -(b - a).sign()
            assert (a < b, a == b, a > b) == (sab < 0, sab == 0, sab > 0)
            assert (sab == 0) == ((a - b).power_coords == (Fraction(0), Fraction(0)))
            for c in elts:
                if a >= b and b >= c:
                    assert a >= c


def test_float_accuracy():
    K = quartic_field()
    rho = K.generator_element()
    x = rho ** 3 - 2 * rho + Fraction(1, 7)
    r = 0.22777710423438124
    assert float(x) == pytest.approx(r ** 3 - 2 * r + 1 / 7, abs=1e-12)


def test_module_basis_views():
    # Z[phi]/2-style module basis: coords double, values agree
    K = golden_field()
    phi = K.generator_element()
    half = ModuleData(K, [K.one / 2, phi / 2])
    x = K.from_power_coords([Fraction(3, 2), 2])
    assert half.coords(x) == (3, 4)
    assert Span(half.basis).combine([3, 4]) == x
    assert half.coords(1) == (Fraction(2), Fraction(0))
    back = ModuleData(K, [nu * 2 for nu in half.basis])
    assert back.basis == ModuleData(K).basis == [K.one, phi]
    assert back.coords(x) == x.power_coords


def test_mult_matrix_companion():
    K = quartic_field()
    rho = K.generator_element()
    R = ModuleData(K).mult_matrix(rho)
    # companion matrix of the minpoly in the power basis
    assert [R[i][0] for i in range(4)] == [0, 1, 0, 0]
    assert abs(_det4(R)) == 1
    # action agrees with multiplication on random elements
    rng = random.Random(2)
    for _ in range(10):
        z = [rng.randint(-5, 5) for _ in range(4)]
        x = K.from_power_coords(z)
        assert list((rho * x).power_coords) == [Fraction(c) for c in mat_vec(R, z)]


def _det4(M):
    from ietlab.matrices import det

    return det(M)


def test_mult_matrix_rejects_non_stabilizing():
    K = golden_field()
    phi = K.generator_element()
    with pytest.raises(ValueError):
        ModuleData(K).mult_matrix(phi / 2)


def test_spectral_radius():
    assert real_roots(charpoly([[2, 0], [0, 3]]))[-1] == 3
    M = [[1, 1], [1, 0]]
    assert float(real_roots(charpoly(M))[-1]) == pytest.approx((1 + math.sqrt(5)) / 2)


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
    # b lives in a field built separately on the same generator
    a = K.from_power_coords([Fraction(1, 2), 1])
    b = NumberField(K.generator).from_power_coords([Fraction(1, 2), 1])
    assert b.field is not K
    assert a == b
    assert hash(a) == hash(b)


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


def test_eigen_moduli_build_one_eigenvalue_list_per_factor(monkeypatch):
    # (x^2 - 2)(x^3 - 2)(x - 3) times the loop-matrix quartic: one charpoly
    # per factor for the squares of its real roots, one more for the
    # complex pair of x^3 - 2
    from ietlab import numberfield

    calls = []
    charpoly = numberfield.charpoly
    monkeypatch.setattr(numberfield, "charpoly", lambda M: calls.append(len(M)) or charpoly(M))
    p = IntPoly((-2, 0, 1)) * IntPoly((-2, 0, 0, 1)) * IntPoly((-3, 1)) * IntPoly((1, -7, 13, -7, 1))
    mods = numberfield.eigen_moduli_squared(p)
    assert sorted(calls) == [1, 2, 3, 3, 4]
    assert [m for _, m in mods] == [1, 1, 1, 2, 3, 1, 1]
    assert mods[1][0] == 9 and mods[3][0] == 2
    assert mods[4][0].poly == IntPoly((-4, 0, 0, 1))  # 2^(2/3), root and pair


def test_eigen_moduli_complex_pair_identity():
    from ietlab.numberfield import eigen_moduli_squared

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
    from ietlab.numberfield import eigen_moduli_squared

    # Salem-type (4321) loops: real roots beta and 1/beta, a pair on the
    # circle; beta^2 and beta^-2 are the real roots of the Graeffe square
    # g(x^2) = p(x) p(-x)
    squares = {(1, -7, 11, -7, 1): (1, -27, 25, -27, 1),
               (1, -8, 12, -8, 1): (1, -40, 18, -40, 1)}
    p, g = IntPoly(coeffs), IntPoly(squares[coeffs])
    mods = eigen_moduli_squared(p)
    assert [m for _, m in mods] == [1, 2, 1]
    assert mods[0][0].poly == mods[2][0].poly == g
    small, large = real_roots(g)
    assert mods[0][0] == large and mods[2][0] == small
    assert mods[1][0] == 1 and mods[1][0].poly == IntPoly((-1, 1))


def test_eigen_moduli_repeated_factor_and_two_pairs():
    from ietlab.numberfield import eigen_moduli_squared

    q = IntPoly((-1, 10, -6, 1))
    assert [m for _, m in eigen_moduli_squared(q * q)] == [4, 2]
    assert [u for u, _ in eigen_moduli_squared(q * q)] == [u for u, _ in eigen_moduli_squared(q)]
    with pytest.raises(NotImplementedError):
        eigen_moduli_squared(IntPoly((1, 0, 0, 0, 1)))  # x^4 + 1: two pairs


def test_eigen_moduli_non_monic_pair():
    from ietlab.numberfield import eigen_moduli_squared

    (u, m), = eigen_moduli_squared(IntPoly((5, 1, 2)))  # 2x^2 + x + 5
    assert (u, m) == (Fraction(5, 2), 2)
    # 3x^3 - 6x^2 + 10x - 1: |z|^2 = 1 / (3 r) is a root of 9x^3 - 30x^2 + 6x - 1
    (u, m), _ = eigen_moduli_squared(IntPoly((-1, 10, -6, 3)))
    assert (u.poly, m) == (IntPoly((-1, 6, -30, 9)), 2)
    (root,) = real_roots(IntPoly((-1, 6, -30, 9)))
    assert u == root
    r = real_roots(IntPoly((-1, 10, -6, 3)))[0]
    assert float(u) * 3 * float(r) == pytest.approx(1, rel=1e-14)


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


@pytest.mark.parametrize("coeffs", [(2, -4, 0, 0, 0, 1), (1, 1, 0, 0, -8, 0, 1)])
def test_eigen_moduli_past_degree_four_match_sympy(coeffs):
    # x^5 - 4x + 2 and x^6 - 8x^4 + x + 1: one complex pair, whose modulus
    # comes from a second-compound charpoly of degree 10 and 15
    sympy = pytest.importorskip("sympy")
    from ietlab.numberfield import eigen_moduli_squared

    x = sympy.symbols("x")
    roots = sympy.Poly(list(reversed(coeffs)), x).nroots(n=30)
    want = sorted((Fraction(str(abs(r) ** 2)) for r in roots), reverse=True)
    mods = eigen_moduli_squared(IntPoly(coeffs))
    assert 2 in [m for _, m in mods]
    got = [u for u, m in mods for _ in range(m)]
    assert len(got) == len(want)
    for u, v in zip(got, want):
        u.refine_to(Fraction(1, 10**30))
        assert u.lo - Fraction(1, 10**25) <= v <= u.hi + Fraction(1, 10**25)


def test_root_power_matches_mpmath():
    # every real root r of random irreducible polynomials of degree 2-5,
    # monic and non-monic, against r^e from mpmath roots at 300 bits
    mp = pytest.importorskip("mpmath").mp
    from ietlab.polynomials import is_irreducible

    rng = random.Random(10731)
    cases = [IntPoly((-2, 0, 1)), IntPoly((-2, 0, 0, 0, 1))]
    for n in (2, 3, 4, 5):
        for a in (1, 2, 3):
            found = 0
            while found < 2:
                p = IntPoly([rng.choice([-1, 1]) * rng.randint(1, 6)]
                            + [rng.randint(-6, 6) for _ in range(n - 1)] + [a])
                if is_irreducible(p) and real_roots(p):
                    cases.append(p)
                    found += 1
    negative = 0
    with mp.workprec(300):
        tol = mp.mpf(2) ** -240
        for p in cases:
            roots = real_roots(p)
            zs = mp.polyroots(list(reversed(p.coeffs)), maxsteps=400, extraprec=600)
            xs = sorted(z.real for z in sorted(zs, key=lambda z: abs(z.imag))[: len(roots)])
            for r, x in zip(roots, xs):
                negative += r < 0
                for e in (1, 2, 3):
                    u = root_power(r, e)
                    assert is_irreducible(u.poly) and u.poly.lc > 0, (p, e)
                    assert p.degree % u.poly.degree == 0, (p, e)
                    u.refine_to(Fraction(1, 2**200))
                    lo, hi = u.lo, u.hi
                    v = x**e
                    assert mp.mpf(lo.numerator) / lo.denominator - tol <= v, (p, e)
                    assert v <= mp.mpf(hi.numerator) / hi.denominator + tol, (p, e)
                assert root_power(r, 1) == r
    assert negative > len(cases) // 2


def test_root_power_closed_forms():
    # sqrt(2)^2 = 2 is rational; 2^(1/4) squares to sqrt(2)
    for r in real_roots(IntPoly((-2, 0, 1))):
        two = root_power(r, 2)
        assert two.is_rational and two == 2
        assert root_power(r, 3).poly == IntPoly((-8, 0, 1))
        assert (root_power(r, 3) < 0) == (r < 0)
    sqrt2 = real_roots(IntPoly((-2, 0, 1)))[1]
    for r in real_roots(IntPoly((-2, 0, 0, 0, 1))):
        assert root_power(r, 2) == sqrt2
        assert root_power(r, 3).poly == IntPoly((-8, 0, 0, 0, 1))
        assert root_power(r, 4) == 2


def test_from_power_coords_takes_exact_input_only():
    K = golden_field()
    x = K.from_power_coords([Fraction(1, 10), 3])
    assert K.from_power_coords(["1/10", "3"]) == x == K.one / 10 + 3 * K.generator_element()
    assert K.from_power_coords([2, -1]).num == (2, -1)
    for pc in ([0.1, 0], [0, 1.0]):
        with pytest.raises(TypeError):
            K.from_power_coords(pc)


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
    assert root_power(th, 2).poly == IntPoly((-1, 25, -30, 9))
    assert float(t) == pytest.approx(float(th))
