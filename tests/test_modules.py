import random
from fractions import Fraction
from math import gcd

import pytest

from ietlab.algebraic import isolate, root_in
from ietlab.builders import QUARTIC_POLY, SEVEN_PRODUCT, family_poly
from ietlab.matrices import det, solve
from ietlab.modules import ModuleData, module_normalize
from ietlab.numberfield import NumberField, perron_pair
from ietlab.polynomials import IntPoly


def golden_field():
    return NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2))


def cubic_field():
    # smallest real root of x^3 - 6x^2 + 10x - 1
    lam = root_in(IntPoly((-1, 10, -6, 1)), 0, Fraction(1, 2))
    return NumberField(lam)


def test_power_basis_is_already_normalized():
    K = golden_field()
    md = module_normalize(K)
    assert (md.d, md.j, md.b) == (1, 1, 1)
    assert md.nu_prime[0] == K.one
    phi = K.generator_element()
    assert md.in_order(phi)
    assert md.m_coords(3 * phi - 2) == (-2, 3) or md.from_m_coords(
        md.m_coords(3 * phi - 2)
    ) == 3 * phi - 2


def half_basis(K):
    lam = K.generator_element()
    return [K.one / 2, lam / 2, lam * lam / 2]


def test_half_lattice_gets_torsion_two():
    K = cubic_field()
    lam = K.generator_element()
    md = module_normalize(K, half_basis(K))
    assert (md.d, md.j, md.b) == (2, 1, 2)
    # J = 2M is the full ring Z[lam]; nu'_1 = j = 1
    assert md.nu_prime[0] == K.one
    # the natural coordinates of (p + q*lam + r*lam^2)/2 are (p, q, r)
    zeta = (5 - 3 * lam + 2 * lam * lam) / 2
    assert md.coords(zeta) == (5, -3, 2)
    m = md.m_coords(zeta)
    assert md.from_m_coords(m) == zeta
    assert md.reduced(zeta)[0] == (m[0] % 2)
    # adding an integer shifts only the torsion slot, invisibly mod 2
    shifted = zeta + 3
    assert md.reduced(shifted)[1:] == md.reduced(zeta)[1:]
    assert md.reduced(shifted)[0] == (md.reduced(zeta)[0] + 3 * md.d // md.j) % md.b


def test_order_membership_half_lattice():
    K = cubic_field()
    lam = K.generator_element()
    md = module_normalize(K, half_basis(K))
    assert md.in_order(lam)
    assert md.in_order(K.one)
    assert not md.in_order(lam / 2)
    assert not md.in_order(K.one / 2)


def test_mixed_index_module():
    # M = Z + Z*(phi/2): multipliers are Z[2 phi], d = j = 4, no torsion
    K = golden_field()
    phi = K.generator_element()
    md = module_normalize(K, [K.one, phi / 2])
    assert (md.d, md.j, md.b) == (4, 4, 1)
    assert md.in_order(2 * phi)
    assert not md.in_order(phi)
    assert not md.in_order(phi / 2)
    zeta = 7 + 3 * phi / 2
    assert md.from_m_coords(md.m_coords(zeta)) == zeta
    assert md.reduced(zeta)[0] == 0  # b = 1 kills the torsion slot


def test_order_closed_under_multiplication():
    # the multiplier ring of the half lattice Z[lam]/2 is Z[lam]
    K = cubic_field()
    lam = K.generator_element()
    md = module_normalize(K, half_basis(K))
    rng = random.Random(7)
    ring_basis = [K.one, lam, lam * lam]
    for _ in range(10):
        a = sum(
            (rng.randrange(-2, 3) * e for e in ring_basis), start=K.zero
        )
        b = sum(
            (rng.randrange(-2, 3) * e for e in ring_basis), start=K.zero
        )
        assert md.in_order(a * b)
        # multipliers indeed map the module into itself: m_coords raises
        # for a non-member
        md.m_coords(a * md.basis[0])
        md.m_coords(a * md.basis[1])


def _primes(n):
    p = 2
    while n > 1:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1


def definition_fields():
    """The quartic, e2* and E_1..E_3 fields, built as the models build them."""
    yield NumberField(root_in(QUARTIC_POLY, Fraction(1, 5), Fraction(1, 4)))
    yield perron_pair([list(row) for row in SEVEN_PRODUCT])[1][0].field
    for k in (1, 2, 3):
        yield NumberField(isolate(family_poly(k))[0])


def test_module_invariants_meet_their_definitions():
    """d, j, b, W and `in_order` against their definitions, with module
    membership read by solving for the basis coordinates."""
    rng = random.Random(20)
    rejected = 0
    for K in definition_fields():
        n, theta = K.n, K.generator_element()
        powers = [theta**i for i in range(n)]
        for trial in range(12):
            basis = [
                sum((rng.randrange(-3, 4) * t for t in powers), start=K.zero) / rng.randrange(1, 5)
                for _ in range(n)
            ]
            if trial % 3:  # a scaled 1 first: these contain 1 unless scaled up
                basis[0] = K.one / rng.choice((1, 2, 3, Fraction(1, 2)))
            V = [[nu.power_coords[i] for nu in basis] for i in range(n)]
            if det(V) == 0:
                continue

            def in_m(x):
                return all(c.denominator == 1 for c in solve(V, K.coerce(x).power_coords))

            if not in_m(1):
                rejected += 1
                with pytest.raises(ValueError):
                    ModuleData(K, basis)
                continue
            md = ModuleData(K, basis)
            d, j = md.d, md.j
            products = [nu * mu for nu in basis for mu in basis]
            assert all(in_m(d * x) for x in products)
            for p in _primes(d):
                assert not all(in_m(d // p * x) for x in products)
            assert in_m(Fraction(j, d))
            for p in _primes(j):
                assert not in_m(Fraction(j // p, d))
            assert md.b == d // gcd(d, j)
            assert det(md.W) in (1, -1)
            assert [row[0] for row in md.W] == [j * c / d for c in md.coords(1)]
            samples = [rng.randrange(-3, 4) + K.zero for _ in range(2)]
            samples += [
                sum((rng.randrange(-2, 3) * d * nu for nu in basis), start=K.zero) / s
                for s in (1, 1, 2, 3)
            ]
            samples += [sum((rng.randrange(-2, 3) * t for t in powers), start=K.zero) for _ in range(2)]
            for zeta in samples:
                member = all(in_m(zeta * nu) for nu in basis)
                assert md.in_order(zeta) == member
                if member:
                    md.mult_matrix(zeta)
                else:
                    with pytest.raises(ValueError):
                        md.mult_matrix(zeta)
    assert rejected


def test_module_without_one_is_rejected():
    K = golden_field()
    phi = K.generator_element()
    with pytest.raises(ValueError):
        module_normalize(K, [3 * K.one, phi])


def test_coords_read_every_field_sharing_the_generator():
    # the module owns its basis: an element of a field built separately on
    # the same generator, a rational and a field element get the same
    # coordinates, and the basis is rebuilt in the module's field
    K = cubic_field()
    md = ModuleData(K, half_basis(K))
    K2 = NumberField(K.generator)
    lam2 = K2.generator_element()
    zeta = (5 - 3 * lam2 + 2 * lam2 * lam2) / 2
    assert md.coords(zeta) == (5, -3, 2)
    assert md.m_coords(zeta) == md.m_coords(K.zero + zeta)  # the same point in K
    assert md.coords(Fraction(3, 2)) == (3, 0, 0)
    assert all(nu.field is K for nu in md.basis)
    assert md.mult_matrix(lam2) == md.mult_matrix(K.generator_element())
    other = NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2))
    with pytest.raises(TypeError):
        md.coords(other.generator_element())


def test_module_basis_must_span_the_field():
    K = golden_field()
    with pytest.raises(ValueError):
        ModuleData(K, [K.one])
    with pytest.raises(ValueError):
        ModuleData(K, [K.one, 2 * K.one])
