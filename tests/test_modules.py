import random
from fractions import Fraction

import pytest

from ietlab.algebraic import root_in
from ietlab.modules import module_normalize
from ietlab.numberfield import NumberField
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


def test_half_lattice_gets_torsion_two():
    K = cubic_field()
    lam = K.generator_element()
    Kh = K.with_basis([K.one / 2, lam / 2, lam * lam / 2])
    md = module_normalize(Kh)
    assert (md.d, md.j, md.b) == (2, 1, 2)
    # J = 2M is the full ring Z[lam]; nu'_1 = j = 1
    assert md.nu_prime[0] == K.one
    # the natural coordinates of (p + q*lam + r*lam^2)/2 are (p, q, r)
    zeta = Kh.element([5, -3, 2])  # (5 - 3 lam + 2 lam^2)/2
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
    Kh = K.with_basis([K.one / 2, lam / 2, lam * lam / 2])
    md = module_normalize(Kh)
    assert md.in_order(lam)
    assert md.in_order(K.one)
    assert not md.in_order(lam / 2)
    assert not md.in_order(K.one / 2)


def test_mixed_index_module():
    # M = Z + Z*(phi/2): multipliers are Z[2 phi], d = j = 4, no torsion
    K = golden_field()
    phi = K.generator_element()
    Km = K.with_basis([K.one, phi / 2])
    md = module_normalize(Km)
    assert (md.d, md.j, md.b) == (4, 4, 1)
    assert md.in_order(2 * phi)
    assert not md.in_order(phi)
    assert not md.in_order(phi / 2)
    zeta = Km.element([7, 3])  # 7 + 3 phi / 2
    assert md.from_m_coords(md.m_coords(zeta)) == zeta
    assert md.reduced(zeta)[0] == 0  # b = 1 kills the torsion slot


def test_order_closed_under_multiplication():
    K = cubic_field()
    lam = K.generator_element()
    Kh = K.with_basis([K.one / 2, lam / 2, lam * lam / 2])
    md = module_normalize(Kh)
    rng = random.Random(7)
    basis_elems = [
        Kh.element([Fraction(c) for c in col]) for col in md.order_basis
    ]
    for _ in range(10):
        a = sum(
            (rng.randrange(-2, 3) * e for e in basis_elems), start=Kh.zero
        )
        b = sum(
            (rng.randrange(-2, 3) * e for e in basis_elems), start=Kh.zero
        )
        assert md.in_order(a * b)
        # multipliers indeed map the module into itself: m_coords raises
        # for a non-member
        md.m_coords(a * Kh.element([1, 0, 0]))
        md.m_coords(a * Kh.element([0, 1, 0]))


def test_module_without_one_is_rejected():
    K = golden_field()
    phi = K.generator_element()
    K3 = K.with_basis([3 * K.one, phi])
    with pytest.raises(ValueError):
        module_normalize(K3)
