import random
from fractions import Fraction

import pytest

from ietlab.algebraic import root_in
from ietlab.modules import ModuleData, module_normalize
from ietlab.numberfield import NumberField, Span
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
    K = cubic_field()
    md = module_normalize(K, half_basis(K))
    rng = random.Random(7)
    basis_elems = [Span(md.basis).combine(col) for col in md.order_basis]
    for _ in range(10):
        a = sum(
            (rng.randrange(-2, 3) * e for e in basis_elems), start=K.zero
        )
        b = sum(
            (rng.randrange(-2, 3) * e for e in basis_elems), start=K.zero
        )
        assert md.in_order(a * b)
        # multipliers indeed map the module into itself: m_coords raises
        # for a non-member
        md.m_coords(a * md.basis[0])
        md.m_coords(a * md.basis[1])


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
