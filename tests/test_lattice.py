import random
from fractions import Fraction

import pytest

from ietlab.algebraic import root_in
from ietlab.iet import IET, Permutation
from ietlab.lattice import (
    LatticeModel,
    LatticePoint,
    density_estimate,
    drift_vector,
    interval_predicate,
    liouville_check,
    spectrum_check,
    unit_representative,
)
from ietlab.numberfield import NumberField
from ietlab.polynomials import IntPoly

def test_quartic_projection_columns(quartic_lattice):
    _, _, model = quartic_lattice
    expected = [(1, -1, 0, 0), (1, -5, 5, -1), (-1, 3, -1, 0), (0, -1, 0, 0)]
    for i, col in enumerate(expected):
        assert tuple(model.projection[r][i] for r in range(4)) == col
    assert model.module.d == 1
    assert model.module.b == 1


def test_quartic_drift_closed_form(quartic_lattice):
    K, r, model = quartic_lattice
    S, consistent = drift_vector(model)
    expected = [
        r - 4 * r * r + r**3,
        K.from_rational(-1) + 16 * r * r - 4 * r**3,
        K.from_rational(4) - 16 * r + r**3,
        K.from_rational(-1) + 4 * r - r * r,
    ]
    assert list(S.components) == expected
    assert not S.is_zero
    # four letters over a quartic field force a drift
    assert consistent


def test_rejects_translations_outside_module():
    K = NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2))
    phi = K.generator_element()
    coarse = K.with_basis([K.one, 2 * phi])
    E = IET(
        Permutation([2, 1]),
        [coarse.from_power_coords(c.power_coords) for c in (2 - phi, phi - 1)],
    )
    with pytest.raises(ValueError):
        LatticeModel(E)


def test_commutation_and_R(quartic_model):
    K, r, model = quartic_model
    assert model.R is not None
    # W is trivial here, so R is plain multiplication by rho
    from ietlab.numberfield import mult_matrix

    assert model.R == mult_matrix(r)
    M = model.sigma.incidence()
    from ietlab.matrices import mat_mul

    assert mat_mul(model.R, model.projection) == mat_mul(model.projection, M)


def test_conjugacy_along_orbit(quartic_lattice):
    K, r, model = quartic_lattice
    E = model.E
    x = K.zero
    p = LatticePoint((0, 0, 0, 0), (0, 0, 0, 0))
    for _ in range(200):
        p = model.psi_apply(p)
        x = E.apply(x)
        xi, z = model.layer_of(x)
        assert xi == (0, 0, 0, 0)
        assert tuple(z) == p.z
    assert model.value_of(p) == x


def test_conjugacy_random_layers(quartic_lattice):
    K, r, model = quartic_lattice
    E = model.E
    rng = random.Random(7)
    for _ in range(40):
        q = Fraction(rng.randrange(0, 64), 64) + Fraction(1, 128)
        x = K.from_rational(q)
        p = model.point_of(x)
        assert model.value_of(p) == x
        for _ in range(5):
            p = model.psi_apply(p)
            x = E.apply(x)
        assert model.value_of(p) == x


def test_displacement_identity(quartic_lattice):
    K, r, model = quartic_lattice
    E = model.E
    k = 150
    p0 = LatticePoint((0, 0, 0, 0), (0, 0, 0, 0))
    pk, counts, _ = model.psi_orbit(p0, k)
    assert sum(counts) == k
    # z_k - z_0 = k*S + projection*(counts - k*lengths), all exact
    S = model.drift.components
    for row in range(4):
        rhs = k * S[row]
        for i in range(4):
            disc = K.from_rational(counts[i]) - k * E.lengths[i]
            rhs = rhs + model.projection[row][i] * disc
        assert K.from_rational(pk.z[row] - p0.z[row]) == rhs


def test_orbit_checkpoints_and_projection_of_counts(quartic_lattice):
    _, _, model = quartic_lattice
    p0 = LatticePoint((0, 0, 0, 0), (0, 0, 0, 0))
    pk, counts, marks = model.psi_orbit(p0, 64, checkpoints=(16, 64))
    assert set(marks) == {16, 64}
    assert marks[64][0] == pk.z
    proj_counts = tuple(
        sum(model.projection[r][i] * counts[i] for i in range(4)) for r in range(4)
    )
    assert proj_counts == pk.z


def test_spectrum_with_drift(quartic_model):
    _, _, model = quartic_model
    beta_eig, drift0, consistent = spectrum_check(model)
    assert beta_eig and not drift0 and consistent


def test_golden_rotation_lattice(golden_model):
    K, phi, model = golden_model
    S, consistent = drift_vector(model)
    assert not S.is_zero and consistent
    beta_eig, drift0, ok = spectrum_check(model)
    assert beta_eig and not drift0 and ok
    # rotation by phi-1: z walks along the projected translations
    p = LatticePoint((0, 0), (0, 0))
    p, counts, _ = model.psi_orbit(p, 100)
    assert sum(counts) == 100
    x = model.value_of(p)
    assert x.sign() >= 0 and (x - model.total).sign() < 0


def test_layer_split_and_scale(golden_model):
    K, phi, model = golden_model
    x = phi * Fraction(1, 2)
    xi, z = model.layer_of(x)
    assert xi == (Fraction(0), Fraction(1, 2))
    assert tuple(z) == (0, 0)
    # (2-phi)*(phi/2) = (phi-1)/2, which is (-1/2, 1/2) + module
    assert model.scale_layer(xi) == (Fraction(1, 2), Fraction(1, 2))


def test_layer_order_is_a_period(quartic_model):
    _, r, model = quartic_model
    xi = (Fraction(1, 3), Fraction(0), Fraction(0), Fraction(0))
    t = model.order_of(xi)
    assert t >= 1
    cur = xi
    for _ in range(t):
        cur = model.scale_layer(cur)
    assert cur == xi
    for s in range(1, t):
        xi2 = xi
        for _ in range(s):
            xi2 = model.scale_layer(xi2)
        assert xi2 != xi


def test_density_full_slab_is_one(quartic_lattice):
    _, _, model = quartic_lattice
    member = interval_predicate(model, 0, 1)
    assert density_estimate(model, member, 3) == 1


def test_density_half_interval(quartic_lattice):
    _, _, model = quartic_lattice
    member = interval_predicate(model, 0, Fraction(1, 2))
    est = density_estimate(model, member, 10)
    assert abs(float(est) - 0.5) < 0.1


def test_liouville_powers_of_rho(quartic_model):
    K, r, model = quartic_model
    z = K.one
    for _ in range(8):
        z = z * r
        val, norm, bound, ok = liouville_check(model, z)
        assert ok
        assert val >= bound


def test_liouville_random_sweep(quartic_lattice):
    K, r, model = quartic_lattice
    rng = random.Random(11)
    for _ in range(60):
        zfree = tuple(rng.randrange(-20, 21) for _ in range(3))
        if not any(zfree):
            continue
        zeta = unit_representative(model, zfree)
        assert zeta.sign() >= 0
        assert (zeta - K.one).sign() < 0
        if zeta.sign() == 0:
            continue
        val, norm, bound, ok = liouville_check(model, zeta)
        assert ok, (zfree, val, bound)


def test_liouville_requires_power_basis():
    base = NumberField(root_in(IntPoly((-1, 7, -5, 1)), Fraction(1, 10), Fraction(1, 5)))
    lam = base.generator_element()
    half = Fraction(1, 2)
    K = base.with_basis([base.from_rational(half), lam * half, lam * lam * half])
    lengths = [
        K.from_power_coords((Fraction(x) for x in c))
        for c in [(0, 1, -half)] * 2
        + [(half, -Fraction(3, 2), half)] * 2
        + [(half, 0, 0), (0, half, 0), (half, -half, 0)]
    ]
    E = IET(Permutation([7, 6, 5, 4, 3, 2, 1]), lengths)
    model = LatticeModel(E)
    assert (model.module.d, model.module.j, model.module.b) == (2, 1, 2)
    with pytest.raises(ValueError):
        liouville_check(model, lengths[0])


def test_density_counts_residues():
    # a module with b = 2: the box average runs over both residues
    base = NumberField(root_in(IntPoly((-1, 7, -5, 1)), Fraction(1, 10), Fraction(1, 5)))
    lam = base.generator_element()
    half = Fraction(1, 2)
    K = base.with_basis([base.from_rational(half), lam * half, lam * lam * half])
    total = K.from_power_coords((2, -1, 0))  # 2 - lambda
    lengths = [
        K.from_power_coords((Fraction(x) for x in c))
        for c in [(0, 1, -half)] * 2
        + [(half, -Fraction(3, 2), half)] * 2
        + [(half, 0, 0), (0, half, 0), (half, -half, 0)]
    ]
    E = IET(Permutation([7, 6, 5, 4, 3, 2, 1]), lengths)
    assert E.total == total
    model = LatticeModel(E)
    member = interval_predicate(model, 0, total)
    assert density_estimate(model, member, 4) == 1
