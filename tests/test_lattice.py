import itertools
import math
import random
from fractions import Fraction

import pytest

from ietlab import builders
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


@pytest.fixture
def walk_models(quartic_lattice, golden_model):
    """Fresh quartic, e2*, E_1 (b = 2) and golden models by name."""
    return {
        "quartic": quartic_lattice[2],
        "e2star": builders.e2star_model(),
        "ek1": builders.ek_model(1),
        "golden": golden_model[2],
    }


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


def test_position_certificate_holds_exactly(walk_models):
    # |q * value - X| <= err at p and after one step by any atom, |z| <= 10^6
    rng = random.Random(13)
    for model in walk_models.values():
        q, _, _, _, rights = model._position(LatticePoint((0,) * model.n, (0,) * model.n), 0)
        claims = [(q * x, s, e) for x, (s, e) in zip(model.E.rights, rights)]
        for _ in range(10):
            layer = tuple(Fraction(rng.randrange(6), 6) for _ in range(model.n))
            z = tuple(rng.randint(-(10**6), 10**6) for _ in range(model.n))
            q, X, err, moves, _ = model._position(LatticePoint(layer, z), 1)
            assert err * 2**30 < q  # the bound is far below the atom lengths
            claims.append((q * model.value_of(LatticePoint(layer, z)), X, err))
            for i in range(model.E.N):
                zi = tuple(c + row[i] for c, row in zip(z, model.projection))
                claims.append((q * model.value_of(LatticePoint(layer, zi)), X + moves[i], err))
        # signs last: they refine the sign table, which later positions would use
        for qv, X, err in claims:
            assert (qv - X - err).sign() <= 0 <= (qv - X + err).sign()


TINY = Fraction(1, 2**200)


def walk_starts(model):
    """Atom left endpoints, points within 2^-200 of them, module points
    and points of rational layers."""
    starts = [left for left, _ in model.E.atoms()]
    starts += [x + TINY for x in starts] + [x - TINY for x in starts[1:]]
    rng = random.Random(model.name)
    while len(starts) < 3 * model.E.N + 7:
        x = unit_representative(model, [rng.randint(-4, 4) for _ in range(model.n - 1)])
        if len(starts) % 2:
            x = x * Fraction(1, 3)  # a rational layer xi != 0
        if x < model.total:
            starts.append(x)
    return starts


def test_psi_orbit_matches_exact_orbit(walk_models):
    for model in walk_models.values():
        for x in walk_starts(model):
            p = model.point_of(x)
            end, counts, marks = model.psi_orbit(p, 300, checkpoints=(100,))
            word, y = model.E.orbit(x, 300)
            assert model.value_of(end) == y
            assert counts == [word.count(i) for i in range(1, model.E.N + 1)]
            assert marks[100][0] == model.point_of(model.E.orbit(x, 100)[1]).z


def test_fallbacks_do_not_grow_after_refinement(quartic_lattice, monkeypatch):
    K, r, model = quartic_lattice
    calls = []
    atom_of = IET.atom_of
    monkeypatch.setattr(IET, "atom_of", lambda E, x: calls.append(x) or atom_of(E, x))
    # an atom endpoint, whose first step falls back, and a point of a rational layer
    starts = [model.point_of(model.E.rights[1]), model.point_of(model.E.rights[1] / 3)]
    before = [model.psi_orbit(p, 3000) for p in starts]
    fallbacks = len(calls)
    assert 1 <= fallbacks <= 3
    # the sign of r - c for a close rational c refines the generator's table
    probe = root_in(K.minpoly, K.generator.lo, K.generator.hi)
    probe.refine_to(Fraction(1, 2**200))
    c = probe.lo.limit_denominator(2**48)
    assert (r - c).sign() == (1 if probe > c else -1)
    assert K.generator.hi - K.generator.lo < Fraction(1, 2**100)
    calls.clear()
    assert [model.psi_orbit(p, 3000) for p in starts] == before
    assert len(calls) <= fallbacks


def exact_member(model, lo, hi, reduced):
    """Brute force: some m0 = r (mod b) puts the module point in [lo, hi)."""
    r, rest = reduced[0], reduced[1:]
    b, points = model.module.b, model.module.from_m_coords
    t0 = math.floor(float(lo) - float(points((r,) + rest)))
    span = range(t0 - 4, t0 + 5 + math.ceil(float(hi - lo)))
    return any(lo <= points((r + b * t,) + rest) < hi for t in span)


def test_interval_predicate_matches_exact_membership(walk_models):
    for name in ("quartic", "e2star", "ek1"):
        model = walk_models[name]
        K, free = model.field, model.n - 1
        g = K.generator_element()
        g = g - math.floor(float(g))
        edge = unit_representative(model, (1,) + (0,) * (free - 1))
        windows = [
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 3), model.total),
            (g, g + Fraction(1, 5)),
            (edge, edge + Fraction(1, 4)),  # a module point on lo
            (edge - Fraction(1, 4), edge),  # and on hi
            (edge + TINY, edge + Fraction(1, 4)),  # and within 2^-200 of them
            (edge - TINY, edge + Fraction(1, 4)),
            (edge - Fraction(1, 4), edge + TINY),
            (edge - Fraction(1, 4), edge - TINY),
        ]
        for lo, hi in windows:
            member = interval_predicate(model, lo, hi)
            for rest in itertools.product(range(-2, 3), repeat=free):
                for r in range(model.module.b):
                    want = exact_member(model, lo, hi, (r,) + rest)
                    assert member((r,) + rest) == want, (name, lo, hi, r, rest)
