import bisect
import functools
import hashlib
import importlib.util
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab import builders
from ietlab.algebraic import root_in
from ietlab.iet import IET, Cells, Permutation, iet_from_translations, rescale
from ietlab.lattice import (
    LatticeModel,
    LatticePoint,
    Towers,
    density_estimate,
    drift_vector,
    interval_predicate,
    liouville_check,
    scaled,
    spectrum_check,
    unit_representative,
)
from ietlab.matrices import charpoly
from ietlab.modules import ModuleData
from ietlab.numberfield import NumberField, Span
from ietlab.polynomials import IntPoly
from ietlab.vershik import d_T


@pytest.fixture
def walk_models(quartic_lattice, golden_model):
    """Fresh quartic, e2*, E_1 (b = 2) and golden models by name, without
    a renormalization, so that their walks step one atom at a time."""
    ek1 = builders.ek_model(1)
    return {
        "quartic": quartic_lattice[2],
        "e2star": LatticeModel(builders.e2star_model().E, name="e2star"),
        "ek1": LatticeModel(ek1.E, name="ek1", basis=ek1.module.basis),
        "golden": LatticeModel(golden_model[2].E),
    }


# the models whose walks jump through their towers
JUMP_MODELS = {
    "quartic": builders.quartic_model,
    "e2star": builders.e2star_model,
    "ek1": lambda: builders.ek_model(1),
    "ek2": lambda: builders.ek_model(2),
}


@pytest.fixture(scope="module")
def jump_models():
    """One model of each JUMP_MODELS entry, shared by a module's tests."""
    return {name: build() for name, build in JUMP_MODELS.items()}


def ledger(model, p, counts):
    """z_0 + projection * counts."""
    return tuple(z + sum(map(mul, row, counts)) for z, row in zip(p.z, model.projection))


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
    E = IET(Permutation([2, 1]), [2 - phi, phi - 1])
    LatticeModel(E)
    with pytest.raises(ValueError):
        LatticeModel(E, basis=[K.one, 2 * phi])


def test_commutation_and_R(quartic_model):
    K, r, model = quartic_model
    assert model.R is not None
    # W is trivial here, so R is plain multiplication by rho
    assert model.R == model.module.mult_matrix(r)
    M = model.sigma.incidence()
    from ietlab.matrices import mat_mul

    assert mat_mul(model.R, model.projection) == mat_mul(model.projection, M)


def test_conjugacy_along_orbit(quartic_lattice):
    K, r, model = quartic_lattice
    E = model.E
    x = K.zero
    p = LatticePoint((0, 0, 0, 0), (0, 0, 0, 0))
    for _ in range(200):
        p = model.psi_orbit(p, 1)[0]
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
            p = model.psi_orbit(p, 1)[0]
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


def test_lattice_point_rejects_non_integral_z():
    with pytest.raises(ValueError):
        LatticePoint((0, 0), (Fraction(3, 2), 2))
    with pytest.raises(ValueError):
        LatticePoint((0, 0), (0, 2.7))
    assert LatticePoint((0, 0), (Fraction(4, 2), 2.0)).z == (2, 2)


def test_lattice_point_rejects_a_layer_outside_0_1():
    # (1, 0) + z is the point (0, 0) + z + the first basis vector, so only
    # [0, 1) gives each point one (layer, z)
    for layer in ((1, 0), (0, -Fraction(1, 3)), (Fraction(4, 3), 0)):
        with pytest.raises(ValueError, match=r"layer coordinates must lie in \[0, 1\)"):
            LatticePoint(layer, (0, 0))
    assert LatticePoint((0, Fraction(2, 3)), (1, 0)).layer == (0, Fraction(2, 3))


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
    lengths = [
        base.from_power_coords((Fraction(x) for x in c))
        for c in [(0, 1, -half)] * 2
        + [(half, -Fraction(3, 2), half)] * 2
        + [(half, 0, 0), (0, half, 0), (half, -half, 0)]
    ]
    E = IET(Permutation([7, 6, 5, 4, 3, 2, 1]), lengths)
    model = LatticeModel(E, basis=[base.from_rational(half), lam * half, lam * lam * half])
    assert (model.module.d, model.module.j, model.module.b) == (2, 1, 2)
    with pytest.raises(ValueError):
        liouville_check(model, lengths[0])


def test_density_counts_residues():
    # a module with b = 2: the box average runs over both residues
    base = NumberField(root_in(IntPoly((-1, 7, -5, 1)), Fraction(1, 10), Fraction(1, 5)))
    lam = base.generator_element()
    half = Fraction(1, 2)
    total = base.from_power_coords((2, -1, 0))  # 2 - lambda
    lengths = [
        base.from_power_coords((Fraction(x) for x in c))
        for c in [(0, 1, -half)] * 2
        + [(half, -Fraction(3, 2), half)] * 2
        + [(half, 0, 0), (0, half, 0), (half, -half, 0)]
    ]
    E = IET(Permutation([7, 6, 5, 4, 3, 2, 1]), lengths)
    assert E.total == total
    model = LatticeModel(E, basis=[base.from_rational(half), lam * half, lam * lam * half])
    member = interval_predicate(model, 0, total)
    assert density_estimate(model, member, 4) == 1


def walk_certificate(E, x, k):
    """(q, X, err, lows, highs, moves) of a k-step walk of E from x: its
    start (`IET._start`) at the scale q of the table, with the band err +
    k e_c that `IET._walk` keeps for every step up to k."""
    X, err = E._start(x, k)
    P, d, lows, highs, *_, moves, e_c = E._table()
    return d << P, X, err + k * e_c, lows, highs, moves


def test_position_certificate_holds_exactly(walk_models):
    # |q * value - X| <= err at p and after one step by any atom, for
    # |z| <= 10^6 and for |z| near 2^100, where the table's first
    # precision would leave err above 2^-30 q; the cell bounds at the
    # same q bracket q times each atom endpoint
    rng = random.Random(13)
    for model in walk_models.values():
        E = model.E
        claims = []  # (q * value, lo, hi) with lo <= q * value <= hi claimed
        for bound in (10**6,) * 10 + (2**100,) * 4:
            layer = tuple(Fraction(rng.randrange(6), 6) for _ in range(model.n))
            z = tuple(rng.randint(-bound, bound) for _ in range(model.n))
            q, X, err, lows, highs, moves = walk_certificate(E, model.value_of(LatticePoint(layer, z)), 1)
            assert err * 2**30 < q  # the bound is far below the atom lengths
            assert lows[0] == 0
            claims += [(q * r, hi, lo) for r, hi, lo in zip(E.rights, highs, lows[1:])]
            claims.append((q * E.rights[-1], highs[-1], q * E.rights[-1]))
            claims.append((q * model.value_of(LatticePoint(layer, z)), X - err, X + err))
            for i in range(E.N):
                zi = tuple(c + row[i] for c, row in zip(z, model.projection))
                X1 = X + moves[i]
                claims.append((q * model.value_of(LatticePoint(layer, zi)), X1 - err, X1 + err))
        # signs last: they refine the sign table, which later certificates would use
        for qv, lo, hi in claims:
            assert (qv - lo).sign() >= 0 >= (qv - hi).sign()


@pytest.mark.parametrize("build, m", [(builders.quartic_model, 40), (builders.e2star_model, 15)],
                         ids=["quartic", "e2star"])
def test_walk_matches_the_exact_orbit_at_every_step(build, m, monkeypatch):
    # a start c +- rho^m beside an inner atom endpoint c has power
    # coordinates near 2^82 (quartic) or 2^28 (e2*), so on a fresh sign
    # table, at 128 and 64 bits, the err of a one-step walk exceeds
    # q * rho^m: the walk passes within err of an endpoint, where only
    # the exact fallback may choose the atom.  Each start takes a fresh
    # model, because that fallback refines the table and a finer table
    # shrinks err.  The checkpoints cut the walk into one-step segments.
    k = 30
    calls = []
    atom_of = IET.atom_of
    monkeypatch.setattr(IET, "atom_of", lambda E, x: calls.append(x) or atom_of(E, x))
    for i in range(build().E.N - 1):
        for sign in (1, -1):
            model = build()
            E = model.E
            x = E.rights[i] + sign * model.rho**m
            p = model.point_of(x)
            q, _, err, *_ = walk_certificate(E, model.value_of(p), 1)
            calls.clear()
            end, counts, marks = model.psi_orbit(p, k, checkpoints=range(1, k + 1))
            assert calls  # the fallback chose an atom
            y, word = x, []
            for t in range(1, k + 1):
                word.append(E.locate(y) + 1)
                y = E.apply(y)
                assert marks[t][0] == model.point_of(y).z, (i, sign, t)
            assert counts == [word.count(j) for j in range(1, E.N + 1)]
            assert model.value_of(end) == y
            assert E.orbit(x, k) == (tuple(word), y)
            assert q * float(model.rho**m) < err  # the start is that close


def test_signs_after_each_scaled_position_stay_fast():
    # a sign check on a 2^P-scaled walk position needs more than P bits,
    # so taking a new certificate after each check doubles the table
    # every time, here to 2^16 bits; the generator refines quadratically
    model = builders.quartic_model()
    rng = random.Random(17)
    start = time.perf_counter()
    for _ in range(10):
        z = tuple(rng.randint(-(10**6), 10**6) for _ in range(model.n))
        p = LatticePoint((0,) * model.n, z)
        q, X, err, *_ = walk_certificate(model.E, model.value_of(p), 0)
        qv = q * model.value_of(p)
        assert (qv - X - err).sign() <= 0 <= (qv - X + err).sign()
    assert time.perf_counter() - start < 2.0
    assert model.field._enc.bits >= 16384


def test_unit_representative_of_huge_coordinates():
    # at the first table precision (64 bits) these coordinates would leave
    # about 2.4e11 candidates for m0, each an exact sign
    model = builders.quartic_model()
    zfree = (2**100 + 12345, -(2**99) - 777, 2**98 + 5)
    start = time.perf_counter()
    zeta = unit_representative(model, zfree)
    assert time.perf_counter() - start < 0.5
    assert model.module.m_coords(zeta)[1:] == zfree
    step = Fraction(model.module.j, model.module.d)
    assert zeta.sign() >= 0 and (zeta - step).sign() < 0


@pytest.mark.parametrize(
    "build, ks", [(builders.quartic_model, range(31, 47)), (builders.e2star_model, range(26, 46))]
)
def test_unit_representative_checks_its_first_candidate(build, ks):
    # -rho^k lies within 2^-60..2^-85 of a multiple of j/d, so the least
    # m0 has two candidates and the first one can fall below 0.  Each call
    # gets a freshly built model, whose sign table is still at low
    # precision; one shared model would refine its table past the point
    # where a second candidate shows up.
    model = build()
    for k in ks:
        zfree = model.module.m_coords(-model.rho**k)[1:]
        fresh = build()
        zeta = unit_representative(fresh, zfree)
        assert fresh.module.m_coords(zeta)[1:] == zfree
        step = Fraction(fresh.module.j, fresh.module.d)
        assert zeta.sign() >= 0 and (zeta - step).sign() < 0, k


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


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_value_of_is_the_module_sum(name):
    # one integer combination equals the layer element plus the module point
    model = JUMP_MODELS[name]()
    for x in walk_starts(model):
        p = model.point_of(x)
        for z in (p.z, tuple(3 * c - 7 for c in p.z)):
            q = LatticePoint(p.layer, z)
            want = Span(model.module.basis).combine(p.layer) + model.module.from_m_coords(z)
            assert model.value_of(q) == want
        assert model.value_of(p) == x


def test_psi_orbit_matches_exact_orbit(walk_models, apply_steps):
    for model in walk_models.values():
        for x in walk_starts(model):
            p = model.point_of(x)
            end, counts, marks = model.psi_orbit(p, 300, checkpoints=(100,))
            head, mid = apply_steps(model.E, x, 100)
            tail, y = apply_steps(model.E, mid, 200)
            word = head + tail
            assert model.value_of(end) == y
            assert counts == [word.count(i) for i in range(1, model.E.N + 1)]
            assert marks[100][0] == model.point_of(mid).z


def test_walk_from_a_large_point_stays_on_integers(apply_steps, monkeypatch):
    # rho^40 has |z| near 2^82; at the table's first 64 bits nearly every
    # step of this walk fell back to an exact atom_of.  The model has no
    # scaling factor, so the walk steps.
    scaled = builders.quartic_model()
    model = LatticeModel(scaled.E)
    x = scaled.rho**40
    p = model.point_of(x)
    assert max(map(abs, p.z)).bit_length() > 80
    calls = []
    atom_of = IET.atom_of
    monkeypatch.setattr(IET, "atom_of", lambda E, x: calls.append(x) or atom_of(E, x))
    end, _, _ = model.psi_orbit(p, 1000)
    assert len(calls) <= 2
    assert model.value_of(end) == apply_steps(model.E, x, 1000)[1]


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


def edge_windows(model):
    """Windows [lo, hi) with a module point on lo, on hi and within 2^-200
    of either, besides plain rational and generator windows."""
    g = model.field.generator_element()
    g = g - math.floor(float(g))
    edge = unit_representative(model, (1,) + (0,) * (model.n - 2))
    return [
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


def test_interval_predicate_matches_exact_membership(walk_models):
    for name in ("quartic", "e2star", "ek1"):
        model = walk_models[name]
        free = model.n - 1
        for lo, hi in edge_windows(model):
            member = interval_predicate(model, lo, hi)
            for rest in itertools.product(range(-2, 3), repeat=free):
                for r in range(model.module.b):
                    want = exact_member(model, lo, hi, (r,) + rest)
                    assert member((r,) + rest) == want, (name, lo, hi, r, rest)


def test_density_rows_match_points_with_the_same_exact_rechecks(walk_models, monkeypatch):
    # the member's row count against the plain callable a tracer hands
    # in, point by point; both re-check the same candidates exactly
    rechecks = []
    recheck = ModuleData.from_m_coords

    def counted(self, m):
        rechecks.append(m)
        return recheck(self, m)

    monkeypatch.setattr(ModuleData, "from_m_coords", counted)
    for name in ("quartic", "e2star", "ek1"):
        model = walk_models[name]
        total = 0
        for lo, hi in edge_windows(model):
            member = interval_predicate(model, lo, hi)
            rechecks.clear()
            rows = density_estimate(model, member, 2)
            by_rows = len(rechecks)
            rechecks.clear()
            assert density_estimate(model, lambda r: member(r), 2) == rows, (name, lo, hi)
            assert len(rechecks) == by_rows, (name, lo, hi)
            total += by_rows
        assert total > 0, name  # the edge windows reach the exact re-check


def test_density_is_additive_at_a_module_point(walk_models):
    rng = random.Random(3)
    for name in ("quartic", "e2star", "ek1"):
        model = walk_models[name]
        for _ in range(3):
            c = unit_representative(model, [rng.randint(-2, 1) for _ in range(model.n - 1)])
            lo, hi = c - Fraction(1, 3), c + Fraction(1, 3)
            parts = [density_estimate(model, interval_predicate(model, a, b), 3)
                     for a, b in ((lo, c), (c, hi), (lo, hi))]
            assert parts[0] + parts[1] == parts[2], (name, c)


def test_density_of_a_rank_one_model_counts_residues():
    # Q with module basis 1/6: M = Z/6, b = 6, and phi'(M cap [lo, hi))
    # holds the residues of the sixths in [lo, hi)
    K = NumberField(root_in(IntPoly([-1, 2]), 0, 1))
    E = IET(Permutation([3, 1, 2]), [K.coerce(Fraction(1, c)) for c in (2, 3, 6)])
    model = LatticeModel(E, basis=[Fraction(1, 6)])
    assert (model.n, model.module.b) == (1, 6)
    for lo, hi, want in ((0, Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(1, 6), Fraction(1, 3), Fraction(1, 6)),
                         (0, 1, 1)):
        member = interval_predicate(model, lo, hi)
        assert density_estimate(model, member, 5) == want
        assert density_estimate(model, lambda r: member(r), 1) == want


def test_bench_density_matches_under_the_tracer():
    # the bench's traced run wraps the member in a plain function
    bench = Path(__file__).resolve().parents[1] / "bench"
    tracer, workloads = (_load(bench / f"{name}.py") for name in ("tracer", "workloads"))
    model = builders.e2star_model()
    want = workloads.density(model, 3, 8)
    tr = tracer.Tracer().install()
    try:
        got = workloads.density(model, 3, 8)
    finally:
        tr.uninstall()
    assert got == want
    assert tr.stats["lattice.predicate"][0] == want[1]


def _load(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_psi_orbit_rejects_negative_lengths_and_stray_checkpoints(quartic_lattice):
    _, _, model = quartic_lattice
    p = LatticePoint((0,) * 4, (0,) * 4)
    with pytest.raises(ValueError):
        model.psi_orbit(p, -5)
    for stops in ((0, 5), (0,), (4,), (1, 4)):
        with pytest.raises(ValueError):
            model.psi_orbit(p, 3, checkpoints=stops)
    assert set(model.psi_orbit(p, 3, checkpoints=(1, 3))[2]) == {1, 3}
    assert model.psi_orbit(p, 0) == (p, [0] * 4, {})


@pytest.mark.parametrize("name", ["quartic", "ek1"])
def test_psi_orbit_rejects_non_integer_lengths_and_checkpoints(jump_models, name):
    # floats and Fractions are refused by name before any step, on the
    # stepped and the jumping path alike; True counts as one step
    model = jump_models[name]
    p = model.point_of(model.E.rights[0] / 3)
    for k in (3.0, 2.5, Fraction(7, 2), Fraction(4), 2.0**15):
        with pytest.raises(TypeError, match="k must be an integer"):
            model.psi_orbit(p, k)
    for stop in (2.0, Fraction(2), Fraction(5, 2)):
        with pytest.raises(TypeError, match="checkpoint must be an integer"):
            model.psi_orbit(p, 5, checkpoints=(stop,))
    assert model.psi_orbit(p, True) == model.psi_orbit(p, 1)
    assert model.psi_orbit(p, 5, checkpoints=(True, 3)) == model.psi_orbit(p, 5, checkpoints=(1, 3))


def test_building_and_one_step_build_no_towers(monkeypatch):
    # paper_report builds E_k models that never walk, and bench setup
    # walks one step: neither may pay for towers or first-return models
    import ietlab.lattice

    def refuse(*args):
        raise AssertionError("first-return map built")

    monkeypatch.setattr(ietlab.lattice, "induce", refuse)
    models = [builders.quartic_model(), builders.e2star_model()]
    models += [builders.ek_model(k) for k in (1, 2, 4)]
    for model in models:
        assert model._towers is None
        model.psi_orbit(model.point_of(model.field.zero), 1)
        assert model._towers is None


JUMP_LENGTHS = (2, 3, 5, 17, 64, 250, 1111, 2500)


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_jumps_match_the_exact_orbit(name, apply_steps, monkeypatch):
    model = JUMP_MODELS[name]()
    E = model.E
    stepped = []
    step = LatticeModel._step
    monkeypatch.setattr(LatticeModel, "_step", lambda m, p, k: stepped.append(k) or step(m, p, k))
    stops = (1, 7, 100, 1234, 2499)
    needed = set(JUMP_LENGTHS) | set(stops)
    for x in walk_starts(model):
        p = model.point_of(x)
        word, y = apply_steps(E, x, JUMP_LENGTHS[-1])
        prefix = {}  # the letter counts of the word's prefixes that the checks need
        counts = [0] * E.N
        for t, s in enumerate(word, start=1):
            counts[s - 1] += 1
            if t in needed:
                prefix[t] = counts[:]
        for k in JUMP_LENGTHS:
            marked = stops if k == JUMP_LENGTHS[-1] else ()
            end, got, marks = model.psi_orbit(p, k, checkpoints=marked)
            assert got == prefix[k], (x, k)
            assert end.layer == p.layer and end.z == ledger(model, p, prefix[k]), (x, k)
        assert model.value_of(end) == y
        want = {t: ledger(model, p, prefix[t]) for t in stops}
        assert {t: z for t, (z, _) in marks.items()} == want
    # every segment that reaches a level-1 tower jumped, and the longest
    # walks climbed at least three levels
    assert stepped and max(stepped) < min(model._towers.height(1))
    assert max(JUMP_LENGTHS) >= min(model._towers.height(3))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(JUMP_MODELS)),
    zfree=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    third=st.booleans(),
    a=st.one_of(st.integers(0, 40), st.integers(0, 2**45)),
    b=st.one_of(st.integers(0, 40), st.integers(0, 2**45)),
)
def test_walks_compose(jump_models, name, zfree, third, a, b):
    model = jump_models[name]
    x = unit_representative(model, zfree[: model.n - 1])
    if third:
        x = x * Fraction(1, 3)  # a rational layer xi != 0
    p = model.point_of(x)
    mid, first, _ = model.psi_orbit(p, a)
    end, second, _ = model.psi_orbit(mid, b)
    whole, counts, _ = model.psi_orbit(p, a + b)
    assert whole == end
    assert counts == [u + v for u, v in zip(first, second)]
    assert end.z == ledger(model, p, counts)


def domain_point(model, rng, den):
    """A field point in [0, total) with power coordinates in (1/den)Z."""
    g = model.field.generator_element()
    while True:
        x = sum((g**i * Fraction(rng.randint(-3 * den, 3 * den), den) for i in range(model.n)), model.field.zero)
        x = x - math.floor(float(x))
        if x.sign() >= 0 and (x - model.total).sign() < 0:
            return x


def pinned_starts(model):
    """The model's atom left ends, 6 points of layer 0 and 10 of rational
    layers xi != 0, drawn as the lattice_walk benchmark draws its starts."""
    starts = [model.point_of(x) for x in model.E.lefts]
    rng = random.Random(f"starts/{model.name}")
    starts += [model.point_of(domain_point(model, rng, 1)) for _ in range(6)]
    while len(starts) < model.E.N + 16:
        p = model.point_of(domain_point(model, rng, rng.choice((3, 4, 5, 6))))
        if any(p.layer):
            starts.append(p)
    return starts


def test_walk_outputs_are_pinned():
    # (end, counts) of every pinned start and walk length, one sha256
    # prefix per walk and one over their concatenation: the exact walks,
    # which no change to how jumps or steps are computed may move
    parts = []
    for model in [builders.quartic_model(), builders.e2star_model(), *map(builders.ek_model, (1, 2, 4))]:
        for p in pinned_starts(model):
            for k in (2, 3, 7, 100, 999, 12345, 2**15, 2**18, 2**21):
                end, counts, _ = model.psi_orbit(p, k)
                text = json.dumps([[[str(c) for c in end.layer], list(end.z)], counts], separators=(",", ":"))
                parts.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert len(parts) == 112 * 9
    assert hashlib.sha256("".join(parts).encode()).hexdigest()[:16] == "379c6e53e71b7064"


def test_near_bound_walk_outputs_are_pinned():
    # (end, counts) from the points within 2^-200 of every atom left end,
    # whose jumps meet a bound off its left end, digested as the pinned
    # walks are: no change to how such a miss is decided may move them
    parts = []
    for model in [builders.quartic_model(), builders.e2star_model(), *map(builders.ek_model, (1, 2, 4))]:
        N = model.E.N
        for x in walk_starts(model)[N : 3 * N - 1]:
            p = model.point_of(x)
            for k in (2, 3, 7, 100, 2500, 2**15, 2**21, 2**40):
                end, counts, _ = model.psi_orbit(p, k)
                text = json.dumps([[[str(c) for c in end.layer], list(end.z)], counts], separators=(",", ":"))
                parts.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert len(parts) == 59 * 8
    assert hashlib.sha256("".join(parts).encode()).hexdigest()[:16] == "8bdfecead08dea53"


def inverse_model(model):
    """The lattice model of E^-1 over the module basis, factor and window
    of the model of E: E^-1 exchanges E's image intervals, in image order,
    by -tau.  Its first return to the window is the inverse of E's."""
    E = model.E
    order = image_order(E)
    inverse = iet_from_translations([E.lengths[i] for i in order], [-E.translations[i] for i in order])
    return LatticeModel(inverse, model.rho, window=model.window, basis=model.module.basis)


def image_order(E):
    """E's atoms (0-based) in the order of their images: atom r of E^-1
    is the image of E's atom image_order(E)[r]."""
    return sorted(range(E.N), key=E.perm.images.__getitem__)


# the models whose inverse walks are checked
INVERSE_MODELS = {
    "quartic": builders.quartic_model,
    "e2star": builders.e2star_model,
    "ek2": lambda: builders.ek_model(2),
    "ek4": lambda: builders.ek_model(4),
}


@pytest.mark.parametrize("name", sorted(INVERSE_MODELS))
def test_inverse_orbits_come_back(name):
    # E^-1 undoes k exact steps of E letter by letter, from the atom left
    # ends, where the walk's band meets a bound, and 2^-200 beside them
    model = INVERSE_MODELS[name]()
    E, inverse, order = model.E, inverse_model(model).E, image_order(model.E)
    eps = Fraction(1, 2**200)
    for x in (*E.lefts, E.lefts[0] + eps, *(c + s * eps for c in E.lefts[1:] for s in (-1, 1))):
        for k in (1, 2, 7, 100, 3000):
            word, y = E.orbit(x, k)
            back, z = inverse.orbit(y, k)
            assert z == x, (x, k)
            assert [order[a - 1] + 1 for a in reversed(back)] == list(word), (x, k)


@pytest.mark.parametrize("name", sorted(INVERSE_MODELS))
def test_inverse_walks_come_back(name):
    # psi^-k(psi^k(p)) = p through both models' towers, with psi^-k's
    # counts those of psi^k read in image order, up to k near 2^61: the
    # levels above those of every other walk test.  The starts within
    # 2^-200 of an atom left end meet a bound off its left end
    model = INVERSE_MODELS[name]()
    inverse, order = inverse_model(model), image_order(model.E)
    assert inverse.module.nu_prime == model.module.nu_prime  # one lattice
    rng = random.Random(f"inverse/{name}")
    N = model.E.N
    near = [model.point_of(x) for x in walk_starts(model)[N : 3 * N - 1]]
    for p in pinned_starts(model) + near:
        for j in (1, 2, 5, 15, 21, 40, 60):
            k = 2**j + rng.randrange(2**j)
            end, counts, _ = model.psi_orbit(p, k)
            back, inverse_counts, _ = inverse.psi_orbit(end, k)
            assert back == p, (p, k)
            assert inverse_counts == [counts[i] for i in order], (p, k)


@pytest.mark.parametrize("name", ["quartic", "e2star", "ek2"])
def test_a_2_40_step_walk_takes_under_a_second(name):
    model = JUMP_MODELS[name]()
    p = model.point_of(model.E.rights[1] / 3)
    k = 2**40
    start = time.perf_counter()
    end, counts, _ = model.psi_orbit(p, k)
    assert time.perf_counter() - start < 1.0
    assert sum(counts) == k
    assert end.z == ledger(model, p, counts)
    x = model.value_of(end)
    assert x.sign() >= 0 and (x - model.total).sign() < 0


def jump_steps(model, towers, x, k, L):
    """The steps of a k-step jump from x to level L: `integer_climb` from
    x's lattice point."""
    return towers.integer_climb(model.point_of(x), k, L)


def scaled_steps(towers, steps, L):
    """(step, stage, q) per step of a jump to level L: the stage (0, 1, 2)
    of the stage sequence and the scale q = d 2^P of its table, read as
    the step is yielded, since a restart raises P mid-stream."""
    for step, s in zip(steps, itertools.chain([0], itertools.repeat(1, L - 1), itertools.repeat(2))):
        P, d, *_ = towers.stages[s]._table()
        yield step, s, d << P


def start_claims(model, cells, points, k):
    """(q x, X - err, X + err) for the start (X, err) of each lattice point
    at the scale q of the cells' table, for the exact checks of the caller."""
    claims = []
    for p in points:
        X, err = model.position(p, k, cells)
        P, d, *_ = cells._table()
        assert P == model.field.precision
        claims.append(((d << P) * model.value_of(p), X - err, X + err))
    return claims


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_a_walk_start_encloses_its_point(name):
    # |q x - X| <= err for the start that a jump takes from the lattice
    # coordinates, at the scale of stage 1 (d = 2 for E_k) and of the
    # IET's atoms, on atom left ends, layer-0 points, rational layers with
    # denominators 3 to 6 (the rational points j / M among them, whose
    # start is exact but for the rescale's floor) and |z| up to 2^40; at
    # 64 bits, where the small points keep the table, and again at 256
    model = JUMP_MODELS[name]()
    rng = random.Random(f"starts/{name}")
    n, first = model.n, model.towers().stages[0]
    small = [model.point_of(x) for x in model.E.lefts]
    small += [model.point_of(Fraction(j, M)) for M in (3, 4, 5, 6) for j in range(1, M)]
    for M in (1, 3, 4, 5, 6):
        layer = [Fraction(rng.randrange(M), M) for _ in range(n)]
        small.append(LatticePoint(layer, [rng.randint(-9, 9) for _ in range(n)]))
    large = [LatticePoint([Fraction(rng.randrange(M), M) for _ in range(n)],
                          [rng.randint(-(2**40), 2**40) for _ in range(n)]) for M in (1, 1, 3, 4, 5, 6)]
    assert any(any(p.layer) for p in small) and any(p.layer == (0,) * n for p in small)
    claims = []
    for bits in (64, 256):
        model.enclose(bits=bits)
        for points in (small, large):
            for cells in (first, model.E):
                claims += start_claims(model, cells, points, 2**15)
            assert model.field.precision == bits or points is large
    # signs last: they refine the sign table, which later starts would use
    for qx, lo, hi in claims:
        assert (qx - lo).sign() >= 0 >= (qx - hi).sign()


def meets_a_corner(towers, x, L):
    """Whether the climb that locates every level reaches a cell's left
    end below level L: an oracle for the corners that jumps decide on
    integers."""
    for cells in itertools.islice(Towers._sequence(towers.stages), L):
        i = cells.locate(x)
        if x == cells.lefts[i]:
            return True
        _, x = cells.step(x, i)
    return False


def corner_starts(model):
    """The field points of the pinned layer-0 starts (`pinned_starts`)
    whose 2^15-step jump meets a corner below its level.  The search
    refines the model's sign table, so callers walk on a fresh model."""
    towers, N = model.towers(), model.E.N
    L = level_of(towers, 2**15)
    starts = [model.value_of(p) for p in pinned_starts(model)[N : N + 6]]
    return [x for x in starts if meets_a_corner(towers, x, L)]


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_jumps_form_a_field_point_only_on_a_miss(name, monkeypatch):
    # a walk from a rational layer climbs on integers from its lattice
    # coordinates alone; one from an atom left end, whose band meets a
    # tile bound at level 1, or from a layer-0 point whose band meets one
    # higher up, is at a corner, which the integers decide, so it forms
    # no point either; one from within 2^-200 of an atom left end meets
    # the same bound off the corner, and its climb starts again at a
    # finer sign table, on integers too: none forms its point
    corners = corner_starts(JUMP_MODELS[name]())
    model = JUMP_MODELS[name]()
    model.towers()
    corners = list(map(model.point_of, corners))
    starts = walk_starts(model)
    N = model.E.N
    rational = [p for p in map(model.point_of, starts[3 * N - 1:]) if any(p.layer)]
    lefts = [model.point_of(x) for x in model.E.lefts]
    near = [model.point_of(x) for x in starts[N : 3 * N - 1]]
    assert len(rational) >= 3 and corners
    combined = []
    combine = Span.combine
    monkeypatch.setattr(Span, "combine", lambda span, *a: combined.append(a) or combine(span, *a))
    for k in (2**15, 2**21):
        for p in rational + lefts + corners:
            model.psi_orbit(p, k)
            assert not combined, (p, k)
    assert model.field.precision == 64
    for k in (2**15, 2**21):
        for p in near:
            model.psi_orbit(p, k)
            assert not combined, (p, k)
    assert model.field.precision > 64


def test_a_denied_corner_restarts_to_the_same_walk(monkeypatch):
    # `_corner` answering False once, at its n-th call, for every n, makes
    # the climb start again at twice the precision from a point on a
    # bound, as if it were off it: from the atom left ends and the
    # layer-0 corner starts, at 2^15 and 2^40 steps, every walk equals
    # the undenied one.  Each case walks a fresh model, since each restart
    # doubles the shared sign table.  Some denials come after a corner of
    # the top map, the only restarts there in the tests
    corner = Towers._corner
    calls, deny, forced = [], [0], {}

    def denied(towers, p, j, placed, met, L):
        calls.append(j)
        answer = corner(towers, p, j, placed, met, L)
        if answer and len(calls) == deny[0]:
            forced[towers.model.name].append(j is not None)  # after a corner of the top map
            return False
        return answer

    for name, build in sorted(JUMP_MODELS.items()):
        ref = build()
        starts = [ref.point_of(x) for x in [*ref.E.lefts, *corner_starts(build())]]
        forced[ref.name] = []
        with monkeypatch.context() as patch:
            patch.setattr(Towers, "_corner", denied)
            for p in starts:
                for k in (2**15, 2**40):
                    deny[0], calls[:] = 0, []
                    want = build().psi_orbit(p, k)
                    for n in range(1, len(calls) + 1):
                        deny[0], calls[:] = n, []
                        assert build().psi_orbit(p, k) == want, (name, p, k, n)
        assert len(forced[ref.name]) >= len(starts), name
    assert any(map(any, forced.values()))


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_jumps_from_outside_the_domain_raise(name, monkeypatch):
    # a start below 0 or from total on never settles in a cell: its climb
    # raises once the band lies outside the domain, or at once for total
    # itself, whose band meets the last bound at every precision, while a
    # start just inside total restarts and walks.  A spy stops a climb that
    # restarts more than a few times instead of refining without end
    model = JUMP_MODELS[name]()
    k = 2**15
    assert level_of(model.towers(), k) > 0
    climbs = []
    climb = Towers.integer_climb

    def bounded(towers, p, k, L):
        climbs.append(p)
        assert len(climbs) <= 4, "restarts do not end"
        return climb(towers, p, k, L)

    monkeypatch.setattr(Towers, "integer_climb", bounded)
    total = model.total
    end, counts, _ = model.psi_orbit(model.point_of(total - TINY), k)
    assert sum(counts) == k and len(climbs) > 1
    for x in (total, total + TINY, -TINY, 2 * total):
        climbs.clear()
        with pytest.raises(ValueError, match="point outside the domain"):
            model.psi_orbit(model.point_of(x), k)


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_short_walks_form_no_field_point(name, monkeypatch):
    # 1-, 2- and 3-step walks below every level-1 tower step from the
    # lattice coordinates: from a rational layer no atom is in doubt, so
    # no point is formed, and the counts are the exact orbit's
    model = JUMP_MODELS[name]()
    least = min(model.towers().height(1))
    far = walk_starts(model)[3 * model.E.N - 1:]
    starts = [(x, model.point_of(x)) for x in far if any(model.point_of(x).layer)]
    want = {(x, k): model.E.orbit(x, k)[0] for x, _ in starts for k in (1, 2, 3)}
    combined = []
    combine = Span.combine
    monkeypatch.setattr(Span, "combine", lambda span, *a: combined.append(a) or combine(span, *a))
    for x, p in starts:
        for k in (1, 2, 3):
            if k >= least:
                continue
            _, counts, _ = model.psi_orbit(p, k)
            assert counts == [want[x, k].count(i) for i in range(1, model.E.N + 1)], (x, k)
    assert not combined


def tripled(cells):
    """A copy of the cells whose integer table works at three times its
    scale: every bound, offset and factor enclosure and d times 3."""
    copy = Cells(cells.field, cells.rights, cells.tiles, cells.beta)
    P, d, lows, highs, tiles, B, e_b, moves, e = cells._table()
    tiles = [(item, 3 * C, 3 * e_c) for item, C, e_c in tiles]
    copy._ints = (P, 3 * d, [3 * v for v in lows], [3 * v for v in highs], tiles,
                  None if B is None else 3 * B, 3 * e_b, [3 * m for m in moves], 3 * e)
    return copy


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_climb_rescales_between_stages_of_different_scale(name, monkeypatch):
    # stage 1 and the top map at three times the scale of stage 2: the
    # climb rescales from 3d to d after level 1 (a floor) and from d to
    # 3d at the top map, and still encloses every exact level point, and
    # the walks that climb it keep the exact counts and ends.  Only the
    # climb's own rescales are recorded: the start's rescale to stage 1
    # (`LatticeModel.position`) may also go from d to 3d.  The sign table
    # starts at 256 bits, where no walk below restarts: a restart would
    # rebuild the tripled tables at a finer precision
    import ietlab.lattice

    model, plain = JUMP_MODELS[name](), JUMP_MODELS[name]()
    towers = model.towers()
    model.enclose(bits=256)
    first, second, top = towers.stages
    towers.stages = (tripled(first), second, tripled(top))
    scales = [d << P for P, d, *_ in (cells._table() for cells in towers.stages)]
    assert scales[0] == scales[2] == 3 * scales[1]
    rescaled = []
    climb = Towers.integer_climb.__code__

    def recorded(*a):
        if sys._getframe(1).f_code is climb:
            rescaled.append(a)
        return rescale(*a)

    monkeypatch.setattr(ietlab.lattice, "rescale", recorded)
    claims = []
    for x in walk_starts(model):
        for k, L in ((2**15, 8), (2**40, 40)):
            levels = list(scaled_steps(towers, itertools.islice(jump_steps(model, towers, x, k, L), L + 20), L))
            for (step, s, q), (nu, y) in zip(levels, located_climb(towers, x, L)):
                assert step[0] == nu and q == scales[s]
                if len(step) == 3:  # not a tile of a corner
                    claims.append((q * y, step[1] - step[2], step[1] + step[2]))
        for k in (2**15, 2**21):
            assert model.psi_orbit(model.point_of(x), k) == plain.psi_orbit(plain.point_of(x), k), (x, k)
    d = second._table()[1]
    assert {(a, b) for _, _, a, b in rescaled} >= {(3 * d, d), (d, 3 * d)}
    assert model.field.precision == 256  # no restart
    assert [e << P for P, e, *_ in (cells._table() for cells in towers.stages)] == scales  # still tripled
    for qy, lo, hi in claims:
        assert (qy - lo).sign() >= 0 >= (qy - hi).sign()


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_only_starts_on_a_tile_bound_climb_exactly(name, monkeypatch):
    # a rational layer xi != 0 never meets a tile bound, and an atom left
    # end or a layer-0 corner start meets one at a corner, so their jumps
    # never restart (0 stays exactly 0 on the integers, as c_mu = 0 below
    # it at every level), nor do the whole steps after the corner, which
    # meet an atom bound only on its left end.  The enclosures of these
    # walks never refine the sign table past its first 64 bits.  A start
    # within 2^-200 of an atom left end meets the same tile bound off the
    # corner and restarts at a finer table.  No jump climbs exactly
    corners = corner_starts(JUMP_MODELS[name]())
    model = JUMP_MODELS[name]()
    N = model.E.N
    climbs = []
    climb = Towers.climb
    monkeypatch.setattr(Towers, "climb", lambda towers, x: climbs.append(x) or climb(towers, x))
    starts = walk_starts(model)
    lefts, far = starts[:N], starts[3 * N - 1:]  # past the starts within 2^-200 of an endpoint
    rational = [x for x in far if any(model.point_of(x).layer)]
    assert len(rational) >= 3
    for k in (2**15, 2**21):
        for x in lefts + corners + rational:
            model.psi_orbit(model.point_of(x), k)
            assert not climbs, (x, k)
    assert model.field.precision == 64
    for x in starts[N : 3 * N - 1]:
        model.psi_orbit(model.point_of(x), 2**15)
        assert not climbs, x
    assert model.field.precision > 64


def whole_steps_onto_bounds(model, towers):
    """(x, r, L, k, f) per inner atom endpoint r of the top map and L in
    (2, 3): y = r - tau_j, for the atom j that maps onto r, lies inside
    its tiles, and so does x = a + f y, f = s rho^(L - 1) (s = rho when
    the model is its own top, else 1), whose level-L point is y through
    the tiles (j, 0); k, the longest walk below level L + 1, takes a
    whole level-L step from y, onto r."""
    top = towers.top.E
    s = model.rho if towers.top is model else 1
    for r in top.rights[:-1]:
        j = next(j for j, t in enumerate(top.translations) if 0 <= r - t < top.total and top.locate(r - t) == j)
        for L in (2, 3):
            k = min(towers.height(L + 1)) - 1
            if k >= towers.height(L)[j]:
                f = s * towers.top.rho ** (L - 1)
                yield model.window[0] + f * (r - top.translations[j]), r, L, k, f


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_a_whole_step_onto_an_atom_bound_goes_exact(name, apply_steps, monkeypatch):
    # from x + 2^-200 (`whole_steps_onto_bounds`) the longest walk that
    # stays at level L climbs on integers, and its first whole level-L
    # step lands 2^-200 / f past r: there the band meets an atom bound
    # off its corner, and the climb starts again at a finer sign table,
    # which the L tiles and the whole step were placed without.  Each
    # case walks a fresh model, whose table starts at 64 bits.  No walk
    # climbs exactly or forms a field point, and the counts and end
    # points are the exact orbit's
    build, ref = JUMP_MODELS[name], JUMP_MODELS[name]()
    E, cases = ref.E, list(whole_steps_onto_bounds(ref, ref.towers()))
    used = []
    climb, combine = Towers.climb, Span.combine
    monkeypatch.setattr(Towers, "climb", lambda towers, x: used.append(x) or climb(towers, x))
    monkeypatch.setattr(Span, "combine", lambda span, *a: used.append(a) or combine(span, *a))
    walks = 0
    for x, r, L, k, f in cases:
        x = x + TINY
        p = ref.point_of(x)
        model = build()
        steps = model.towers().integer_climb(p, k, L)
        precisions = [model.field.precision for _ in itertools.islice(steps, L + 2)]
        assert precisions[: L + 1] == [64] * (L + 1) and precisions[L + 1] > 64, (x, L)
        model = build()
        model.towers()
        used.clear()  # the points that building the model forms
        end, counts, _ = model.psi_orbit(p, k)
        assert not used, (x, L)
        assert model.field.precision > 64
        word, y = apply_steps(E, x, k)
        assert counts == [word.count(i) for i in range(1, E.N + 1)]
        assert model.value_of(end) == y
        walks += 1
    assert walks >= 3


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_a_whole_step_onto_an_atom_bound_stays_on_integers(name, apply_steps, monkeypatch):
    # from x itself (`whole_steps_onto_bounds`) the first whole level-L
    # step lands on r, a top atom's left end, which `_corner` decides on
    # integers: the top map goes on from the enclosure of r, with no
    # exact climb and no field point
    model = JUMP_MODELS[name]()
    towers, E = model.towers(), model.E
    used = []
    climb, combine = Towers.climb, Span.combine
    monkeypatch.setattr(Towers, "climb", lambda towers, x, *a: used.append(x) or climb(towers, x, *a))
    monkeypatch.setattr(Span, "combine", lambda span, *a: used.append(a) or combine(span, *a))
    walks = 0
    for x, r, L, k, f in whole_steps_onto_bounds(model, towers):
        steps = list(itertools.islice(jump_steps(model, towers, x, k, L), L + 2))
        assert [len(step) for step in steps] == [3] * (L + 2)
        used.clear()
        end, counts, _ = model.psi_orbit(model.point_of(x), k)
        assert not used, (x, L)
        word, y = apply_steps(E, x, k)
        assert counts == [word.count(i) for i in range(1, E.N + 1)]
        assert model.value_of(end) == y
        walks += 1
    assert walks >= 3


@pytest.mark.parametrize("U, err, B, e_b", [(1000, 0, 379, 5), (-1000, 3, 379, 5), (997, 0, 384, 0), (12345, 7, -901, 2)])
def test_scaled_holds_at_the_corners_of_the_enclosures(U, err, B, e_b):
    # q u b against the bound of `scaled` for u and b at distance err and
    # e_b from U / q and B / q, where the bound is nearly attained:
    # 1000 * 384 / 256 = 1500 lies 20 above floor(1000 * 379 / 256) = 1480,
    # against a bound of 21, and 997 * 384 / 256 = 1495.5 is 1495 but for
    # the floor
    q = 256
    X, e = scaled(U, err, B, e_b, q)
    assert X == U * B // q
    for du, db in itertools.product((-err, err), (-e_b, e_b)):
        u, b = Fraction(U + du, q), Fraction(B + db, q)
        assert abs(q * u * b - X) <= e, (du, db)


@pytest.mark.parametrize("X, err, a, b", [(1000, 0, 3, 2), (-1000, 0, 3, 2), (999, 4, 6, 4), (12345, 7, 2, 2), (-7, 5, 4, 6)])
def test_rescale_holds_at_the_corners_of_the_enclosure(X, err, a, b):
    # b u against the bound of `rescale` for u at the ends and the middle
    # of the band |a u - X| <= err: 1000 * 2 / 3 = 666.67 is 666 but for
    # the floor, and (999 + 4) * 4 / 6 = 668.67 lies 2.67 above
    # 999 * 4 / 6 = 666 against a bound of 3
    Y, e = rescale(X, err, a, b)
    assert Y == X * b // a
    for du in (-err, 0, err):
        u = Fraction(X + du, a)
        assert abs(b * u - Y) <= e, du


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_integer_climb_encloses_the_exact_climb(name):
    # |q y - X| <= err at every step that the integer climb places, L
    # levels and then whole steps of the top map, also those that go on
    # from a corner's top atom or past a restart, for the items and points
    # y of the climb that locates every level and the scale q of each
    # step's stage as the step is yielded; the signs come last, as they
    # refine the sign table that later enclosures would use
    model = JUMP_MODELS[name]()
    towers = model.towers()
    claims, tops, resumed = [], 0, 0
    for x in walk_starts(model):
        for k, L in ((2, 1), (2**15, 8), (2**40, 40)):
            levels = list(scaled_steps(towers, itertools.islice(jump_steps(model, towers, x, k, L), L + 20), L))
            for t, ((step, s, q), (nu, y)) in enumerate(zip(levels, located_climb(towers, x, L))):
                assert step[0] == nu
                if len(step) == 3:
                    claims.append((q * y, step[1] - step[2], step[1] + step[2]))
                    tops += s == 2
                    resumed += len(levels[0][0]) == 1 and t >= L
    assert len(claims) > 500 and tops > 200 and resumed > 20
    assert model.field.precision > 64  # the starts within 2^-200 restarted
    for qy, lo, hi in claims:
        assert (qy - lo).sign() >= 0 >= (qy - hi).sign()


def located_climb(towers, x, L=None):
    """The climb that locates and steps every level: `Cells.step` over
    the stage sequence, with no corner table."""
    for cells in Towers._sequence(towers.stages, L):
        item, x = cells.step(x)
        yield item, x


def level_of(towers, k):
    """The level L that `Towers.counts` climbs to for k steps."""
    while towers.least[-1] <= k:
        towers.height(len(towers.least))
    return bisect.bisect_right(towers.least, k) - 1


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_climbs_match_the_located_climb(name):
    # the steps of a jump, on integers or along corners, name the items
    # of the climb that locates every level, also past a restart, and no
    # step is exact, (item, y); and the unbounded climb of Vershik coding
    # matches it from 0 and from every atom left end, which climb along
    # corners
    model = JUMP_MODELS[name]()
    towers = model.towers()
    for x in walk_starts(model):
        for k in (2, 2**15, 2**21):
            L = level_of(towers, k)
            if L == 0:
                continue
            got = list(itertools.islice(jump_steps(model, towers, x, k, L), L + 3))
            want = list(itertools.islice(located_climb(towers, x, L), L + 3))
            assert [step[0] for step in got] == [item for item, _ in want], (x, k)
            assert all(len(step) in (1, 3) for step in got), (x, k)
    depth = 3 * level_of(towers, 2**21)
    for x in model.E.lefts:
        got = list(itertools.islice(towers.climb(x), depth))
        assert got == list(itertools.islice(located_climb(towers, x), depth)), x


@pytest.mark.parametrize("name", sorted(JUMP_MODELS))
def test_walks_from_atom_left_ends_locate_no_tile(name, monkeypatch):
    # an atom left endpoint is a tile's left end at level 1, and a layer-0
    # corner start reaches one higher up, so their jumps climb every tile
    # level along corners and take the top map's whole steps on integers:
    # no stage locates or steps a point, and no sign refines the table
    # past its 64 bits
    corners = corner_starts(JUMP_MODELS[name]())
    model = JUMP_MODELS[name]()
    model.towers()
    starts = [model.point_of(x) for x in [*model.E.lefts, *corners]]
    used = []
    locate, step = Cells.locate, Cells.step
    monkeypatch.setattr(Cells, "locate", lambda cells, x: used.append(cells) or locate(cells, x))
    monkeypatch.setattr(Cells, "step", lambda cells, x, i=None: used.append(cells) or step(cells, x, i))
    for k in (2**15, 2**21):
        for p in starts:
            model.psi_orbit(p, k)
    assert not used
    assert model.field.precision == 64


@pytest.mark.parametrize(
    "build",
    [*JUMP_MODELS.values(), *(functools.partial(builders.ek_first_return, k) for k in (1, 2, 3))],
)
def test_corners_are_the_left_ends_of_the_top_atoms(build):
    # the stage-2 cell corners[j] starts where top atom j starts, and every
    # tile of both stages maps its left end to the left end of the top
    # atom of its rule, exactly
    towers = build().towers()
    first, second, top = towers.stages
    assert [second.lefts[i] for i in towers.corners] == list(top.lefts)
    for cells in (first, second):
        for i, (mu, _) in enumerate(cells.tiles):
            assert cells.step(cells.lefts[i], i) == (mu, top.lefts[mu.rule - 1])


def test_module_basis_belongs_to_the_model():
    # quartic over the basis (1, 1 + r, r^2, r^3) of Z[r]: the model's
    # module fixes R, and rho from E's field or from a field built
    # separately on the same generator gives the same model
    E = builders.quartic_model().E
    K = E.field
    r = K.generator_element()
    B = [K.one, 1 + r, r * r, r**3]
    models = [LatticeModel(E, rho, basis=B) for rho in (r, NumberField(K.generator).generator_element())]
    for model in models:
        assert model.R == [[-1, -1, 0, -8], [1, 1, 0, 7], [0, 1, 0, -13], [0, 0, 1, 7]]
        model._verify_commutation()
    a, b = models
    assert b.rho.field is K
    assert a.projection == b.projection
    assert (a.module.d, a.module.j, a.module.b) == (b.module.d, b.module.j, b.module.b) == (1, 1, 1)
    # the same ring on another basis: R is conjugate to the power-basis one
    power = builders.quartic_model()
    assert charpoly(a.R) == charpoly(power.R)


def test_a_window_needs_its_factor():
    model = builders.quartic_model()
    E, r = model.E, model.rho
    with pytest.raises(ValueError, match="needs a scaling factor"):
        LatticeModel(E, window=(0, r))
    # (0, rho*total) is the default window, and a window of that length
    # anywhere must carry the self-similar map
    assert LatticeModel(E, r, window=(0, r)).sigma.rules == model.sigma.rules
    with pytest.raises(ValueError, match="not self-similar"):
        LatticeModel(E, r, window=(Fraction(1, 2), Fraction(1, 2) + r))
    # any other window is a first return, unbuilt until a jump needs it
    first = LatticeModel(E, r, window=(0, Fraction(1, 2)))
    assert (first.sigma, first.R, first._towers) == (None, None, None)


def test_a_window_outside_the_domain_is_refused_at_construction():
    model = builders.quartic_model()
    E, r = model.E, model.rho
    assert E.total < 5
    for window in ((0, 5), (-1, 0), (r, r), (0, 0)):
        with pytest.raises(ValueError, match="nonempty subinterval of the domain"):
            LatticeModel(E, r, window=window)
    assert LatticeModel(E, r, window=(0, E.total)).window == (0, E.total)


def test_a_factor_outside_the_multiplier_ring_is_refused(quartic_iet):
    # r/2 times 1 is not in the power-basis module Z[r]
    K, r, E = quartic_iet
    with pytest.raises(ValueError, match="does not multiply the module"):
        LatticeModel(E, rho=r / 2)


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant +-1: the identity under a
    few elementary column operations and a sign change."""
    U = [[int(i == k) for k in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-3, 3))
        for row in U:
            row[j] += c * row[i]
    i = draw(st.integers(0, n - 1))
    for row in U:
        row[i] = -row[i]
    return U


def basis_invariants(model, corner):
    """(d, j, b), the drift's nullity, charpoly(R) and d_T(1..5) where R
    exists, the field point and symbol counts 1,000, 2^15 and 2^21 steps
    after total/3 (the long walks climb the towers on integers), and 2^15
    and 2^21 steps after every atom left end and after the field point
    corner, whose jumps meet a corner at a tile bound; and the number of
    field points these walks form, none when `_corner` decides every
    corner on the unit coordinates of the tiles, which depend on the
    basis."""
    m = model.module
    out = [(m.d, m.j, m.b), model.drift.is_zero]
    if model.R is not None:
        out += [charpoly(model.R), [d_T(model, T) for T in range(1, 6)]]
    walks = [(model.total / 3, k) for k in (1000, 1 << 15, 1 << 21)]
    walks += [(x, k) for x in (*model.E.lefts, corner) for k in (1 << 15, 1 << 21)]
    formed, combine = [], Span.combine
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Span, "combine", lambda span, *a: formed.append(a) or combine(span, *a))
        ends = [model.psi_orbit(model.point_of(x), k)[:2] for x, k in walks]
    for end, counts in ends:
        out += [model.value_of(end), counts]
    return out + [len(formed)]


BASIS_MODELS = {
    "quartic": builders.quartic_model,
    "e2star": builders.e2star_model,
    "ek1": lambda: builders.ek_model(1),
}


@pytest.fixture(scope="module")
def basis_models():
    """{name: (model, a layer-0 corner start, its basis_invariants)} of
    the BASIS_MODELS."""
    out = {}
    for name, build in BASIS_MODELS.items():
        model, corner = build(), corner_starts(build())[0]
        out[name] = model, corner, basis_invariants(model, corner)
    return out


@pytest.mark.parametrize("name", sorted(BASIS_MODELS))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_invariants_do_not_depend_on_the_module_basis(basis_models, name, data):
    # nu * U for a unimodular U is another Z-basis of the same module M
    model, corner, expected = basis_models[name]
    nu, n = model.module.basis, model.n
    U = data.draw(unimodular(n))
    basis = [sum((nu[k] * U[k][i] for k in range(n)), model.field.zero) for i in range(n)]
    again = LatticeModel(model.E, model.rho, window=model.window, basis=basis)
    assert again.module.basis == basis
    assert basis_invariants(again, corner) == expected
