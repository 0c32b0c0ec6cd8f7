import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab import builders, numberfield
from ietlab.algebraic import root_in
from ietlab.iet import (
    IET,
    Cells,
    Permutation,
    check_self_similar,
    iet_from_translations,
    induce,
    staircase_discrepancy,
    tiling_order,
    translations_from,
)
from ietlab.lattice import LatticeModel, interval_predicate, unit_representative
from ietlab.numberfield import FieldElement, NumberField
from ietlab.polynomials import IntPoly
from ietlab.vershik import vershik_encode

def golden_field():
    return NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2))


def golden_rotation():
    K = golden_field()
    phi = K.generator_element()
    return IET(Permutation([2, 1]), [2 - phi, phi - 1])


def test_permutation_validation():
    Permutation([2, 1])
    Permutation([4, 2, 1, 3])
    with pytest.raises(ValueError):
        Permutation([1, 2])  # identity is reducible
    with pytest.raises(ValueError):
        Permutation([2, 1, 3])  # fixes {1,2}
    with pytest.raises(ValueError):
        Permutation([2, 2, 1])


def test_rotation_translations():
    K = golden_field()
    phi = K.generator_element()
    a = phi - 1
    taus = translations_from(Permutation([2, 1]), [a, 1 - a])
    assert taus[0] == 1 - a
    assert taus[1] == -a


def test_quartic_translation_coordinates(quartic_iet):
    _, _, E = quartic_iet
    expected = [(1, -1, 0, 0), (1, -5, 5, -1), (-1, 3, -1, 0), (0, -1, 0, 0)]
    for tau, coords in zip(E.translations, expected):
        assert tuple(tau.power_coords) == tuple(Fraction(c) for c in coords)
    assert E.total == E.field.one


def test_tiling_is_exact(quartic_iet):
    _, _, E = quartic_iet
    images = sorted(
        ((left + t, right + t) for (left, right), t in zip(E.atoms(), E.translations)),
        key=lambda ab: float(ab[0]),
    )
    cursor = E.field.zero
    for a, b in images:
        assert a == cursor
        cursor = b
    assert cursor == E.total


def test_apply_orbit_and_out_of_range(quartic_iet):
    K, r, E = quartic_iet
    word, end = E.orbit(K.zero, 3)
    assert word == (1, 4, 3)
    with pytest.raises(ValueError):
        E.apply(K.one)  # right endpoint excluded
    with pytest.raises(ValueError):
        E.apply(-Fraction(1, 7))


def test_rational_rotation_periodicity():
    K = golden_field()
    E = IET(Permutation([2, 1]), [K.from_rational(Fraction(1, 3)), K.from_rational(Fraction(2, 3))])
    x = K.from_rational(Fraction(1, 10))
    word, end = E.orbit(x, 3)
    assert end == x


def test_staircase_discrepancy(quartic_iet):
    K, _, E = quartic_iet
    s, D = staircase_discrepancy(E, K.zero, 0)
    assert s == [0, 0, 0, 0]
    assert all(d == K.zero for d in D)
    s, D = staircase_discrepancy(E, K.zero, 3)
    assert s == [1, 0, 1, 1]
    for i in range(4):
        assert K.from_rational(Fraction(s[i])) == 3 * E.lengths[i] + D[i]
    k = 25
    s, _ = staircase_discrepancy(E, K.from_rational(Fraction(1, 3)), k)
    assert sum(s) == k
    # s comes from the walk's counts: those of the coding word
    x, k = E.total / 3, 3000
    word, _ = E.orbit(x, k)
    s, D = staircase_discrepancy(E, x, k)
    assert s == [word.count(i) for i in range(1, 5)]
    for i in range(4):
        assert K.from_rational(s[i]) == k * E.lengths[i] + D[i]


def test_orbit_and_staircase_reject_negative_lengths(quartic_iet):
    K, _, E = quartic_iet
    for k in (-1, -3):
        with pytest.raises(ValueError):
            E.orbit(K.zero, k)
        with pytest.raises(ValueError):
            staircase_discrepancy(E, K.zero, k)
    assert E.orbit(K.zero, 0) == ((), K.zero)


def test_orbit_rejects_non_integer_lengths(quartic_iet):
    # a float or a Fraction k is refused by name at the entry, and True
    # counts as one step
    K, _, E = quartic_iet
    for k in (2.5, 3.0, Fraction(5, 2), Fraction(3)):
        with pytest.raises(TypeError, match="k must be an integer"):
            E.orbit(K.zero, k)
    assert E.orbit(K.zero, True) == E.orbit(K.zero, 1)


def test_iet_from_translations_round_trip():
    K = golden_field()
    phi = K.generator_element()
    a = phi - 1
    E = iet_from_translations([a, 1 - a], [1 - a, -a])
    assert E.perm == Permutation([2, 1])
    with pytest.raises(ValueError):
        iet_from_translations([a, 1 - a], [K.zero, K.zero])  # identity, reducible
    with pytest.raises(ValueError):
        iet_from_translations([a, 1 - a], [1 - a, a])  # overlapping images


def test_induce_full_window_is_identity_data():
    K = golden_field()
    phi = K.generator_element()
    E = IET(Permutation([2, 1]), [phi - 1, 2 - phi])
    im = induce(E, window=(K.zero, K.one))
    assert im.induced == E
    assert im.return_words == ((1,), (2,))


def test_induce_refuses_a_reducible_first_return_map():
    # rotation by 2 on [0, 4): every point of [1, 3) first returns to
    # itself after two steps, so the first-return map is the identity
    K = golden_field()
    E = IET(Permutation([2, 1]), [K.from_rational(2), K.from_rational(2)])
    with pytest.raises(ValueError, match="reducible permutation"):
        induce(E, (1, 3))


def test_quartic_induction_on_first_atom(quartic_iet):
    K, r, E = quartic_iet
    im = induce(E, (K.zero, r))
    assert im.induced.perm == E.perm
    for li, l in zip(im.induced.lengths, E.lengths):
        assert li == r * l
    assert im.return_words == (
        (1, 4, 3),
        (1, 4, 3, 2, 2, 3),
        (1, 4, 3, 2, 3),
        (1, 4, 4, 3),
    )


def test_return_words_concatenate_with_base_coding(quartic_iet):
    # following the tower: orbit of a window point replays its return word
    K, r, E = quartic_iet
    im = induce(E, (K.zero, r))
    for (left, right), word in zip(im.induced.atoms(), im.return_words):
        x = (left + right) / 2
        got, end = E.orbit(x, len(word))
        assert got == word
        assert (end - im.window[0]).sign() >= 0 and (end - im.window[1]).sign() < 0


def test_check_self_similar_quartic(quartic_iet):
    K, r, E = quartic_iet
    ok, sigma = check_self_similar(E, r)
    assert ok
    assert sigma.rules == {
        1: (1, 4, 3),
        2: (1, 4, 3, 2, 2, 3),
        3: (1, 4, 3, 2, 3),
        4: (1, 4, 4, 3),
    }


def test_check_self_similar_golden_rotation():
    K = golden_field()
    phi = K.generator_element()
    rho = 2 - phi  # contraction of the golden rotation
    E = IET(Permutation([2, 1]), [2 - phi, phi - 1])
    ok, sigma = check_self_similar(E, rho)
    assert ok
    assert sigma.is_primitive()


def test_check_self_similar_rejects_wrong_scale():
    K = golden_field()
    phi = K.generator_element()
    E = IET(Permutation([2, 1]), [2 - phi, phi - 1])
    ok, sigma = check_self_similar(E, Fraction(1, 2))
    assert not ok and sigma is None


def test_keane_finite_horizon(quartic_iet):
    # discontinuity orbits stay disjoint over a desk-scale horizon
    K, r, E = quartic_iet
    pts = [left for (left, _) in E.atoms()[1:]]
    seen = set()
    horizon = 120
    for p in pts:
        x = p
        for _ in range(horizon):
            key = x
            assert key not in seen
            seen.add(key)
            x = E.apply(x)


def test_serialization_round_trip(quartic_iet):
    _, _, E = quartic_iet
    data = E.to_data()
    E2 = IET.from_data(data)
    assert E2 == E
    assert E2.translations == E.translations


# each entry point that takes an outside value: (name, call, int, Fraction);
# call(E, model, x) returns something comparable
COERCING = [
    ("atom_of", lambda E, model, x: E.atom_of(x), 0, Fraction(1, 2)),
    ("apply", lambda E, model, x: E.apply(x), 0, Fraction(1, 10)),
    ("induce", lambda E, model, x: induce(E, (x, E.total)).induced, 0, Fraction(1, 2)),
    ("check_self_similar", lambda E, model, x: check_self_similar(E, x)[0], 1, Fraction(1, 2)),
    ("LatticeModel", lambda E, model, x: LatticeModel(E, rho=x).sigma, 1, Fraction(1)),
    (
        "LatticeModel window",
        lambda E, model, x: LatticeModel(E, model.rho, window=(x, E.total)).window,
        0,
        Fraction(1, 2),
    ),
    (
        "interval_predicate",
        lambda E, model, x: [
            interval_predicate(model, lo, hi)((0, a, b, 0))
            for lo, hi in ((x, Fraction(2, 3)), (Fraction(-1, 2), x))
            for a, b in itertools.product(range(-2, 3), repeat=2)
        ],
        0,
        Fraction(1, 3),
    ),
    ("vershik_encode", lambda E, model, x: vershik_encode(model, x, depth=40), 0, Fraction(1, 3)),
]


@pytest.mark.parametrize("name, call, i, q", COERCING, ids=[c[0] for c in COERCING])
def test_outside_values_take_the_one_coercion(quartic_model, name, call, i, q):
    K, r, model = quartic_model
    E = model.E
    for x in (i, q):
        assert call(E, model, x) == call(E, model, K.from_rational(x))
    other = NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2)).generator_element() - 1
    # a float is inexact, even one that is a dyadic rational
    for bad in (other, float(q), float(i)):
        with pytest.raises(TypeError):
            call(E, model, bad)


# fresh maps, so each test starts from the field's first sign table
BRACKET_MAPS = {
    "quartic": lambda: builders.quartic_model().E,
    "e2star": lambda: builders.e2star_model().E,
    "E_1": lambda: builders.ek_model(1).E,
    "golden": golden_rotation,
}


def scan_atom(E, x):
    """Reference: the 1-based cell of x by one exact comparison per
    endpoint, or ValueError outside [0, E.rights[-1])."""
    if x < 0 or not x < E.rights[-1]:
        return ValueError
    return next(i for i, right in enumerate(E.rights, start=1) if x < right)


def atom_or_error(E, x):
    """E.atom_of(x) for an IET, locate + 1 for other Cells, or ValueError."""
    try:
        return E.atom_of(x) if isinstance(E, IET) else E.locate(E.field.coerce(x)) + 1
    except ValueError:
        return ValueError


def theta_bracket(K, bits: int):
    """Rationals a < theta < b with b - a < 2^-bits (from a copy of the
    generator, so the field's own interval stays as it is)."""
    g = K.generator
    g = root_in(g.poly, g.lo, g.hi)
    g.refine_to(Fraction(1, 1 << bits))
    return g.lo, g.hi


def refine_by_sign(K, bits: int):
    """One sign that needs more than `bits` bits of the table."""
    a, _ = theta_bracket(K, 2 * bits + 64)
    assert (K.generator_element() - a).sign() == 1
    assert K.precision > bits


def bracket_points(E, bits: int):
    """The endpoints 0, ..., total; points within about 2^-bits of each,
    on both sides; rational points and 0.

    The near points are c +- 2^-bits; c +- 2^30 (theta - a) for a = a, b
    of `theta_bracket`, whose enclosures are wide next to their distance
    to c; and c with a or b in place of theta, rationals (exact
    enclosures) next to an endpoint whose own enclosure is wide.
    """
    K = E.field
    a, b = theta_bracket(K, bits + 30)
    theta = K.generator_element()
    tiny = [Fraction(1, 1 << bits), (1 << 30) * (theta - a), (1 << 30) * (theta - b)]
    tiny += [-t for t in tiny]
    ends = [K.zero, *E.rights]  # E.rights[-1] is total
    near = [c + t for c in ends for t in tiny]
    near += [sum(q * v**k for k, q in enumerate(c.power_coords)) for c in ends for v in (a, b)]
    return ends + near + [Fraction(k, 7) for k in range(7)] + [0]


def counted_signs(monkeypatch):
    """The list that every FieldElement.sign call appends its element to."""
    signs = []
    sign = FieldElement.sign
    monkeypatch.setattr(FieldElement, "sign", lambda x: signs.append(x) or sign(x))
    return signs


@pytest.mark.parametrize("name", BRACKET_MAPS)
def test_atom_of_matches_the_exact_scan(name, monkeypatch):
    data = BRACKET_MAPS[name]().to_data()
    E = IET.from_data(data)
    assert scan_atom(E, E.total) is ValueError
    assert scan_atom(E, -Fraction(1, 1 << 200)) is ValueError
    # each point on a fresh copy of the map, so no earlier exact sign has
    # refined the table far enough to decide it: once at the table's
    # first precision, once after a sign has refined the table past the
    # precision its endpoint bounds were built at.  Every point lies
    # within 2^-bits of at most one endpoint, so at most two exact signs
    # place it: one against that endpoint and one against 0
    signs = counted_signs(monkeypatch)
    for refined, bits in ((False, 200), (True, 600)):
        for x in bracket_points(E, bits):
            F = IET.from_data(data)
            if refined:
                F.atom_of(0)
                refine_by_sign(F.field, F.field.precision)
            if isinstance(x, FieldElement):
                x = F.field.from_power_coords(x.power_coords)
            signs.clear()
            got = atom_or_error(F, x)
            assert len(signs) <= 2, (refined, x)
            assert got == scan_atom(F, x), (refined, x)


def test_tile_cells_match_the_exact_scan(monkeypatch):
    # the 85 level-1 tiles of e2*: many cells, so a point the integer
    # bracket cannot place would take about seven exact signs in a bisection
    # of them all, but takes at most two against the endpoints whose
    # bounds its enclosure meets
    model = builders.e2star_model()
    cells = model.towers().stages[0]
    assert len(cells.rights) == 85
    poly, interval = model.field.minpoly, model.E.to_data()["interval"]
    rights = [r.power_coords for r in cells.rights]

    def fresh():
        K = NumberField(root_in(poly, *map(Fraction, interval)))
        return Cells(K, [K.from_power_coords(r) for r in rights])

    signs = counted_signs(monkeypatch)
    for refined, bits in ((False, 200), (True, 600)):
        for x in bracket_points(cells, bits):
            C = fresh()
            if refined:
                C.locate(C.field.zero)
                refine_by_sign(C.field, C.field.precision)
            if isinstance(x, FieldElement):
                x = C.field.from_power_coords(x.power_coords)
            signs.clear()
            got = atom_or_error(C, x)
            assert len(signs) <= 2, (refined, x)
            assert got == scan_atom(C, x), (refined, x)


def test_tiling_order_rejects_a_gap_and_an_overlap():
    K = golden_field()
    phi = K.generator_element()
    a, b = phi - 1, phi + 1
    # [a + 1, b), [a + phi/2, a + 1) and [a, a + phi/2)
    lefts = [a + 1, a + phi / 2, a]
    lengths = [K.one, 1 - phi / 2, phi / 2]
    assert tiling_order(lefts, lengths, a, b) == [2, 1, 0]
    gap = [K.one, 1 - phi / 2 - phi / 10, phi / 2]
    overlap = [K.one, 1 - phi / 2, phi / 2 + phi / 10]
    for bad in (gap, overlap):
        with pytest.raises(ValueError):
            tiling_order(lefts, bad, a, b)
    with pytest.raises(ValueError):
        tiling_order(lefts, lengths, a, b + phi)  # the pieces stop short of b


@pytest.mark.parametrize("name", BRACKET_MAPS)
def test_atom_of_takes_points_of_a_field_with_another_table(name):
    # two fields built from one generator keep separate sign tables; the
    # map must enclose a point of the other field with the map's table,
    # at the precision of its bounds
    data = BRACKET_MAPS[name]().to_data()
    E, F = IET.from_data(data), IET.from_data(data)
    refine_by_sign(E.field, E.field.precision)
    assert F.field.precision < E.field.precision
    for i, (left, right) in enumerate(F.atoms(), start=1):
        for x in (left, (left + right) / 2):
            assert E.atom_of(x) == scan_atom(E, x) == i
    for k in range(7):
        x = F.field.coerce(Fraction(k, 7))
        assert E.atom_of(x) == scan_atom(E, x)


@pytest.mark.parametrize("build", [builders.quartic_model, builders.e2star_model])
def test_box_orbit_takes_no_exact_fallback(build, monkeypatch):
    model = build()
    E, K = model.E, model.field
    x = unit_representative(model, (1, -2, 3)[: model.n - 1])
    word, _ = E.orbit(x, 48)
    # the walk runs again after the table has moved past the bounds' precision
    refine_by_sign(K, K.precision)
    signs, arithmetic = [], []
    sign = FieldElement.sign
    monkeypatch.setattr(FieldElement, "sign", lambda self: signs.append(self) or sign(self))
    for op in ("__add__", "__sub__", "__mul__"):
        f = getattr(FieldElement, op)
        monkeypatch.setattr(FieldElement, op, lambda a, b, f=f: arithmetic.append(a) or f(a, b))
    assert E.orbit(x, 48)[0] == word
    # the walk moves one integer position: no sign, and the end point is
    # one integer combination, not a chain of field sums
    assert signs == [] and arithmetic == []


@pytest.mark.parametrize("build", [builders.quartic_model, builders.e2star_model])
def test_walk_certificate_covers_the_drift_of_long_walks(build, monkeypatch, apply_steps):
    # with 16-bit sign tables and no precision floor, the k e_tau term of
    # the walk's certificate is what keeps 3,000 steps on the exact orbit:
    # without it the walks from 0 leave it at step 664 (quartic) and
    # 1,296 (e2*)
    data = build().E.to_data()
    monkeypatch.setattr(numberfield, "_START_BITS", 16)
    enclosure = NumberField.enclosure
    monkeypatch.setattr(NumberField, "enclosure", lambda self, x, bits=0: enclosure(self, x))
    E = IET.from_data(data)
    assert E.field.precision == 16
    for x in (E.field.zero, E.total / 3):
        assert E.orbit(x, 3000) == apply_steps(E, x, 3000)


def pinned_orbit_starts(model):
    """The atom left ends, the points 2^-200 either side of each inner
    atom bound, and the `unit_representative` points of [-2, 2]^(n - 1)."""
    E, eps = model.E, Fraction(1, 2**200)
    starts = [*E.lefts, *(r + s * eps for r in E.rights[:-1] for s in (-1, 1))]
    return starts + [unit_representative(model, z) for z in itertools.product(range(-2, 3), repeat=model.n - 1)]


def test_orbit_outputs_are_pinned():
    # (word, E^k x) of every pinned start and length, one sha256 prefix per
    # orbit and one over their concatenation: the exact orbits, which no
    # change to how the walk is computed may move
    parts = []
    for model in (builders.quartic_model(), builders.e2star_model(), builders.ek_model(1), builders.ek_model(4)):
        for x in pinned_orbit_starts(model):
            for k in (0, 1, 2, 3, 7, 48, 100, 1000):
                word, y = model.E.orbit(x, k)
                text = json.dumps([word, [str(c) for c in y.power_coords]], separators=(",", ":"))
                parts.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert len(parts) == 267 * 8
    assert hashlib.sha256("".join(parts).encode()).hexdigest()[:16] == "e0495705602ff7a3"


@pytest.fixture(scope="module")
def scaled_maps():
    """{name: (data of the map, rho)} of the quartic and e2* models."""
    return {m.name: (m.E.to_data(), m.rho) for m in (builders.quartic_model(), builders.e2star_model())}


@settings(max_examples=40, deadline=None)
@given(pick=st.data(), m=st.integers(2, 40), k=st.integers(0, 64), sign=st.sampled_from((1, -1)))
def test_orbit_is_k_steps_beside_an_endpoint(scaled_maps, apply_steps, pick, m, k, sign):
    # c +- rho^m beside an inner atom endpoint c, on a map with a fresh
    # sign table: for large m the walk's band meets the endpoint, and the
    # exact fallback chooses the atom
    data, rho = scaled_maps[pick.draw(st.sampled_from(sorted(scaled_maps)))]
    E = IET.from_data(data)
    x = E.rights[pick.draw(st.integers(0, E.N - 2))] + sign * rho**m
    assert E.orbit(x, k) == apply_steps(E, x, k)
