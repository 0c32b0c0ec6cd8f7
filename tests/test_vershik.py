import itertools
import random
from fractions import Fraction

import pytest

from ietlab import builders
from ietlab.iet import IET, Permutation
from ietlab.lattice import LatticeModel, first_return_model, unit_representative
from ietlab.matrices import charpoly
from ietlab.numberfield import FieldElement, NumberField
from ietlab.polynomials import IntPoly, resultant
from ietlab.rauzy import class_of, enumerate_cycles, self_similar_from_cycle
from ietlab.substitution import Prefix
from ietlab.vershik import (
    VershikCode,
    affine_closed_form,
    d_T,
    enumerate_tiles,
    escape_bound_check,
    exponent_report,
    random_consistent_code,
    tile_offsets,
    vershik_decode,
    vershik_encode,
)


def reference_encode(model, x, depth):
    """The encoder that peels each level by walking the point backward into
    the window W = [w, w + rho*total) with the inverse map: t steps back
    land in W, and (j, t) with j the atom of the rescaled point is the
    prefix.  It needs no tiles, so it checks the tile locator."""
    E = model.E
    order = sorted(range(1, E.N + 1), key=E.perm)  # atoms by image position
    Einv = IET(Permutation(order), [E.lengths[i - 1] for i in order])
    wlo, whi = model.window
    x = model.field.coerce(x)
    maxlen = max(map(len, model.sigma.rules.values()))
    seen = {x: 0}
    prefixes = []
    y = x
    for level in range(1, depth + 1):
        t = 0
        while y < wlo or not y < whi:
            y = Einv.apply(y)
            t += 1
            if t >= maxlen:
                raise AssertionError("backward orbit missed the window")
        y = (y - wlo) / model.rho
        prefixes.append(Prefix(E.atom_of(y), t))
        back = seen.get(y)
        if back is not None:
            return VershikCode(prefixes[:back], prefixes[back:])
        seen[y] = level
    return VershikCode(prefixes, ())


def reference_tiles(model, depth):
    """Depth-k tiles by the per-node recursion: every node forms its own
    offset + rho^L * c_mu and rho^(L+1), and every leaf its own products,
    with c_mu summed from the rule word per prefix.  It shares no table
    with `enumerate_tiles`, so it checks the per-level offset tables."""
    E, rho, G = model.E, model.rho, model.prefix_graph

    def offset_of(mu):
        c = model.window[0]
        for letter in model.sigma.rules[mu.rule][: mu.cut]:
            c = c + E.translations[letter - 1]
        return c

    offsets = {mu: offset_of(mu) for mu in G.states}
    atoms = E.atoms()
    out = []

    def rec(chain, offset, power):
        if len(chain) == depth:
            lo, hi = atoms[chain[-1].rule - 1]
            out.append((tuple(chain), offset + power * lo, power * (hi - lo)))
            return
        for mu in G.successors[chain[-1]]:
            chain.append(mu)
            rec(chain, offset + power * offsets[mu], power * rho)
            chain.pop()

    for mu in G.states:
        rec([mu], offsets[mu], rho)
    return out


CENSUS = [(builders.quartic_model, 2), (builders.e2star_model, 3)]
TILE_DEPTHS = [(builders.quartic_model, (1, 2, 3, 4)), (builders.e2star_model, (1, 2, 3))]


@pytest.mark.parametrize("build, box", CENSUS, ids=["quartic", "e2star"])
def test_encode_matches_the_backward_walk(build, box):
    # the census of module points with free coordinates in [-box, box]
    model = build()
    for zfree in itertools.product(range(-box, box + 1), repeat=model.n - 1):
        x = unit_representative(model, zfree)
        assert vershik_encode(model, x, depth=24) == reference_encode(model, x, 24), zfree


def check_decoded_codes(model, seed):
    """Encode inverts decode on 30 geometrically valid random codes, and
    agrees with the backward walk on them."""
    rng = random.Random(seed)
    kept = 0
    while kept < 30:
        code = random_consistent_code(model, rng)
        try:
            x = vershik_decode(model, code)
        except ValueError:
            continue
        kept += 1
        again = vershik_encode(model, x, depth=256)
        assert again.determined
        assert again == reference_encode(model, x, 256)
        assert vershik_decode(model, again) == x


def test_encode_rejects_points_outside_the_domain(quartic_model):
    K, r, model = quartic_model
    for x in (-Fraction(1, 2**200), model.total, model.total + r**9, K.from_rational(2)):
        with pytest.raises(ValueError):
            vershik_encode(model, x)

def test_encode_zero_is_fixed_empty_prefix(quartic_model):
    K, r, model = quartic_model
    code = vershik_encode(model, K.zero)
    assert code.t == 0 and code.T == 1
    assert code.period == (Prefix(1, 0),)
    assert vershik_decode(model, code) == K.zero


def test_fixed_codes_round_trip(quartic_model):
    K, r, model = quartic_model
    # word-consistent one-periodic prefixes: word[cut] == rule
    candidates = [
        Prefix(j, c)
        for j, w in model.sigma.rules.items()
        for c in range(len(w))
        if w[c] == j
    ]
    assert len(candidates) == 7
    points = []
    for mu in candidates:
        code = VershikCode((), (mu,))
        try:
            x = vershik_decode(model, code)
        except ValueError:
            continue  # word-consistent but the fixed point misses the tile
        xi, z = model.layer_of(x)
        assert xi == (0, 0, 0, 0)  # denominator divides det(I-R) = 1
        assert vershik_encode(model, x) == code
        points.append(x)
    # the surviving fixed codes are exactly the atom left endpoints
    assert len(points) == 4
    lefts = [a for a, _ in model.E.atoms()]
    assert sorted(points, key=float) == lefts


def test_round_trip_module_points(quartic_model):
    # The scaling eigenvalue has a conjugate of modulus > 1, so only part of
    # the lattice carries eventually periodic codes.  Every point of the small
    # box that does determine must round-trip exactly; the rest must be
    # reported as undetermined rather than mislabelled.
    K, r, model = quartic_model
    determined = 0
    for zfree in itertools.product((-1, 0, 1), repeat=3):
        x = unit_representative(model, zfree)
        code = vershik_encode(model, x, depth=96)
        if code.determined:
            assert vershik_decode(model, code) == x
            determined += 1
        else:
            assert code.T == 0
            assert len(code.transient) == 96
    assert determined >= 20


def test_generic_module_point_never_repeats(quartic_model):
    # Level points of a generic lattice point blow up along the expanding
    # conjugate direction, so no depth cap can close the code.
    K, r, model = quartic_model
    x = unit_representative(model, (-2, 0, 2))
    code = vershik_encode(model, x, depth=160)
    assert not code.determined


def test_round_trip_decoded_codes(quartic_model):
    check_decoded_codes(quartic_model[2], 5)


def test_round_trip_decoded_codes_e2star():
    check_decoded_codes(builders.e2star_model(), 31)


def test_rational_points_report_undetermined(quartic_model):
    # rational layers inherit the same conjugate growth, so none of these
    # close; the encoder must say so instead of guessing
    K, r, model = quartic_model
    for q in (Fraction(1, 3), Fraction(1, 7), Fraction(5, 8)):
        code = vershik_encode(model, K.from_rational(q), depth=64)
        assert not code.determined
        assert code.T == 0


def test_decode_rejects_inconsistent(quartic_model):
    _, r, model = quartic_model
    # the fixed point of the tile map of (1, 1) is total, outside the domain
    assert tile_offsets(model, model.field.one)[Prefix(1, 1)] / (1 - r) == model.total
    with pytest.raises(ValueError):
        vershik_decode(model, VershikCode((), (Prefix(1, 1),)))
    with pytest.raises(ValueError):
        vershik_decode(model, VershikCode((), (Prefix(1, 9),)))
    with pytest.raises(ValueError):
        vershik_decode(model, VershikCode((), ()))
    # a consistent code with one prefix replaced so that the chain breaks
    # in the prefix automaton: each tile lies in the atom of its letter,
    # so no point has level points in the tiles of a broken chain
    G = model.prefix_graph
    rng = random.Random(3)
    broken = 0
    while broken < 40:
        code = random_consistent_code(model, rng)
        seq = list(code.transient + code.period)
        seq[rng.randrange(len(seq))] = rng.choice(G.states)
        bad = VershikCode(seq[: code.t], seq[code.t :])
        chain = seq + [bad.period[0]]
        if all(b in G.successors[a] for a, b in zip(chain, chain[1:])):
            continue
        broken += 1
        with pytest.raises(ValueError):
            vershik_decode(model, bad)


def test_code_serialization():
    code = VershikCode((Prefix(2, 3),), (Prefix(4, 1), Prefix(3, 2)))
    line = code.to_line()
    assert line == "(t=1; T=2; (2,3) (4,1) (3,2))"
    assert repr(code) == "VershikCode" + line


def test_prefix_is_numbered_from_one():
    first, second = Prefix(1, 0), Prefix(2, 1)
    code = VershikCode((first, second), ())
    assert (code.prefix(1), code.prefix(2)) == (first, second)
    for k in (0, -1, -2):
        with pytest.raises(IndexError, match="numbered from 1"):
            code.prefix(k)
    with pytest.raises(IndexError, match="undetermined"):
        code.prefix(3)
    periodic = VershikCode((first,), (second,))
    assert [periodic.prefix(k) for k in (1, 2, 5)] == [first, second, second]
    with pytest.raises(IndexError):
        periodic.prefix(0)


def test_tile_partition_exact():
    for build, depths in TILE_DEPTHS:
        model = build()
        K, G = model.field, model.prefix_graph
        for depth in depths:
            tiles = enumerate_tiles(model, depth)
            assert len(tiles) == G.count_paths(depth - 1)
            tiles.sort(key=lambda rec: float(rec[1]))
            cursor = K.zero
            for _, lo, ln in tiles:
                assert lo == cursor
                cursor = cursor + ln
            assert cursor == model.total


def test_enumerate_tiles_refuses_depth_zero_and_a_first_return_model(quartic_model):
    _, _, model = quartic_model
    with pytest.raises(ValueError, match="depth must be positive"):
        enumerate_tiles(model, 0)
    # E_k carries a factor and a window, but its own map has no substitution
    with pytest.raises(ValueError):
        enumerate_tiles(builders.ek_model(1), 1)


def test_encode_refuses_a_depth_below_one(quartic_model):
    # as enumerate_tiles does, rather than return an empty undetermined code
    _, _, model = quartic_model
    for depth in (0, -5):
        with pytest.raises(ValueError, match="depth must be positive"):
            vershik_encode(model, model.total / 3, depth=depth)
    code = vershik_encode(model, model.total / 3, depth=1)
    assert code.t + code.T == 1


def test_depths_and_periods_must_be_integers(quartic_model):
    # the rule of psi_orbit's step counts (`iet.step_count`): a float
    # depth or period is refused by name, and True counts as 1
    _, _, model = quartic_model
    point = model.total / 3
    calls = {
        "depth": [lambda: vershik_encode(model, point, depth=2.5), lambda: enumerate_tiles(model, 2.5)],
        "T": [lambda: d_T(model, 2.0)],
    }
    for name, fs in calls.items():
        for f in fs:
            with pytest.raises(TypeError, match=f"^{name} must be an integer, not float$"):
                f()
    assert d_T(model, True) == d_T(model, 1)
    assert enumerate_tiles(model, True) == enumerate_tiles(model, 1)
    assert vershik_encode(model, point, depth=True).transient == vershik_encode(model, point, depth=1).transient


@pytest.mark.parametrize("build, depths", TILE_DEPTHS, ids=["quartic", "e2star"])
def test_tiles_match_the_per_node_recursion(build, depths):
    # same chains in the same order, same exact lefts and lengths
    model = build()
    for depth in depths:
        assert enumerate_tiles(model, depth) == reference_tiles(model, depth), depth


def test_coding_compatibility(quartic_model):
    K, r, model = quartic_model
    E = model.E
    rng = random.Random(5)
    for _ in range(10):
        q = Fraction(rng.randrange(1, 97), 97)
        x = K.from_rational(q)
        code = vershik_encode(model, x, depth=64)
        mu = code.prefix(1)
        word = model.sigma.rules[mu.rule]
        expected = word[mu.cut:]
        got, _ = E.orbit(x, len(expected))
        assert got == expected


def test_d_T_quartic(quartic_model):
    _, _, model = quartic_model
    assert d_T(model, 1) == 1
    vals = [d_T(model, T) for T in range(1, 31)]
    assert all(v > 0 for v in vals)
    assert vals[5:] == sorted(vals[5:])  # monotone beyond a short threshold


def test_d_T_golden(golden_model):
    _, _, model = golden_model
    # R is the golden companion matrix, so |det(I - R^T)| = L_{2T} - 2
    # (Lucas numbers L_2, L_4, ... = 3, 7, 18, 47, 123)
    assert [d_T(model, T) for T in range(1, 6)] == [1, 5, 16, 45, 121]


def test_d_T_is_the_resultant_of_chi_R_and_x_T_minus_1():
    # for monic chi_R, |Res(chi_R, x^T - 1)| = |prod(lambda^T - 1)|
    # = |det(I - R^T)| for any integer R, palindromic chi_R or not; on
    # quartic, e2*, the first returns of E_1..E_3 and the cap-10 (4321)
    # census loops whose model builds over the power basis (the others
    # have translations outside that module)
    models = {"quartic": builders.quartic_model(), "e2star": builders.e2star_model()}
    models.update((f"ek{k} first return", builders.ek_first_return(k)) for k in (1, 2, 3))
    for i, c in enumerate(c for c in enumerate_cycles(class_of((4, 3, 2, 1)), 10) if c.is_qualifying()):
        try:
            models[f"census {i}"] = LatticeModel(*self_similar_from_cycle(c))
        except ValueError:
            pass
    assert len(models) == 7
    for name, model in models.items():
        chi = charpoly(model.R)
        assert chi.lc == 1, name
        if not model.drift.is_zero:
            # nonzero drift: the spectrum of R splits into reciprocal pairs
            assert chi.coeffs == chi.coeffs[::-1], name
        for T in range(1, 6):
            x_T_minus_1 = IntPoly((-1,) + (0,) * (T - 1) + (1,))
            assert d_T(model, T) == abs(resultant(chi, x_T_minus_1)), (name, T)


def test_exponent_quartic(quartic_model):
    _, _, model = quartic_model
    rep = exponent_report(model)
    assert abs(rep.beta - 4.390256) < 1e-5
    assert abs(rep.sr_R - rep.beta) < 1e-12
    lo, hi = rep.v_enclosure
    assert lo <= 1 <= hi and hi - lo < 1e-9
    assert not rep.eq_flag  # sr(R)^3 is far from beta
    assert rep.beta2 < rep.beta
    assert 0 < rep.discrepancy_exponent < 1


@pytest.mark.parametrize("k", range(1, 13))
def test_ek_eq_flag_holds_up_to_k_3(k):
    # sr(R)^(n-1) = beta on E_k's first return exactly for k <= 3
    assert exponent_report(builders.ek_first_return(k)).eq_flag == (k <= 3)


def test_exponent_golden(golden_model):
    _, _, model = golden_model
    rep = exponent_report(model)
    # two letters: sr(R) equals beta and the identity holds at n = 2
    assert rep.eq_flag
    assert abs(rep.v - 1.0) < 1e-12


def test_escape_bound_fixed_codes(quartic_model):
    K, r, model = quartic_model
    for mu in (Prefix(1, 0), Prefix(2, 3), Prefix(3, 4), Prefix(4, 2)):
        ok, ratio, C = escape_bound_check(model, VershikCode((), (mu,)))
        assert ok
        assert ratio <= C


def test_escape_bound_encoded_points(quartic_model):
    K, r, model = quartic_model
    rng = random.Random(9)
    kept = 0
    while kept < 12:
        code = random_consistent_code(model, rng)
        try:
            vershik_decode(model, code)
        except ValueError:
            continue
        kept += 1
        ok, ratio, C = escape_bound_check(model, code)
        assert ok


def test_escape_bound_zero(quartic_model):
    K, _, model = quartic_model
    code = vershik_encode(model, K.zero)
    ok, ratio, _ = escape_bound_check(model, code)
    assert ok and ratio == 0


def test_affine_closed_form_matches_iteration():
    a = [[2, 1], [1, 1]]
    b = [1, 2]
    u = [Fraction(0), Fraction(3)]
    cur = list(u)
    for k in range(21):
        closed = affine_closed_form(a, b, u, k)
        assert closed == cur
        cur = [
            a[0][0] * cur[0] + a[0][1] * cur[1] + b[0],
            a[1][0] * cur[0] + a[1][1] * cur[1] + b[1],
        ]


def test_enumerate_tiles_multiplies_per_level_and_rule_only(monkeypatch):
    # depth tables of N + 1 products, depth powers of rho and two products
    # per rule at the leaves; the recursion itself only adds
    model = builders.e2star_model()
    N = model.E.N
    calls = []
    mul = NumberField._mul
    monkeypatch.setattr(NumberField, "_mul", lambda K, a, b: calls.append(1) or mul(K, a, b))
    for depth in (1, 2, 3):
        calls.clear()
        enumerate_tiles(model, depth)
        assert len(calls) == depth * (N + 2) + 2 * N


def test_tile_offsets_are_translation_sums(quartic_model):
    K, r, model = quartic_model
    mu = Prefix(2, 2)  # first two letters of rule 2 = "14..."
    w = model.sigma.rules[2]
    expect = model.E.translations[w[0] - 1] + model.E.translations[w[1] - 1]
    assert tile_offsets(model, K.one)[mu] == expect
    assert tile_offsets(model, K.one)[Prefix(2, 0)] == K.zero


@pytest.mark.parametrize("k", (1, 2, 4))
def test_ek_box_codes_through_the_first_return_floor(k):
    # every box point of E_k's whole domain codes as (floor, code of the
    # floor's base under the first return F) and decodes back exactly
    model = builders.ek_model(k)
    top = builders.ek_first_return(k)
    E, (_, words) = model.E, first_return_model(model)
    for zfree in itertools.product(range(-12, 13), repeat=model.n - 1):
        x = unit_representative(model, zfree)
        code = vershik_encode(model, x)
        assert code.determined and code.T == 1 and code.t <= 5, zfree
        floor = code.prefix(1)
        word = words[floor.rule - 1]
        assert floor.cut < len(word), zfree
        # the floor's base lies in F's atom of its word, which leads to x
        base = x - sum((E.translations[s - 1] for s in word[: floor.cut]), model.field.zero)
        assert top.E.atom_of(base) == floor.rule
        assert E.orbit(base, floor.cut) == (tuple(word[: floor.cut]), x)
        assert vershik_encode(top, base) == VershikCode(code.transient[1:], code.period)
        assert vershik_decode(model, code) == x, zfree


def test_ek_decode_needs_a_floor_from_the_return_words():
    model = builders.ek_model(2)
    _, words = first_return_model(model)
    code = vershik_encode(model, unit_representative(model, (3, -2)))
    assert vershik_decode(model, code) == unit_representative(model, (3, -2))
    with pytest.raises(ValueError):
        vershik_decode(model, VershikCode((), code.period))
    past = Prefix(1, len(words[0]))
    with pytest.raises(ValueError):
        vershik_decode(model, VershikCode((past,) + code.transient[1:], code.period))


def test_coding_needs_renormalization():
    model = LatticeModel(builders.quartic_model().E)
    with pytest.raises(ValueError):
        vershik_encode(model, model.field.zero)
    with pytest.raises(ValueError):
        vershik_decode(model, VershikCode((), (Prefix(1, 0),)))


@pytest.mark.parametrize(
    "build", (builders.quartic_model, lambda: builders.ek_model(1)), ids=["quartic", "ek1"]
)
def test_encode_takes_no_inverse_once_the_towers_exist(build, monkeypatch):
    model = build()
    model.towers()
    xs = [unit_representative(model, z) for z in itertools.product(range(-2, 3), repeat=model.n - 1)]
    calls = []
    inverse = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda a: calls.append(1) or inverse(a))
    for x in xs:
        vershik_encode(model, x, depth=64)
    assert calls == []
