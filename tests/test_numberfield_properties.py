"""Property tests of the integer-backed field core.

Fields, each with a module basis that draws its elements: the quartic
unit field, the e2* Perron field, the E_2 field with its half-integer
module basis, and a field with a non-monic generator.
"""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ietlab.algebraic import real_roots, root_in  # noqa: E402
from ietlab.builders import e2star_model, ek_model  # noqa: E402
from ietlab.modules import ModuleData  # noqa: E402
from ietlab.numberfield import NumberField, Span  # noqa: E402
from ietlab.polynomials import IntPoly  # noqa: E402

QUARTIC = IntPoly((1, -7, 13, -7, 1))
NON_MONIC = IntPoly((1, -5, 0, 3))  # 3x^3 - 5x + 1


def quartic_field():
    return NumberField(root_in(QUARTIC, Fraction(1, 5), Fraction(1, 4)))


def non_monic_field():
    return NumberField(real_roots(NON_MONIC)[-1])


MODULES = {
    "quartic": ModuleData(quartic_field()),
    "e2star": e2star_model().module,
    "ek2_half": ek_model(2).module,
    "non_monic": ModuleData(non_monic_field()),
}
FIELDS = {name: md.field for name, md in MODULES.items()}
NAMES = sorted(FIELDS)

PROPS = settings(max_examples=40, deadline=None)


@st.composite
def elements(draw, md, bound=30):
    """Elements with small rational coordinates in the module basis of md."""
    den = draw(st.integers(1, 12))
    coords = [Fraction(draw(st.integers(-bound, bound)), den) for _ in range(md.field.n)]
    return Span(md.basis).combine(coords)


@st.composite
def field_and(draw, count):
    md = MODULES[draw(st.sampled_from(NAMES))]
    return md.field, [draw(elements(md)) for _ in range(count)]


def convergents(x: Fraction, count: int):
    """The first continued-fraction convergents of x."""
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    for _ in range(count):
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append(Fraction(p1, q1))
        if x == a:
            break
        x = 1 / (x - a)
    return out


@PROPS
@given(field_and(3))
def test_field_axioms(data):
    K, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == K.zero
    assert a + K.zero == a and a * K.one == a
    assert -(-a) == a and a - b == -(b - a)
    if a:
        assert a * a.inverse() == K.one
        assert (b / a) * a == b


@PROPS
@given(field_and(2))
def test_values_follow_the_generator(data):
    K, (a, b) = data
    fa, fb = float(a), float(b)
    assert float(a + b) == pytest.approx(fa + fb, rel=1e-12, abs=1e-12)
    assert float(a * b) == pytest.approx(fa * fb, rel=1e-12, abs=1e-12)


@PROPS
@given(field_and(1))
def test_sign_agrees_with_float(data):
    _, (a,) = data
    f = float(a)
    if abs(f) > 1e-9:
        assert a.sign() == (1 if f > 0 else -1)
    assert a.sign() == 0 if not a else a.sign() != 0
    assert (-a).sign() == -a.sign()


@PROPS
@given(field_and(1))
def test_hash_and_equality_across_basis_views(data):
    # a rebuilt from its coordinates in another module basis, and in a
    # field built separately on the same generator, equals a
    K, (a,) = data
    g = K.generator_element()
    md = ModuleData(K, [K.one] + [g**k * Fraction(k + 2, 3) + g for k in range(1, K.n)])
    a_view = Span(md.basis).combine(md.coords(a))
    K2 = NumberField(K.generator)
    a2 = K2.from_power_coords(a.power_coords)
    for b in (a_view, a2):
        assert b == a and a == b
        assert hash(b) == hash(a)
        assert b + K.one == a + 1
    assert a2.field is K2 and md.coords(a2) == md.coords(a)


@PROPS
@given(st.sampled_from(NAMES), st.data())
def test_coords_round_trip(name, data):
    md = MODULES[name]
    a = data.draw(elements(md))
    assert Span(md.basis).combine(md.coords(a)) == a
    assert md.field.from_power_coords(a.power_coords) == a


@pytest.mark.parametrize("name", NAMES)
def test_tiny_powers_force_precision_doubling(name):
    # a fresh generator, so the sign table starts at its lowest precision
    K0 = FIELDS[name]
    K = NumberField(root_in(K0.minpoly, K0.generator.lo, K0.generator.hi))
    g = K.generator_element()
    c = Fraction(round(float(g) * 16), 16)
    r = g - c  # |r| <= 1/32, so |r^40| <= 2^-200
    r_sign = 1 if root_in(K0.minpoly, K0.generator.lo, K0.generator.hi) > c else -1
    assert (r**40).sign() == 1
    assert (r**41).sign() == r_sign
    assert (-(r**41)).sign() == -r_sign
    assert (r**40 * 7 - r**40 * 7).sign() == 0
    assert K._enc.bits > 64


@pytest.mark.parametrize("name", NAMES)
def test_signs_near_convergents(name):
    K0 = FIELDS[name]
    th = root_in(K0.minpoly, K0.generator.lo, K0.generator.hi)
    K = NumberField(th)
    g = K.generator_element()
    probe = root_in(K0.minpoly, th.lo, th.hi)  # independent copy for the oracle
    probe.refine_to(Fraction(1, 2**200))
    for pq in convergents(probe.lo, 40)[5:]:
        want = 1 if probe > pq else -1
        assert (g - pq).sign() == want
        assert ((g - pq) ** 3).sign() == want
