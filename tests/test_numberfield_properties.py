"""Property tests of the integer-backed field core.

Fields: the quartic unit field, the e2* Perron field, the E_2 field in its
half-integer module basis, and a field with a non-monic generator.
"""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ietlab.algebraic import real_roots, root_in  # noqa: E402
from ietlab.builders import e2star_model, ek_model  # noqa: E402
from ietlab.numberfield import NumberField  # noqa: E402
from ietlab.polynomials import IntPoly  # noqa: E402

QUARTIC = IntPoly((1, -7, 13, -7, 1))
NON_MONIC = IntPoly((1, -5, 0, 3))  # 3x^3 - 5x + 1


def quartic_field():
    return NumberField(root_in(QUARTIC, Fraction(1, 5), Fraction(1, 4)))


def non_monic_field():
    return NumberField(real_roots(NON_MONIC)[-1])


FIELDS = {
    "quartic": quartic_field(),
    "e2star": e2star_model().field,
    "ek2_half": ek_model(2).field,
    "non_monic": non_monic_field(),
}
NAMES = sorted(FIELDS)

PROPS = settings(max_examples=40, deadline=None)


@st.composite
def elements(draw, K, bound=30):
    """Elements with small rational module-basis coordinates."""
    den = draw(st.integers(1, 12))
    coords = [Fraction(draw(st.integers(-bound, bound)), den) for _ in range(K.n)]
    return K.element(coords)


@st.composite
def field_and(draw, count):
    K = FIELDS[draw(st.sampled_from(NAMES))]
    return K, [draw(elements(K)) for _ in range(count)]


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
    K, (a,) = data
    g = K.generator_element()
    view = K.with_basis(
        [b * Fraction(k + 2, 3) + (g if k == 0 else 0) for k, b in enumerate(K.basis)]
    )
    a_view = view.element(view.coords_of(a))
    assert a_view == a and a == a_view
    assert hash(a_view) == hash(a)
    assert a_view.field is view and a_view.power_coords == a.power_coords
    assert a_view + K.one == a + 1


@PROPS
@given(field_and(1))
def test_coords_round_trip(data):
    K, (a,) = data
    assert K.element(a.coords) == a
    assert K.from_power_coords(a.power_coords) == a


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
