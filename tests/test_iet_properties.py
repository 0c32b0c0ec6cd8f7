"""Property tests of IET tiling on random rational-length exchanges.

A rational IET with lengths in (1/D)Z moves the grid (1/(2D))Z by
multiples of 1/D, so exact checks on every grid point are cheap: the map
is a bijection of the grid, `induce` returns pieces that tile the window
and follow their return words, and `tiling_order` refuses the image
intervals once one length is moved off the grid by less than a cell.
"""
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ietlab.algebraic import root_in  # noqa: E402
from ietlab.iet import (  # noqa: E402
    IET,
    Permutation,
    induce,
    iet_from_translations,
    is_irreducible_perm,
    tiling_order,
    translations_from,
)
from ietlab.numberfield import NumberField  # noqa: E402
from ietlab.polynomials import IntPoly  # noqa: E402

K = NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2))


@st.composite
def rational_iets(draw):
    """(E, D): an IET over K built through `iet_from_translations`, with
    rational lengths whose denominators divide D."""
    N = draw(st.integers(2, 5))
    images = draw(st.permutations(range(1, N + 1)))
    assume(is_irreducible_perm(images))
    fracs = [
        Fraction(draw(st.integers(1, 5)), draw(st.sampled_from((1, 2, 3))))
        for _ in range(N)
    ]
    lengths = [K.from_rational(f) for f in fracs]
    E = iet_from_translations(lengths, IET(Permutation(images), lengths).translations)
    assert E.perm.images == tuple(images)
    return E, lcm(*(f.denominator for f in fracs))


def grid(E, D):
    """The points k/(2D) of [0, total)."""
    steps = Fraction(E.total.power_coords[0] * 2 * D)
    return [K.from_rational(Fraction(k, 2 * D)) for k in range(int(steps))]


@settings(max_examples=40, deadline=None)
@given(rational_iets())
def test_apply_is_a_bijection_of_the_grid(data):
    E, D = data
    points = grid(E, D)
    images = [E.apply(x) for x in points]
    assert len(set(images)) == len(points)  # injective
    assert sorted(images, key=lambda x: x.power_coords) == points  # onto the grid


def first_returns(E, points, a, b):
    """{x: (steps, E^steps x)} for the first return of each x to [a, b)."""
    out = {}
    for x in points:
        y, steps = E.apply(x), 1
        while y < a or not y < b:
            y, steps = E.apply(y), steps + 1
        out[x] = steps, y
    return out


@settings(max_examples=40, deadline=None)
@given(rational_iets(), st.data())
def test_induced_pieces_tile_the_window(data, pick):
    E, D = data
    cells = int(E.total.power_coords[0] * D)
    i = pick.draw(st.integers(0, cells - 1))
    j = pick.draw(st.integers(i + 1, cells))
    a, b = K.from_rational(Fraction(i, D)), K.from_rational(Fraction(j, D))
    inside = [x for x in grid(E, D) if a <= x < b]
    returns = first_returns(E, inside, a, b)
    try:
        im = induce(E, (a, b))
    except ValueError:
        # only a reducible first-return map may be refused: piece ends lie
        # on the grid, so some grid cut c keeps [a, c) to itself
        top = a
        for x, c in zip(inside, inside[1:]):
            top = max(top, returns[x][1])
            if top < c:
                return
        raise
    F = im.induced
    # the pieces and their images tile [a, b) with no gap and no overlap
    assert F.total == b - a
    cursor = a
    for lo, hi in F.atoms():
        assert a + lo == cursor
        cursor = a + hi
    assert cursor == b
    images = sorted((lo + t, hi + t) for (lo, hi), t in zip(F.atoms(), F.translations))
    cursor = K.zero
    for lo, hi in images:
        assert lo == cursor
        cursor = hi
    assert cursor == F.total
    # every grid point of the window returns first where its piece says
    for x, (steps, y) in returns.items():
        word = im.return_words[F.atom_of(x - a) - 1]
        assert E.orbit(x, steps) == (word, y)
        assert y == a + F.apply(x - a)


@settings(max_examples=40, deadline=None)
@given(rational_iets(), st.data())
def test_orbit_is_k_steps_of_apply(data, pick):
    E, D = data
    x = pick.draw(st.sampled_from(grid(E, D)))  # atom endpoints included
    y, word = x, []
    for _ in range(pick.draw(st.integers(0, 40))):
        word.append(E.atom_of(y))
        y = E.apply(y)
    assert E.orbit(x, len(word)) == (tuple(word), y)


@settings(max_examples=40, deadline=None)
@given(rational_iets(), st.data())
def test_tiling_order_rejects_a_moved_length(data, pick):
    E, D = data
    lefts = [lo + t for (lo, _), t in zip(E.atoms(), E.translations)]
    order = tiling_order(lefts, E.lengths, K.zero, E.total)
    assert [E.perm(i + 1) for i in order] == list(range(1, E.N + 1))
    i = pick.draw(st.integers(0, E.N - 1))
    eps = Fraction(1, 4 * D)  # below every length, so no piece vanishes
    for moved in (E.lengths[i] - eps, E.lengths[i] + eps):  # a gap, an overlap
        lengths = list(E.lengths)
        lengths[i] = moved
        with pytest.raises(ValueError):
            tiling_order(lefts, lengths, K.zero, E.total)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_translations_give_back_the_permutation(pick):
    # tau_i is the left end of atom i's image minus its left end, so the
    # image intervals sit in the permutation's order and
    # `iet_from_translations` reads it back, for irrational lengths too
    N = pick.draw(st.integers(2, 6))
    images = pick.draw(st.permutations(range(1, N + 1)))
    assume(is_irreducible_perm(images))
    phi = K.generator_element()
    coeffs = pick.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)), min_size=N, max_size=N))
    lengths = [K.from_rational(Fraction(a, 3)) + b * phi for a, b in coeffs]
    perm = Permutation(images)
    assert iet_from_translations(lengths, translations_from(perm, lengths)).perm == perm
