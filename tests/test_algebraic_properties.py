"""Property tests of the dyadic isolating interval.

Generators: the quartic and e2* fields and the Perron field of every
qualifying cycle in the (4321) Rauzy class up to length 10.
"""
from fractions import Fraction
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ietlab import builders, rauzy  # noqa: E402
from ietlab.algebraic import RealAlgebraic  # noqa: E402

CENSUS_CYCLES = 14  # qualifying cycles of the (4321) class up to length 10


@lru_cache(maxsize=None)
def generators():
    """(poly, m, k) of each generator as first isolated."""
    gens = [builders.quartic_model().field.generator, builders.e2star_model().field.generator]
    cls = rauzy.class_of((4, 3, 2, 1))
    for cyc in rauzy.enumerate_cycles(cls, 10):
        if cyc.is_qualifying():
            E, _ = rauzy.self_similar_from_cycle(cyc)
            gens.append(E.field.generator)
    assert len(gens) == 2 + CENSUS_CYCLES
    return [(g.poly, g.m, g.k) for g in gens]


def fresh(index):
    return RealAlgebraic(*generators()[index])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 1 + CENSUS_CYCLES),
    st.integers(1, 10**6),
    st.integers(1, 999),
    st.integers(0, 400),
)
def test_refine_to_gives_the_canonical_unit_interval(index, num, odd, shift):
    width = Fraction(num, odd << shift)
    a, b = fresh(index), fresh(index)
    start = a.k
    a.refine_to(width)
    # [m, m + 1] / 2^k at the least level k >= start with 2^-k <= width
    assert a.hi - a.lo == Fraction(2) ** -a.k
    assert a.hi - a.lo <= width
    assert a.k == start or 2 * (a.hi - a.lo) > width
    assert (a.poly(a.lo) > 0) != (a.poly(a.hi) > 0)
    while b.hi - b.lo > width:
        b.refine()
    assert (b.m, b.k) == (a.m, a.k)
