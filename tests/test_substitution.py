import math

import pytest

from ietlab.algebraic import real_roots
from ietlab.matrices import charpoly
from ietlab.polynomials import IntPoly
from ietlab.substitution import PrefixGraph, Substitution

FIB = Substitution({1: (1, 2), 2: (1,)})
QUARTIC_SIGMA = Substitution(
    {1: (1, 4, 3), 2: (1, 4, 3, 2, 2, 3), 3: (1, 4, 3, 2, 3), 4: (1, 4, 4, 3)}
)
P_QUARTIC = [[1, 1, 1, 1], [0, 2, 1, 0], [1, 2, 2, 1], [1, 1, 1, 2]]


def test_rules_validation():
    with pytest.raises(ValueError):
        Substitution({1: (1, 2), 3: (1,)})
    with pytest.raises(ValueError):
        Substitution({1: (), 2: (1,)})
    with pytest.raises(ValueError):
        Substitution({1: (3,), 2: (1,)})


def test_apply_words():
    assert FIB((1,)) == (1, 2)
    assert FIB((1, 2)) == (1, 2, 1)
    assert FIB(1) == (1, 2)


def test_incidence_column_convention():
    # entry (i, j) counts symbol i in the rule for j
    assert FIB.incidence() == [[1, 1], [1, 0]]
    assert QUARTIC_SIGMA.incidence() == P_QUARTIC


def test_row_counts_are_the_transpose():
    rows = [
        [QUARTIC_SIGMA.rules[i].count(j) for j in range(1, 5)] for i in range(1, 5)
    ]
    assert rows == [list(col) for col in zip(*P_QUARTIC)]


def test_primitivity():
    assert FIB.is_primitive()
    assert QUARTIC_SIGMA.is_primitive()
    assert not Substitution({1: (1,), 2: (2,)}).is_primitive()


def test_analyze_fibonacci():
    beta = real_roots(charpoly(FIB.incidence()))[-1]
    assert float(beta) == pytest.approx((1 + math.sqrt(5)) / 2)
    assert next(FIB.fixed_point_prefixes()) == (1, 2)


def test_fixed_point_prefix_nesting():
    stream = QUARTIC_SIGMA.fixed_point_prefixes()
    prev = next(stream)
    assert prev == (1, 4, 3)
    for _ in range(3):
        cur = next(stream)
        assert cur[: len(prev)] == prev
        prev = cur


def test_abelianization_growth():
    # |sigma^k(1)| grows like beta^k
    beta = real_roots(charpoly(QUARTIC_SIGMA.incidence()))[-1]
    stream = QUARTIC_SIGMA.fixed_point_prefixes()
    lens = []
    for k, w in zip(range(9), stream):
        lens.append(len(w))
    ratio = lens[-1] / lens[-2]
    assert ratio == pytest.approx(float(beta), rel=5e-3)


def test_prefix_graph_counts():
    g = PrefixGraph(FIB)
    assert len(g.states) == 3
    assert g.count_cycles(1) == 1  # only the empty prefix of rule 1 self-loops
    gq = PrefixGraph(QUARTIC_SIGMA)
    assert len(gq.states) == sum(len(w) for w in QUARTIC_SIGMA.rules.values())


def test_prefix_graph_spectral_radius_exact():
    g = PrefixGraph(FIB)
    beta = real_roots(charpoly(FIB.incidence()))[-1]
    assert g.spectral_radius_matches(beta)
    gq = PrefixGraph(QUARTIC_SIGMA)
    betaq = real_roots(charpoly(P_QUARTIC))[-1]
    assert gq.spectral_radius_matches(betaq)
    # a wrong candidate is rejected
    assert not gq.spectral_radius_matches(beta)


def test_spectral_radius_rejects_a_root_below_the_perron_root():
    # charpoly (x - 3)(x^2 - x - 1): the golden ratio is a root, and the
    # Perron root 3 lies inside its first isolating interval [0, 4]
    g = PrefixGraph.__new__(PrefixGraph)
    g.adjacency = [[0, 0, 1], [1, 2, 0], [2, 1, 2]]
    phi = real_roots(IntPoly((-1, -1, 1)))[-1]
    assert phi.lo < 3 < phi.hi
    assert not g.spectral_radius_matches(phi)
    assert g.spectral_radius_matches(real_roots(charpoly(g.adjacency))[-1])
