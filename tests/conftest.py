"""Shared test models and oracles.

Each model fixture builds a fresh field, so refinements of one test's
generator interval never reach another test.
"""
from fractions import Fraction
from itertools import permutations

import pytest

from ietlab.algebraic import root_in
from ietlab.iet import IET, Permutation, is_irreducible_perm
from ietlab.lattice import LatticeModel
from ietlab.numberfield import NumberField
from ietlab.polynomials import IntPoly
from ietlab.rauzy import rauzy_type0_perm, rauzy_type1_perm

QUARTIC = IntPoly((1, -7, 13, -7, 1))


@pytest.fixture
def quartic_iet():
    """(K, r, E): the (4213) map over Q(r), r the smallest root of QUARTIC."""
    K = NumberField(root_in(QUARTIC, Fraction(1, 5), Fraction(1, 4)))
    r = K.generator_element()
    lengths = [
        r,
        1 - 4 * r + r * r,
        1 - 4 * r + 5 * r * r - r**3,
        -1 + 7 * r - 6 * r * r + r**3,
    ]
    return K, r, IET(Permutation([4, 2, 1, 3]), lengths)


@pytest.fixture
def quartic_model(quartic_iet):
    """(K, r, model): the quartic map's lattice model with scaling factor r."""
    K, r, E = quartic_iet
    return K, r, LatticeModel(E, rho=r)


@pytest.fixture
def quartic_lattice(quartic_iet):
    """(K, r, model): the quartic map's lattice model without scaling."""
    K, r, E = quartic_iet
    return K, r, LatticeModel(E)


@pytest.fixture
def golden_model():
    """(K, phi, model): the golden rotation, self-similar with factor 2 - phi."""
    K = NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2))
    phi = K.generator_element()
    E = IET(Permutation([2, 1]), [2 - phi, phi - 1])
    return K, phi, LatticeModel(E, rho=2 - phi)


def _apply_steps(E, x, k):
    """(word, E^k x) by k single exact steps, each a `locate` and a sum
    with the atom's translation: an oracle for `IET.orbit` and the
    lattice walk that shares none of their integer walk."""
    x = E.field.coerce(x)
    word = []
    for _ in range(k):
        i = E.locate(x)
        word.append(i + 1)
        x = x + E.translations[i]
    return tuple(word), x


@pytest.fixture(scope="session")
def apply_steps():
    """The step-by-step exact orbit, as a function of (E, x, k)."""
    return _apply_steps


def _rauzy_graph(N: int):
    """Rauzy classes: the connected components of the induction graph on
    all N! permutations, a brute-force oracle for `class_of`.

    Returns a list of sorted vertex lists (each vertex an image tuple),
    ordered by (size, smallest vertex).  Supports N = 2..7.
    """
    if not 2 <= N <= 7:
        raise ValueError("supported for 2..7 intervals")
    verts = [p for p in permutations(range(1, N + 1)) if is_irreducible_perm(p)]
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in verts:
        for w in (rauzy_type0_perm(v), rauzy_type1_perm(v)):
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rv] = rw
    groups = {}
    for v in verts:
        groups.setdefault(find(v), []).append(v)
    out = [sorted(g) for g in groups.values()]
    out.sort(key=lambda g: (len(g), g[0]))
    return out


@pytest.fixture
def rauzy_graph():
    """The brute-force Rauzy class enumeration, as a function of N."""
    return _rauzy_graph
