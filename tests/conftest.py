"""Shared test models.

Each fixture builds a fresh field, so refinements of one test's generator
interval never reach another test.
"""
from fractions import Fraction

import pytest

from ietlab.algebraic import root_in
from ietlab.iet import IET, Permutation
from ietlab.lattice import LatticeModel
from ietlab.numberfield import NumberField
from ietlab.polynomials import IntPoly

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
