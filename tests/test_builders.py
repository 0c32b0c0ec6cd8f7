import json
from fractions import Fraction

import pytest

from ietlab.builders import (
    SEVEN_PRODUCT,
    e2star_model,
    ek_model,
    family_poly,
    quartic_model,
)
from ietlab.iet import IET
from ietlab.lattice import LatticeModel
from ietlab.matrices import charpoly, mat_mul
from ietlab.numberfield import is_pisot, to_real_algebraic
from ietlab.polynomials import IntPoly, factor, is_irreducible
from ietlab.vershik import d_T

E2STAR_RULES = {
    1: (7, 1, 1, 4, 1, 1, 5),
    2: (7, 1, 1, 4, 1, 2, 1, 3, 6, 1, 3, 6, 1, 2, 1, 4, 1, 1, 5),
    3: (7, 1, 1, 4, 1, 2, 1, 3, 6, 1, 3, 6, 1, 3, 5),
    4: (7, 1, 1, 4, 1, 2, 1, 4, 1, 1, 5),
    5: (7, 1, 1, 5, 6, 1, 3, 6, 1, 3, 5),
    6: (7, 1, 1, 5, 6, 1, 3, 6, 1, 3, 6, 1, 2, 1, 4, 1, 1, 5),
    7: (7, 1, 1, 5),
}


def approx_float(elem, prec=60):
    r = to_real_algebraic(elem)
    r.refine_to(Fraction(1, 2**prec))
    return float((r.lo + r.hi) / 2)


def test_quartic_builder():
    model = quartic_model()
    assert model.E.N == 4
    assert abs(approx_float(model.rho) - 0.227777) < 1e-6
    assert not model.drift.is_zero
    rules = {j: tuple(w) for j, w in model.sigma.rules.items()}
    assert rules == {1: (1, 4, 3), 2: (1, 4, 3, 2, 2, 3), 3: (1, 4, 3, 2, 3), 4: (1, 4, 4, 3)}


def test_e2star_spectrum():
    cp = charpoly([list(r) for r in SEVEN_PRODUCT])
    content, pieces = factor(cp)
    polys = sorted(q.coeffs for q, e in pieces for _ in range(e))
    assert polys == sorted(
        [(-1, 1), (-1, 10, -6, 1), (-1, 6, -10, 1)]
    )


def test_e2star_model():
    model = e2star_model()
    assert model.E.N == 7
    assert abs(approx_float(model.rho) - 0.106711) < 1e-6
    assert model.drift.is_zero
    # expansion is Pisot
    assert is_pisot(IntPoly((-1, 6, -10, 1)))
    rules = {j: tuple(w) for j, w in model.sigma.rules.items()}
    assert rules == E2STAR_RULES
    # commutation with the substitution holds column by column
    M = model.sigma.incidence()
    assert mat_mul(model.R, model.projection) == mat_mul(model.projection, M)
    assert (model.module.d, model.module.j, model.module.b) == (1, 1, 1)
    # rightmost interval is the renormalization window
    assert model.E.lengths[6] == model.rho
    assert model.window_start == model.E.total - model.rho * model.E.total
    assert d_T(model, 1) == 4


def test_e2star_incidence_is_product():
    model = e2star_model()
    assert model.sigma.incidence() == [list(r) for r in SEVEN_PRODUCT]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_family_member(k):
    model = ek_model(k)
    assert model.E.N == 7
    assert model.drift.is_zero
    assert is_irreducible(family_poly(k))
    lam = model.field.generator_element()
    assert model.E.total == 2 - lam
    assert (model.module.d, model.module.j, model.module.b) == (2, 1, 2)
    for l in model.E.lengths:
        assert l.sign() > 0


def test_family_polys():
    assert family_poly(1).coeffs == (-1, 7, -5, 1)
    assert family_poly(2).coeffs == (-1, 10, -6, 1)
    with pytest.raises(ValueError):
        family_poly(0)


@pytest.mark.parametrize(
    "make",
    [quartic_model, e2star_model] + [lambda k=k: ek_model(k) for k in (1, 2, 3)],
    ids=["quartic", "e2star", "ek1", "ek2", "ek3"],
)
def test_serialized_iet_rebuilds_its_lattice_model(make):
    model = make()
    E2 = IET.from_data(json.loads(json.dumps(model.E.to_data())))
    assert E2 == model.E
    assert E2.field.basis == model.field.basis
    rho = None if model.rho is None else E2.field.from_power_coords(model.rho.power_coords)
    again = LatticeModel(E2, rho=rho, anchor=model.anchor)
    assert again.projection == model.projection
    assert (again.module.d, again.module.j, again.module.b) == (
        model.module.d,
        model.module.j,
        model.module.b,
    )
    assert again.R == model.R
    assert list(again.drift) == list(model.drift)
