import json

import pytest

from ietlab.builders import (
    SEVEN_PRODUCT,
    e2star_model,
    ek_first_return,
    ek_model,
    family_poly,
    quartic_model,
)
from ietlab.algebraic import real_roots
from ietlab.iet import IET
from ietlab.lattice import LatticeModel, spectrum_check
from ietlab.matrices import charpoly, mat_mul
from ietlab.numberfield import is_pisot
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


def test_quartic_builder():
    model = quartic_model()
    assert model.E.N == 4
    assert abs(float(model.rho) - 0.227777) < 1e-6
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
    assert abs(float(model.rho) - 0.106711) < 1e-6
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
    assert model.window == (model.E.total - model.rho * model.E.total, model.E.total)
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
    # the window and factor of the self-similar first return, as data
    assert (model.window, model.rho, model.R) == (model.E.atoms()[0], lam, None)


def test_family_polys_are_irreducible_and_ek_takes_the_least_root():
    for k in range(1, 13):
        f = family_poly(k)
        # a monic cubic without the rational roots +-1 is irreducible
        assert (f(1), f(-1)) == (2 * k, -4 * k - 10)
        assert is_irreducible(f)
        assert ek_model(k).field.generator == real_roots(f)[0]


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
    rho = E2.field.from_power_coords(model.rho.power_coords)
    again = LatticeModel(E2, rho=rho, window=model.window, basis=model.module.basis)
    assert again.window == model.window
    assert again.module.basis == model.module.basis
    assert again.projection == model.projection
    assert (again.module.d, again.module.j, again.module.b) == (
        model.module.d,
        model.module.j,
        model.module.b,
    )
    assert again.R == model.R
    assert list(again.drift) == list(model.drift)
    if model.sigma is None:  # E_k: the walks jump through the first return
        walks = [m.psi_orbit(m.point_of(m.total / 3), 10**4)[:2] for m in (model, again)]
        assert again._towers is not None
        assert walks[0] == walks[1]


@pytest.mark.parametrize("k", range(1, 13))
def test_ek_first_return(k):
    model = ek_first_return(k)
    assert model.rho == model.field.generator_element()
    assert (model.module.d, model.module.j, model.module.b) == (2, 1, 2)
    assert model.drift.is_zero
    assert spectrum_check(model) == (False, True, True)
    d = [d_T(model, T) for T in (1, 2, 3)]
    assert d == [2 * k, 4 * k * (2 * k + 5), 2 * k * (13 * k * k + 48 * k + 48)]
