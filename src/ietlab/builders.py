"""Ready-made models.

Three constructions are packaged here: a four-interval map with nonzero
drift whose scaling constant is a degree-four unit, a one-parameter family
of seven-interval maps with zero drift over half-integer modules of cubic
fields with the self-similar first-return maps on their leading
intervals, and the self-similar seven-interval companion of the k = 2
family member.
"""

from fractions import Fraction

from .algebraic import isolate, root_in
from .iet import IET, Permutation, iet_from_translations
from .lattice import LatticeModel, first_return_model
from .numberfield import NumberField, perron_pair
from .polynomials import IntPoly

QUARTIC_POLY = IntPoly((1, -7, 13, -7, 1))

# loop product of the 7-interval self-similar model; its Perron vector is
# the length vector and its charpoly splits into a reciprocal cubic pair
# times (x - 1)
SEVEN_PRODUCT = (
    (4, 9, 6, 6, 4, 8, 2),
    (0, 2, 1, 1, 0, 1, 0),
    (0, 2, 3, 0, 2, 2, 0),
    (1, 2, 1, 2, 0, 1, 0),
    (1, 1, 1, 1, 2, 2, 1),
    (0, 2, 2, 0, 2, 3, 0),
    (1, 1, 1, 1, 1, 1, 1),
)
SEVEN_PERM = (5, 4, 6, 2, 7, 3, 1)


def quartic_model() -> LatticeModel:
    """Four intervals, permutation (4213), nonzero drift.

    The scaling constant is the smallest root of x^4-7x^3+13x^2-7x+1 and
    the module is the full ring of power coordinates.
    """
    K = NumberField(root_in(QUARTIC_POLY, Fraction(1, 5), Fraction(1, 4)))
    r = K.generator_element()
    lengths = [
        r,
        1 - 4 * r + r * r,
        1 - 4 * r + 5 * r * r - r ** 3,
        -1 + 7 * r - 6 * r * r + r ** 3,
    ]
    E = IET(Permutation((4, 2, 1, 3)), lengths)
    return LatticeModel(E, rho=r, name="quartic")


def e2star_model() -> LatticeModel:
    """Self-similar seven-interval map with zero drift.

    Lengths are the Perron eigenvector of the loop product, the scaling
    constant is the reciprocal of its Perron root, and the rightmost
    interval is the renormalization window (total - rho*total, total).
    """
    beta, v = perron_pair([list(row) for row in SEVEN_PRODUCT])
    K = v[0].field
    rho = K.one / K.generator_element()
    E = IET(Permutation(SEVEN_PERM), v)
    return LatticeModel(E, rho=rho, name="e2star", window=(E.total - rho * E.total, E.total))


def family_poly(k: int) -> IntPoly:
    """x^3 - (k+4)x^2 + (3k+4)x - 1, the cubic of the k-th family member."""
    if k < 1:
        raise ValueError("family index must be >= 1")
    return IntPoly((-1, 3 * k + 4, -(k + 4), 1))


def ek_model(k: int) -> LatticeModel:
    """Seven-interval zero-drift map over the half-integer module.

    The map itself is not self-similar, so the model has no substitution
    and no scaling matrix R; it is the right object for drift checks and
    lattice iteration.  Its first return to the leading interval (atom 1)
    is self-similar with the factor lambda (`ek_first_return`), so the
    model takes lambda with atom 1 as its window, and long walks jump
    through the towers.  The permutation is recovered from the
    closed-form lengths and translations, which must tile the domain and
    agree with the translations it implies.
    """
    f = family_poly(k)
    K = NumberField(isolate(f)[0])  # monic cubic, f(1) = 2k, f(-1) = -4k - 10: irreducible
    lam = K.generator_element()
    lam2 = lam * lam
    half = Fraction(1, 2)
    lengths = [
        lam - lam2 * half,
        lam - lam2 * half,
        (1 - 3 * lam + lam2) * half,
        (1 - 3 * lam + lam2) * half,
        K.one * half,
        lam * half,
        (1 - lam) * half,
    ]
    taus = [
        (2 + lam - lam2) * half,
        (2 - 3 * lam + lam2) * half,
        (3 - 4 * lam + lam2) * half,
        (1 + 2 * lam - lam2) * half,
        (lam - 1) * half,
        (1 - lam) * half,
        (lam - 3) * half,
    ]
    E = iet_from_translations(lengths, taus)
    basis = [K.one * half, lam * half, lam2 * half]
    return LatticeModel(E, rho=lam, name=f"ek{k}", window=E.atoms()[0], basis=basis)


def ek_first_return(k: int) -> LatticeModel:
    """The first-return map of E_k on its leading interval, self-similar
    with the factor lambda, as a model over E_k's module."""
    return first_return_model(ek_model(k))[0]
