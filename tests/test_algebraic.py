import math
import random
import time
from fractions import Fraction

import pytest

from ietlab import builders, polynomials
from ietlab.algebraic import RealAlgebraic, real_roots, root_in
from ietlab.matrices import charpoly
from ietlab.numberfield import is_pisot
from ietlab.polynomials import IntPoly


def P(*cs):
    return IntPoly(cs)


def test_from_rational():
    r = RealAlgebraic.from_rational(Fraction(3, 7))
    assert r.is_rational
    assert r.as_fraction() == Fraction(3, 7)
    assert float(r) == pytest.approx(3 / 7)


def test_real_roots_quadratic():
    roots = real_roots(P(-2, 0, 1))  # x^2 - 2
    assert len(roots) == 2
    assert float(roots[0]) == pytest.approx(-math.sqrt(2))
    assert float(roots[1]) == pytest.approx(math.sqrt(2))
    assert roots[0] < roots[1]


def test_real_roots_mixed_rational_and_irrational():
    p = P(-1, 2) * P(-2, 0, 1)  # (2x - 1)(x^2 - 2)
    roots = real_roots(p)
    assert len(roots) == 3
    vals = [float(r) for r in roots]
    assert vals == sorted(vals)
    assert roots[1].is_rational and roots[1].as_fraction() == Fraction(1, 2)


def test_real_roots_no_real():
    assert real_roots(P(1, 0, 1)) == []


def test_real_roots_multiple_roots_deduped():
    p = P(-1, 1) * P(-1, 1) * P(0, 1)
    roots = real_roots(p)
    assert [r.as_fraction() for r in roots] == [0, 1]


def test_refinement_narrows_and_preserves():
    r = real_roots(P(-2, 0, 1))[1]
    r.refine_to(Fraction(1, 10**9))
    assert r.hi - r.lo <= Fraction(1, 10**9)
    assert r.lo < r.hi
    assert float(r) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_refine_to_matches_repeated_refine():
    width = Fraction(1, 2**30)
    for p in (P(-2, 0, 1), P(-1, -1, 0, 1), P(1, -7, 13, -7, 1)):
        for a, b in zip(real_roots(p), real_roots(p)):
            a.refine_to(width)
            while b.hi - b.lo > width:
                b.refine()
            assert (a.lo, a.hi) == (b.lo, b.hi)


@pytest.mark.parametrize("build", [builders.quartic_model, builders.e2star_model])
def test_refine_to_16384_bits_brackets_a_sign_change(build):
    g = build().field.generator
    start = time.perf_counter()
    g.refine_to(Fraction(1, 2**16384))
    assert time.perf_counter() - start < 1.0
    assert g.hi - g.lo == Fraction(1, 2**16384)
    assert g.poly(g.lo) * g.poly(g.hi) < 0


def test_refinement_separates_close_roots():
    # 2^(2s) x^2 - 2^(s+2) x + 2 has the roots (2 +- sqrt 2) / 2^s, about
    # 2^(1.5-s) apart, so a Newton step from a coarse interval can land in
    # a unit interval without a sign change
    for s in range(8, 19):
        p = P(2, -(1 << (s + 2)), 1 << (2 * s))
        left, right = real_roots(p)
        for r in (left, right):
            r.refine_to(Fraction(1, 2 ** (4 * s + 100)))
            assert p(r.lo) * p(r.hi) < 0
        assert left.hi < right.lo


def test_real_roots_of_large_power_of_two_coefficients():
    # end coefficients 2 and 2^48 or 2^74: factoring cost must not follow their size
    for s in (24, 37):
        p = P(2, -(1 << (s + 2)), 1 << (2 * s))
        start = time.perf_counter()
        left, right = real_roots(p)
        assert time.perf_counter() - start < 1.0
        assert left.hi <= right.lo
        assert all(p(r.lo) * p(r.hi) < 0 for r in (left, right))


def test_comparisons_with_rationals():
    r = real_roots(P(-2, 0, 1))[1]  # sqrt(2)
    assert r > 1
    assert r < 2
    assert r > Fraction(14142, 10001)
    assert r < Fraction(14143, 10000)
    assert not r == 1


def test_comparisons_between_algebraics():
    s2 = real_roots(P(-2, 0, 1))[1]
    s3 = real_roots(P(-3, 0, 1))[1]
    assert s2 < s3
    assert s3 > s2
    # equality of the same root reached via different isolating intervals
    a = root_in(P(-2, 0, 1), 1, 2)
    b = root_in(P(-2, 0, 1), Fraction(7, 5), Fraction(3, 2))
    assert a == b
    assert not a == s3


def test_root_in_validates():
    with pytest.raises(ValueError):
        root_in(P(-2, 0, 1), -2, 2)  # two roots
    with pytest.raises(ValueError):
        root_in(P(-2, 0, 1), 2, 3)  # no root
    with pytest.raises(ValueError):
        root_in(P(-4, 0, 1), 1, 2)  # endpoint is the root
    r = root_in(P(-1, -1, 1), 1, 2)
    assert float(r) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_is_pisot_known_numbers():
    assert is_pisot(P(-1, -1, 1))  # golden ratio
    assert is_pisot(P(1, -3, 1))  # golden ratio squared
    assert is_pisot(P(-1, -1, 0, 1))  # plastic number
    assert is_pisot(P(-1, 0, 0, -1, 1))  # smallest quartic Pisot
    assert is_pisot(P(-2, 0, 1)) is False  # sqrt(2): conjugate modulus > 1
    assert not is_pisot(P(1, -1, -1, -1, 1))  # Salem: conjugates on the circle
    assert is_pisot(P(-3, 1))  # x - 3, the integer 3
    assert not is_pisot(P(-1, 1))  # 1 is not > 1... and not an algebraic unit anyway
    assert not is_pisot(P(1, 0, 1))  # no real roots


def test_is_pisot_rejects_nonmonic():
    assert not is_pisot(P(-1, 2))  # 1/2


def test_is_pisot_matches_mpmath():
    mp = pytest.importorskip("mpmath").mp
    from ietlab.polynomials import is_irreducible

    rng = random.Random(20070508)
    seen = {True: 0, False: 0}
    tol = 10**-40
    with mp.workdps(80):
        while sum(seen.values()) < 120:
            n = rng.randint(1, 4)
            p = P(*[rng.randint(-4, 4) for _ in range(n)], 1)
            if not p.coeffs[0] or not is_irreducible(p):
                continue
            roots = mp.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=300)
            reals = [x.real for x in roots if abs(x.imag) < tol]
            top = max(reals, default=None)
            others = list(roots)
            if top is not None:
                others.pop(min(range(n), key=lambda i: abs(roots[i] - top)))
            # a conjugate on the unit circle has modulus within tol of 1
            expected = top is not None and top > 1 and all(abs(x) < 1 - tol for x in others)
            assert is_pisot(p) == expected, p
            seen[expected] += 1
    assert min(seen.values()) >= 10


def test_cycle_product_expansion_constant():
    # pinned loop matrix: self-reciprocal charpoly, expansion not Pisot
    M = [[1, 1, 1, 1], [0, 2, 1, 0], [1, 2, 2, 1], [1, 1, 1, 2]]
    cp = charpoly(M)
    assert cp == P(1, -7, 13, -7, 1)
    assert not is_pisot(cp)
    beta = real_roots(cp)[-1]
    assert float(beta) == pytest.approx(1 / 0.22777710423438124, rel=1e-10)


def test_is_pisot_factors_p_once(monkeypatch):
    # is_irreducible factors p, and the moduli step takes that proof as
    # p's one factor instead of factoring p again; the other two runs
    # isolate the squares of the real roots and the pair's modulus
    runs = []
    run = polynomials._factor_squarefree
    monkeypatch.setattr(polynomials, "_factor_squarefree", lambda q: runs.append(q) or run(q))
    assert is_pisot(P(-1, -1, 0, 1))  # the plastic number
    assert len(runs) == 3 and runs.count(P(-1, -1, 0, 1)) == 1
    assert not is_pisot(P(1, -1, -1, -1, 1))  # Salem
    assert not is_pisot(P(-2, 0, 1))


def test_is_pisot_cubic_with_complex_pair():
    # the one real root ~9.37 dominates; pair modulus is 1/sqrt(beta)-small
    p = P(-1, 6, -10, 1)
    assert is_pisot(p)
    beta = real_roots(p)[-1]
    assert 1 / float(beta) == pytest.approx(0.106711, abs=1e-6)
