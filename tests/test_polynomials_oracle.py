"""`factor` and `is_irreducible` against sympy's factorization over the integers."""
import random

import pytest

from ietlab.polynomials import FACTOR_DEGREE_LIMIT, IntPoly, factor, is_irreducible

sympy = pytest.importorskip("sympy")


def random_product(rng):
    """A product of one to four random factors of degree 1..4, total degree <= 8."""
    p, room = IntPoly((1,)), FACTOR_DEGREE_LIMIT
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, min(4, room))
        p = p * IntPoly([rng.randint(-3, 3) for _ in range(d)] + [rng.choice((1, 2, 3, -1))])
        room -= d
        if room == 0:
            break
    return p


def test_factor_and_is_irreducible_match_sympy():
    x = sympy.symbols("x")
    rng = random.Random(20070508)
    for _ in range(200):
        p = random_product(rng)
        content, pieces = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
        expected = sorted((tuple(int(c) for c in reversed(q.all_coeffs())), e) for q, e in pieces)
        got_content, got = factor(p)
        assert (got_content, sorted((q.coeffs, e) for q, e in got)) == (int(content), expected), p
        assert is_irreducible(p) == (len(expected) == 1 and expected[0][1] == 1), p
