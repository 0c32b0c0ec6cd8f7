"""Real algebraic numbers, exactly.

A number is its minimal polynomial p (irreducible, primitive, positive
leading coefficient) and, unless it is rational, the dyadic unit interval
[m, m + 1] / 2^k that contains it and isolates it among the roots of p.
Such p has no rational roots, so it changes sign across the interval, and
every sign is one integer Horner pass (`IntPoly.homogenized`).  Refinement
raises k by quadratic interval refinement (Abbott, 2006): a Newton step to
about twice the precision is kept when p changes sign across its unit
interval, else the interval is bisected.  The interval at a given level is
unique, so the path taken never shows, and distinct numbers separate into
different intervals of one level.
"""
from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from .polynomials import (
    IntPoly,
    factor,
    root_bound,
    sign_variations,
    squarefree_part,
    sturm_chain,
)

# Newton at level k aims at level 2k - _GUARD_BITS; below that gain, bisect
_GUARD_BITS = 16


def _point(m: int, k: int):
    """(a, b) with a / b = m / 2^k and b > 0."""
    return (m, 1 << k) if k >= 0 else (m << -k, 1)


def _floor_at(x: Fraction, k: int) -> int:
    """floor(x * 2^k)."""
    a, b = x.numerator, x.denominator
    return (a << k) // b if k >= 0 else a // (b << -k)


def _level(width: Fraction) -> int:
    """The least k with 2^-k <= width."""
    if width <= 0:
        raise ValueError("width must be positive")
    k = width.denominator.bit_length() - width.numerator.bit_length()
    return k + (_floor_at(width, k) < 1)


@total_ordering
class RealAlgebraic:
    """A real root of an irreducible integer polynomial.

    Instances refine their isolating interval in place; all views of the
    same object share the benefit.  Construct through real_roots,
    isolate, from_rational or root_in rather than directly.
    """

    __slots__ = ("poly", "m", "k")

    def __init__(self, poly: IntPoly, m: int = None, k: int = None):
        self.poly = poly
        self.m = m
        self.k = k

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "RealAlgebraic":
        q = Fraction(q)
        return cls(IntPoly((-q.numerator, q.denominator)))

    # -- basic queries -------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.poly.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational number")
        a, b = self.poly.coeffs
        return Fraction(-a, b)

    @property
    def lo(self) -> Fraction:
        return self.as_fraction() if self.is_rational else Fraction(*_point(self.m, self.k))

    @property
    def hi(self) -> Fraction:
        return self.as_fraction() if self.is_rational else Fraction(*_point(self.m + 1, self.k))

    def _sign(self, m: int, k: int = None) -> bool:
        """Whether p(m / 2^k) > 0, k defaulting to the current level."""
        return self.poly.homogenized(*_point(m, self.k if k is None else k)) > 0

    # -- refinement ----------------------------------------------------

    def refine(self):
        """One bisection step on the isolating interval."""
        if not self.is_rational:
            self._to_level(self.k + 1)

    def refine_to(self, width: Fraction):
        """Refine until the interval is at most `width` wide: the unit
        interval at the least level k with 2^-k <= width."""
        if not self.is_rational:
            self._to_level(_level(Fraction(width)))

    def _to_level(self, level: int) -> int:
        """Refine to at least `level`; returns m."""
        p, m, k = self.poly, self.m, self.k
        if k >= level:
            return m
        dp, low = p.derivative(), self._sign(m)  # low: the sign left of the root
        while k < level:
            a, b = _point(2 * m + 1, k + 1)  # the midpoint
            v = p.homogenized(a, b)
            t = min(2 * k - _GUARD_BITS, level)
            if t > k + 1:
                # x = a/b - p/p' at the midpoint, floored at level t
                d = dp.homogenized(a, b)
                if d:
                    c = ((a * d - v) << (t - k - 1)) // d
                    if c >> (t - k) == m and self._sign(c, t) == low != self._sign(c + 1, t):
                        m, k = c, t
                        continue
            m, k = (2 * m + 1 if (v > 0) == low else 2 * m), k + 1
        self.m, self.k = m, k
        return m

    def __float__(self) -> float:
        self.refine_to(Fraction(1, 1 << 64))
        return float((self.lo + self.hi) / 2)

    # -- comparisons ---------------------------------------------------

    def _cmp_fraction(self, q: Fraction) -> int:
        if self.is_rational:
            r = self.as_fraction()
            return (r > q) - (r < q)
        if self.lo < q < self.hi:  # p has the left end's sign left of the root
            left = self.poly.homogenized(q.numerator, q.denominator) > 0
            return 1 if left == self._sign(self.m) else -1
        return 1 if q <= self.lo else -1

    def _cmp(self, other) -> int:
        if isinstance(other, RealAlgebraic) and other.is_rational:
            other = other.as_fraction()
        if isinstance(other, (int, Fraction)):
            return self._cmp_fraction(Fraction(other))
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        if self.is_rational:
            return -other._cmp_fraction(self.as_fraction())
        # unit intervals of one level meet at most in an endpoint, which is
        # a root of neither polynomial, and isolate the roots of each
        level = max(self.k, other.k)
        while self._to_level(level) == other._to_level(level):
            if self.poly == other.poly:
                return 0
            level += 1
        return 1 if self.m > other.m else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_fraction() == other
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        return self.poly == other.poly and self._cmp(other) == 0

    __hash__ = None

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __repr__(self):
        return f"RealAlgebraic({self.poly!r}, ~{float(self):.12g})"


def real_roots(p: IntPoly):
    """All distinct real roots of p, sorted: `isolate` on each factor."""
    _, pieces = factor(squarefree_part(p))
    return sorted(r for q, _ in pieces for r in isolate(q))


def isolate(q: IntPoly):
    """The real roots of the irreducible q, sorted.

    A linear q gives its rational root.  A q of degree >= 2 is bisected
    with its own Sturm chain from the unit intervals [-2^b, 0] and [0, 2^b]
    of its root bound.  Such q has no rational root, so no dyadic point is
    a root.  q is not checked, so a caller that knows it factors nothing.
    """
    if q.degree == 1:
        return [RealAlgebraic(q)]
    chain = sturm_chain(q)

    def variations(m, k):
        return sign_variations(chain, *_point(m, k))

    k = 1 - root_bound(q).bit_length()
    v0 = variations(0, k)
    stack = [(-1, k, variations(-1, k), v0), (0, k, v0, variations(1, k))]
    roots = []
    while stack:
        m, k, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            roots.append(RealAlgebraic(q, m, k))
        elif vlo - vhi > 1:
            vmid = variations(2 * m + 1, k + 1)
            stack += [(2 * m, k + 1, vlo, vmid), (2 * m + 1, k + 1, vmid, vhi)]
    return sorted(roots)


def root_in(p: IntPoly, lo, hi) -> "RealAlgebraic":
    """The unique root of p inside (lo, hi); raises if not isolating."""
    lo, hi = Fraction(lo), Fraction(hi)
    if p(lo) == 0 or p(hi) == 0:
        raise ValueError("endpoint is a root; shrink the interval")
    inside = [r for r in real_roots(p) if r._cmp_fraction(lo) > 0 and r._cmp_fraction(hi) < 0]
    if len(inside) != 1:
        raise ValueError("interval does not isolate a single root")
    return inside[0]
