"""Real algebraic numbers, exactly.

A number is represented by its (irreducible, primitive, positive leading
coefficient) minimal polynomial together with a rational interval that
isolates exactly one of its real roots.  The interval endpoints are never
roots: a minimal polynomial of degree >= 2 has no rational roots, and the
rational case is stored with a collapsed interval.  Comparisons against
rationals and other algebraic numbers work by interval refinement, which
always terminates because distinct numbers eventually separate.
"""
from __future__ import annotations

from fractions import Fraction

from .polynomials import (
    IntPoly,
    count_roots,
    factor,
    is_irreducible,
    root_bound,
    squarefree_part,
    sturm_chain,
)


class RealAlgebraic:
    """A real root of an irreducible integer polynomial.

    Instances refine their isolating interval in place; all views of the
    same object share the benefit.  Construct through real_roots,
    from_rational, or root_in rather than directly.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "RealAlgebraic":
        q = Fraction(q)
        return cls(IntPoly((-q.numerator, q.denominator)), q, q)

    # -- basic queries -------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.poly.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational number")
        a, b = self.poly.coeffs
        return Fraction(-a, b)

    # -- refinement ----------------------------------------------------

    def refine(self):
        """One bisection step on the isolating interval."""
        self.refine_to((self.hi - self.lo) / 2)

    def refine_to(self, width: Fraction):
        """Bisect until the interval is at most `width` wide."""
        if self.hi - self.lo <= width:
            return
        # irreducible of degree >= 2 cannot vanish at a rational, so the
        # sign at lo stays the same as lo moves toward the root
        lo_positive = self.poly(self.lo) > 0
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            if (self.poly(mid) > 0) == lo_positive:
                self.lo = mid
            else:
                self.hi = mid

    def refine_away_from_zero(self):
        """Shrink until the interval has a definite sign (the root is nonzero
        whenever the minimal polynomial has nonzero constant term)."""
        if self.poly.coeffs[0] == 0:
            raise ValueError("the number is zero")
        while self.lo < 0 < self.hi:
            self.refine()

    def __float__(self) -> float:
        self.refine_to(Fraction(1, 1 << 64))
        return float((self.lo + self.hi) / 2)

    # -- comparisons ---------------------------------------------------

    def _cmp_fraction(self, q: Fraction) -> int:
        if self.is_rational:
            r = self.as_fraction()
            return (r > q) - (r < q)
        while self.lo < q < self.hi:
            self.refine()
        if q <= self.lo:
            return 1
        return -1

    def _cmp(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            return self._cmp_fraction(Fraction(other))
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        if self == other:
            return 0
        while not (self.hi <= other.lo or other.hi <= self.lo):
            self.refine()
            other.refine()
        return 1 if other.hi <= self.lo else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_fraction() == other
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        if self.poly != other.poly:
            return False
        if self.is_rational:
            return True
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo >= hi:
            return False
        return count_roots(self.poly, lo, hi) == 1

    __hash__ = None

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __repr__(self):
        return f"RealAlgebraic({self.poly!r}, ~{float(self):.12g})"


def real_roots(p: IntPoly):
    """All distinct real roots of p, sorted, as RealAlgebraic numbers."""
    sf = squarefree_part(p)
    if sf.degree < 1:
        if not p:
            raise ValueError("every number is a root of the zero polynomial")
        return []
    chain = sturm_chain(sf)
    bound = root_bound(sf)
    _, pieces = factor(sf)
    irreducibles = [q for q, _ in pieces]

    isolated = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        c = count_roots(sf, lo, hi, chain)
        if c == 0:
            continue
        if c == 1:
            isolated.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        k = 2
        while sf(mid) == 0:
            mid = lo + (hi - lo) / (1 << k)
            k += 1
        stack.append((lo, mid))
        stack.append((mid, hi))

    roots = []
    for lo, hi in isolated:
        owner = None
        for q in irreducibles:
            if q.degree == 1:
                a, b = q.coeffs
                if lo < Fraction(-a, b) < hi:
                    owner = q
                    break
            elif count_roots(q, lo, hi) == 1:
                owner = q
                break
        if owner is None:
            raise AssertionError("isolated interval lost its factor")
        if owner.degree == 1:
            a, b = owner.coeffs
            r = Fraction(-a, b)
            roots.append(RealAlgebraic(owner, r, r))
        else:
            roots.append(RealAlgebraic(owner, lo, hi))
    roots.sort(key=lambda r: r.lo)
    return roots


def root_in(p: IntPoly, lo, hi) -> "RealAlgebraic":
    """The unique root of p inside (lo, hi); raises if not isolating."""
    lo, hi = Fraction(lo), Fraction(hi)
    if p(lo) == 0 or p(hi) == 0:
        raise ValueError("endpoint is a root; shrink the interval")
    sf = squarefree_part(p)
    if count_roots(sf, lo, hi) != 1:
        raise ValueError("interval does not isolate a single root")
    for r in real_roots(p):
        target = r.as_fraction() if r.is_rational else None
        if target is not None:
            if lo < target < hi:
                return r
        else:
            # shrink the root's own interval into (lo, hi)
            probe = RealAlgebraic(r.poly, r.lo, r.hi)
            if probe._cmp_fraction(lo) > 0 and probe._cmp_fraction(hi) < 0:
                return probe
    raise ValueError("no root in the interval")


def is_pisot(p: IntPoly) -> bool:
    """Whether the largest real root of irreducible monic p is a Pisot number:
    an algebraic integer > 1 with every conjugate of modulus < 1.

    Exact for degree <= 4: real conjugates are compared through Sturm
    isolation, and the single possible complex pair has squared modulus
    |c0| / |product of real roots|, decided by interval refinement.  A
    self-reciprocal polynomial of degree > 2 puts the pair on the unit
    circle, so it is rejected outright.
    """
    p = p.primitive_part()
    if not p or p.lc != 1:
        return False
    n = p.degree
    if n < 1:
        return False
    if n == 1:
        return p.coeffs[0] <= -2
    if n > 4:
        raise ValueError("exact Pisot test supported up to degree 4")
    if not is_irreducible(p):
        raise ValueError("Pisot test expects an irreducible polynomial")
    roots = real_roots(p)
    if not roots:
        return False
    alpha = roots[-1]
    if not alpha > 1:
        return False
    for r in roots[:-1]:
        if not (-1 < r and r < 1):
            return False
    n_complex = n - len(roots)
    if n_complex == 0:
        return True
    # exactly one conjugate pair remains; |z|^2 * prod|real| = |c0|
    if p.is_self_reciprocal():
        return False
    return _abs_product_exceeds(roots, abs(p.coeffs[0]))


def _abs_product_exceeds(roots, c: int) -> bool:
    """Decide prod |r| > c by refining isolating intervals; the caller
    guarantees equality cannot occur."""
    for r in roots:
        r.refine_away_from_zero()
    while True:
        lo_prod = Fraction(1)
        hi_prod = Fraction(1)
        for r in roots:
            alo, ahi = abs(r.lo), abs(r.hi)
            if alo > ahi:
                alo, ahi = ahi, alo
            lo_prod *= alo
            hi_prod *= ahi
        if lo_prod > c:
            return True
        if hi_prod < c:
            return False
        for r in roots:
            r.refine()
