"""Dense integer polynomials with exact arithmetic.

Coefficients are stored ascending, so ``coeffs[k]`` is the coefficient of
``x**k``; trailing zeros are stripped and the zero polynomial has an empty
coefficient tuple.  Everything here is exact and stays in the integers.
The sign of p at a/b is read from b^deg p(a/b), one integer Horner pass
(`homogenized`).  Sturm chains, gcds and squarefree parts come from
pseudo-remainder sequences made primitive at each step (Knuth, TAOCP
vol. 2, 4.6.1), with Sturm remainders scaled by positive constants only;
exact division by a primitive divisor is integer long division (Gauss's
lemma).  Gcds are returned as primitive integer polynomials.
Factorization is Zassenhaus's algorithm (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 14-15), at any degree.  A primitive
squarefree p of degree n is reduced mod the first odd prime q that keeps
its degree and squarefreeness.  Distinct-degree and then Cantor-Zassenhaus
equal-degree splitting (a random.Random with a fixed seed, so runs repeat)
give its monic factors mod q; a single one means p is irreducible.
Otherwise they are Hensel-lifted quadratically along a binary factor tree
to q^(2^j) > 2 |lc(p)| B, B the Mignotte bound 2^(n-1) |p|_2 at degree
n - 1, since a subset of at most half the modular factors can still have
degree above n/2.  Subsets of the lifted factors, times lc(p), are tried
smallest first in symmetric residues; exact integer division decides each.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, isqrt
from operator import ne


class IntPoly:
    """Immutable dense polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def homogenized(self, a: int, b: int = 1) -> int:
        """b^deg * p(a/b) as an integer, by one Horner pass; for b > 0 its
        sign is the sign of p(a/b).  Sturm counts, refinement and
        comparisons all read signs from here."""
        v, w = 0, 1
        for c in reversed(self.coeffs):
            v = v * a + c * w
            w *= b
        return v

    def derivative(self) -> "IntPoly":
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k)

    def content(self) -> int:
        """Signed content: gcd of coefficients carrying the sign of the
        leading coefficient, so primitive_part always has positive lc."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        if g and self.lc < 0:
            g = -g
        return g

    def primitive_part(self) -> "IntPoly":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly(x // c for x in self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(f"{c:+d}")
            elif k == 1:
                terms.append(f"{c:+d}*x")
            else:
                terms.append(f"{c:+d}*x^{k}")
        return "IntPoly(" + " ".join(terms) + ")"


X = IntPoly((0, 1))


def _prem(a, b):
    """r with c * a = q * b + r for some positive integer c and deg r < deg b:
    the pseudo-remainder of coefficient lists a and b (b nonzero), scaled at
    each step by the least positive factor that keeps it integral."""
    if b[-1] < 0:
        b = [-y for y in b]  # a = q*b + r = (-q)(-b) + r
    lb, nb = b[-1], len(b)
    r = list(a)
    while len(r) >= nb:
        c = r.pop()
        g = gcd(lb, c)
        u, v = lb // g, c // g
        s = len(r) - nb + 1
        r = [x * u for x in r[:s]] + [x * u - v * y for x, y in zip(r[s:], b)]
        while r and r[-1] == 0:
            r.pop()
    return r


def _quotient(a, b):
    """q with a = q * b for integer coefficient lists and a primitive b, or
    None when b does not divide a.  By Gauss's lemma a quotient over the
    rationals is then integral, so each step's exact division decides."""
    r = list(a)
    nb, lb = len(b), b[-1]
    q = [0] * max(len(r) - nb + 1, 0)
    while len(r) >= nb:
        c, rest = divmod(r[-1], lb)
        if rest:
            return None
        s = len(r) - nb
        q[s] = c
        for i, y in enumerate(b):
            r[s + i] -= c * y
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return None if r else q


def divides(b: IntPoly, a: IntPoly) -> bool:
    """Whether b divides a over the rationals."""
    if not b:
        return not a
    return _quotient(a.coeffs, b.primitive_part().coeffs) is not None


def exact_quotient(a: IntPoly, b: IntPoly) -> IntPoly:
    """The primitive part of a / b; raises unless b divides a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = _quotient(a.coeffs, b.primitive_part().coeffs)
    if q is None:
        raise ValueError("not an exact polynomial quotient")
    return IntPoly(q).primitive_part()


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over the rationals (positive leading coefficient), by a
    primitive pseudo-remainder sequence."""
    a, b = a.primitive_part(), b.primitive_part()
    while b:
        a, b = b, IntPoly(_prem(a.coeffs, b.coeffs)).primitive_part()
    return a


def squarefree_part(p: IntPoly) -> IntPoly:
    pp = p.primitive_part()
    if pp.degree <= 1:
        return pp
    g = poly_gcd(pp, pp.derivative())
    if g.degree == 0:
        return pp
    return exact_quotient(pp, g)


def _pos_primitive(p: IntPoly) -> IntPoly:
    # the primitive part with the sign pattern of p
    return p.primitive_part() if p.lc > 0 else -p.primitive_part()


def sturm_chain(p: IntPoly):
    """Sturm sequence of p; members scaled by positive constants only."""
    chain = [_pos_primitive(p), _pos_primitive(p.derivative())]
    while chain[-1]:
        r = _prem(chain[-2].coeffs, chain[-1].coeffs)
        if not r:
            break
        chain.append(_pos_primitive(IntPoly(-c for c in r)))
    return chain


def sign_variations(chain, a: int, b: int = 1) -> int:
    """Sign changes of the chain at a/b (b > 0), zeros skipped."""
    signs = [v > 0 for v in (q.homogenized(a, b) for q in chain) if v]
    return sum(map(ne, signs, signs[1:]))


def count_roots(p: IntPoly, lo, hi, chain=None) -> int:
    """Number of distinct real roots of p in (lo, hi]; endpoints must not be roots
    of p for the open/half-open distinction to be immaterial."""
    if chain is None:
        chain = sturm_chain(squarefree_part(p))
    lo, hi = Fraction(lo), Fraction(hi)
    return sign_variations(chain, lo.numerator, lo.denominator) - sign_variations(
        chain, hi.numerator, hi.denominator
    )


def root_bound(p: IntPoly) -> int:
    """A power of two above the Cauchy bound 1 + max|c_k| / |lc|: all real
    roots lie in (-bound, bound)."""
    if p.degree < 1:
        raise ValueError("constant polynomial")
    top = abs(p.lc) + max(abs(c) for c in p.coeffs[:-1])
    return 1 << (top.bit_length() - abs(p.lc).bit_length() + 1)


def _mod(cs, m):
    """The coefficient list cs mod m, trailing zeros dropped: polynomials
    mod a prime, and mod its powers in the Hensel lift, are such lists."""
    cs = [c % m for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _add_mod(a, b, m, k=1):
    """a + k b mod m."""
    return _mod([x + k * y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _mul_mod(a, b, m):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _mod(out, m)


def _divmod_mod(a, b, m):
    """(q, r) with a = q b + r mod m and deg r < deg b; lc(b) is a unit mod m."""
    inv, nb = pow(b[-1], -1, m), len(b)
    r = [c % m for c in a]
    q = [0] * max(len(r) - nb + 1, 0)
    for s in range(len(r) - nb, -1, -1):
        c = q[s] = r[s + nb - 1] * inv % m
        if c:
            for i, y in enumerate(b):
                r[s + i] = (r[s + i] - c * y) % m
    return _mod(q, m), _mod(r[: nb - 1], m)


def _monic_mod(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd_mod(a, b, p):
    """The monic gcd mod the prime p of a nonzero a and b."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _xgcd_mod(g, h, p):
    """(s, t) with s g + t h = 1 mod the prime p, deg s < deg h and
    deg t < deg g, for coprime g and h of positive degree."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _add_mod(s0, _mul_mod(q, s1, p), p, -1)
        t0, t1 = t1, _add_mod(t0, _mul_mod(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)


def _pow_mod(a, e, f, p):
    """a^e mod f, mod the prime p."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return out


def _modular_factors(f, p, rng):
    """The monic irreducible factors mod the odd prime p of the monic
    squarefree f: distinct-degree splitting, then Cantor-Zassenhaus
    equal-degree splitting of each part with random elements from rng."""
    parts, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd_mod(f, _add_mod(h, [0, 1], p, -1), p)
        if len(g) > 1:
            parts.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        parts.append((f, len(f) - 1))
    out = []
    while parts:
        g, d = parts.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        # a^((p^d - 1)/2) - 1 vanishes at about half the roots in GF(p^d)
        a = _mod([rng.randrange(p) for _ in range(len(g) - 1)], p)
        u = _gcd_mod(g, _add_mod(_pow_mod(a, (p**d - 1) // 2, g, p), [1], p, -1), p)
        parts += [(u, d), (_divmod_mod(g, u, p)[0], d)] if 1 < len(u) < len(g) else [(g, d)]
    return out


def _hensel_lift(f, fs, p, m):
    """Monic lifts mod m = p^(2^j) of the monic factors fs mod p of the
    coefficient list f, where f = lc(f) prod fs mod p.  The factors split
    in two halves g, h with s g + t h = 1, and quadratic Hensel steps lift
    all four from p to p^2, p^4, ..., m (von zur Gathen and Gerhard,
    Algorithm 15.10); each half is then lifted the same way."""
    if len(fs) == 1:
        return [_monic_mod(f, m)]
    k = len(fs) // 2
    g, h = [f[-1] % p], [1]
    for u in fs[:k]:
        g = _mul_mod(g, u, p)
    for u in fs[k:]:
        h = _mul_mod(h, u, p)
    s, t = _xgcd_mod(g, h, p)
    M = p
    while M < m:
        M *= M
        e = _add_mod(f, _mul_mod(g, h, M), M, -1)
        q, r = _divmod_mod(_mul_mod(s, e, M), h, M)
        g = _add_mod(_add_mod(g, _mul_mod(t, e, M), M), _mul_mod(q, g, M), M)
        h = _add_mod(h, r, M)
        if M == m:
            break  # the halves are lifted; s and t are not needed again
        b = _add_mod(_add_mod(_mul_mod(s, g, M), _mul_mod(t, h, M), M), [1], M, -1)
        c, d = _divmod_mod(_mul_mod(s, b, M), h, M)
        s = _add_mod(s, d, M, -1)
        t = _add_mod(_add_mod(t, _mul_mod(t, b, M), M, -1), _mul_mod(c, g, M), M, -1)
    return _hensel_lift(g, fs[:k], p, m) + _hensel_lift(h, fs[k:], p, m)


def _factor_squarefree(p: IntPoly):
    """Irreducible factors of a primitive squarefree polynomial with
    positive leading coefficient, by Zassenhaus's algorithm."""
    n, lc, f = p.degree, p.lc, list(p.coeffs)
    if n <= 1:
        return [p] if n == 1 else []
    q = 3
    while True:  # the first odd prime keeping the degree and squarefreeness
        if lc % q and all(q % d for d in range(3, isqrt(q) + 1, 2)):
            fq = _monic_mod(f, q)
            if len(_gcd_mod(fq, _mod([k * c for k, c in enumerate(fq)][1:], q), q)) == 1:
                break
        q += 2
    fs = _modular_factors(fq, q, random.Random(2007))
    if len(fs) == 1:
        return [p]
    # 2 |lc| times the Mignotte bound 2^(n-1) |p|_2 on the coefficients of
    # a factor of degree n - 1, which up to half the modular factors can make
    m, bound = q, (2 * abs(lc) << (n - 1)) * (isqrt(sum(c * c for c in f)) + 1)
    while m <= bound:
        m *= m
    fs = _hensel_lift(f, fs, q, m)
    out, size = [], 1
    while 2 * size <= len(fs):
        for pick in combinations(range(len(fs)), size):
            cand = [p.lc]
            for i in pick:
                cand = _mul_mod(cand, fs[i], m)
            cand = IntPoly(c - m if 2 * c > m else c for c in cand).primitive_part()
            if divides(cand, p):
                out.append(cand)
                p = exact_quotient(p, cand)
                fs = [u for i, u in enumerate(fs) if i not in pick]
                break
        else:
            size += 1
    return out + [p]


def factor(p: IntPoly):
    """Factor into content and irreducible primitive factors with multiplicity.

    Returns (content, [(factor, multiplicity), ...]) with factors sorted by
    degree then coefficients; the product reassembles p exactly.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    content = p.content()
    pp = p.primitive_part()
    if pp.degree == 0:
        return content, []
    ntz = 0
    while pp.coeffs[ntz] == 0:
        ntz += 1
    if ntz:
        pp = IntPoly(pp.coeffs[ntz:])
    pieces = {}
    if ntz:
        pieces[X] = ntz
    sf = squarefree_part(pp)
    for q in _factor_squarefree(sf):
        e = 0
        work = pp
        while divides(q, work):
            work = exact_quotient(work, q)
            e += 1
        pieces[q] = pieces.get(q, 0) + e
    factors = sorted(pieces.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs))
    check = IntPoly((content,))
    for q, e in factors:
        for _ in range(e):
            check = check * q
    if check != p:
        raise AssertionError("factorization failed to reassemble input")
    return content, factors


def is_irreducible(p: IntPoly) -> bool:
    """Irreducibility over the rationals (of the primitive part); settled
    without lifting when p has one factor mod the prime."""
    pp = p.primitive_part()
    if pp.degree < 1:
        return False
    if pp.degree == 1:
        return True
    if pp.coeffs[0] == 0:
        return False
    if poly_gcd(pp, pp.derivative()).degree > 0:
        return False
    return len(_factor_squarefree(pp)) == 1


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    m, n = p.degree, q.degree
    if not p or not q:
        return 0
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    from .matrices import det

    size = m + n
    a = list(reversed(p.coeffs))  # descending
    b = list(reversed(q.coeffs))
    S = [[0] * size for _ in range(size)]
    for i in range(n):
        for k, c in enumerate(a):
            S[i][i + k] = c
    for i in range(m):
        for k, c in enumerate(b):
            S[n + i][i + k] = c
    return int(det(S))
