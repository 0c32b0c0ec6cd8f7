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
Factorization is a deterministic search: rational roots, then Kronecker
interpolation.  The interpolation is fraction-free: an integer
Lagrange basis scaled by a common denominator D is built once per factor
degree, and a candidate must have coefficients divisible by D, fit the
Mignotte bound and pass integer divisibility tests at the leading coefficient
and at a spare sample point before any exact division.  ``factor`` and
``is_irreducible`` accept degree up to FACTOR_DEGREE_LIMIT (8) and raise
ValueError above it; Kronecker factors are searched up to degree
KRONECKER_DEGREE_LIMIT (4), which covers every split of degree 8.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import ne

FACTOR_DEGREE_LIMIT = 8
KRONECKER_DEGREE_LIMIT = 4
_SAMPLE_POINTS = (0, 1, -1, 2, -2, 3)  # KRONECKER_DEGREE_LIMIT + 1 nodes, one spare


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

    def reciprocal(self) -> "IntPoly":
        """Coefficient reversal x^deg * p(1/x)."""
        return IntPoly(reversed(self.coeffs))

    def is_self_reciprocal(self) -> bool:
        """Nonzero and a palindrome: x^deg * p(1/x) = p."""
        return bool(self.coeffs) and self.reciprocal() == self

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


def rational_roots(p: IntPoly):
    """All rational roots (with the divisor-pair search), sorted."""
    pp = p.primitive_part()
    if not pp or pp.degree == 0:
        return []
    while pp.coeffs[0] == 0:
        pp = IntPoly(pp.coeffs[1:])  # factor out x
        if pp.degree == 0:
            break
    roots = set()
    if p.coeffs and p.coeffs[0] == 0:
        roots.add(Fraction(0))
    if pp.degree >= 1 and pp.coeffs[0] != 0:
        dens = _divisors(abs(pp.lc))
        for num in _divisors(abs(pp.coeffs[0])):
            for den in dens:
                for s in (1, -1):
                    r = Fraction(s * num, den)
                    if pp(r) == 0:
                        roots.add(r)
    return sorted(roots)


_TRIAL_LIMIT = 1 << 10  # primes below this come out by trial division
# Miller-Rabin with these bases decides primality for every n below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases _MR_BASES: deterministic below
    3.3 * 10^24, a strong probable-prime test above."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A nontrivial factor of an odd composite n: Brent's variant of
    Pollard's rho on y -> y^2 + c, with gcds batched over 128 steps."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch took in every factor: redo it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"{n} is prime")


def _divisors(n: int):
    """Sorted positive divisors of n >= 1.

    Primes below _TRIAL_LIMIT come out by trial division, which takes each
    prime out of n as it is found (2^74 costs 75 divisions).  Pollard-Brent
    splits what is left and Miller-Rabin (`_is_prime`) says when a piece is
    prime, so the cost is about sqrt(q2) modular squarings for the second
    largest prime factor q2: two primes near 10^6 take about a millisecond,
    two near 2^40 about 2^20 squarings.
    """
    out = [1]
    p = 2
    while p < _TRIAL_LIMIT and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out = [d * p**i for d in out for i in range(e + 1)]
        p += 1
    # what is left has no prime factor below p: 1, a prime below p^2, or a
    # product of larger primes, which Pollard-Brent splits
    primes = [n] if 1 < n < p * p else []
    stack = [n] if n >= p * p else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            primes.append(m)
        else:
            f = _brent_factor(m)
            stack += [f, m // f]
    last = None
    for q in sorted(primes):
        # a repeated prime multiplies only the divisors its last copy added
        new = [d * q for d in (new if q == last else out)]
        out += new
        last = q
    return sorted(out)


def _mignotte_bound(p: IntPoly, d: int) -> int:
    # any degree-d factor has sup-norm at most 2^d * |p|_2
    norm2 = isqrt(sum(c * c for c in p.coeffs)) + 1
    return (1 << d) * norm2


def _lagrange_rows(d: int):
    """(D, rows) for the nodes x_0..x_d = _SAMPLE_POINTS[:d + 1]: rows[i] holds
    the integer coefficients of D*L_i, where L_i(x_j) = delta_ij and D is the
    lcm of the denominators prod_{j != i} (x_i - x_j)."""
    pts = _SAMPLE_POINTS[: d + 1]
    nums, dens = [], []
    for i, xi in enumerate(pts):
        num, den = IntPoly((1,)), 1
        for xj in pts[:i] + pts[i + 1:]:
            num, den = num * IntPoly((-xj, 1)), den * (xi - xj)
        nums.append(num.coeffs)
        dens.append(den)
    D = lcm(*dens)
    return D, [[c * (D // den) for c in num] for num, den in zip(nums, dens)]


def _kronecker_factor(p: IntPoly, d: int):
    """Deterministic degree-d factor search by divisor interpolation.

    A candidate takes a divisor of p(x_i) at each node; its numerator
    sum y_i * D*L_i is a polynomial iff every coefficient is 0 mod D, so the
    last node's choices are looked up by their residues mod D.  Integer tests
    (Mignotte bound, lc(cand) | lc(p), cand(s) | p(s) at the spare point s)
    run before the exact division."""
    pts = _SAMPLE_POINTS[: d + 2]
    vals = [p(x) for x in pts]
    if 0 in vals:
        # a rational integer root slipped through; caller handles roots first
        raise ValueError("sample point is a root")
    D, rows = _lagrange_rows(d)
    bound, s, ps = _mignotte_bound(p, d), pts[-1], vals[-1]
    scaled = []
    for i, (v, row) in enumerate(zip(vals, rows)):
        ys = _divisors(abs(v)) if i == 0 else [t * x for x in _divisors(abs(v)) for t in (1, -1)]
        scaled.append([[y * c for c in row] for y in ys])
    tails = {}
    for tail in scaled.pop():
        tails.setdefault(tuple(c % D for c in tail), []).append(tail)
    for combo in product(*scaled):
        head = [sum(col) for col in zip(*combo)]
        for tail in tails.get(tuple(-c % D for c in head), ()):
            cand = IntPoly((a + b) // D for a, b in zip(head, tail))
            if cand.degree != d or max(map(abs, cand.coeffs)) > bound or p.lc % cand.lc:
                continue
            cs = cand(s)
            if cs and not ps % cs and divides(cand, p):
                return cand
    return None


def _factor_squarefree(p: IntPoly):
    """Irreducible factors of a primitive squarefree polynomial."""
    out = []
    work = p
    for r in rational_roots(work):
        lin = IntPoly((-r.numerator, r.denominator))
        while divides(lin, work):
            out.append(lin)
            work = exact_quotient(work, lin)
    d = 2
    while work.degree >= 2 * d and d <= KRONECKER_DEGREE_LIMIT:
        fac = _kronecker_factor(work, d)
        if fac is None:
            d += 1
            continue
        if fac.lc < 0:
            fac = fac * IntPoly((-1,))
        out.append(fac)
        work = exact_quotient(work, fac)
    if work.degree >= 1:
        out.append(work)
    return out


def factor(p: IntPoly):
    """Factor into content and irreducible primitive factors with multiplicity.

    Returns (content, [(factor, multiplicity), ...]) with factors sorted by
    degree then coefficients; the product reassembles p exactly.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree > FACTOR_DEGREE_LIMIT:
        raise ValueError(f"factorization supported up to degree {FACTOR_DEGREE_LIMIT}")
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
    """Irreducibility over the rationals (of the primitive part)."""
    pp = p.primitive_part()
    if pp.degree < 1:
        return False
    if pp.degree == 1:
        return True
    if pp.coeffs[0] == 0:
        return False
    if pp.degree > FACTOR_DEGREE_LIMIT:
        raise ValueError(f"irreducibility supported up to degree {FACTOR_DEGREE_LIMIT}")
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


def trace_polynomial(p: IntPoly) -> IntPoly:
    """For a self-reciprocal p of even degree 2g, the degree-g polynomial q
    with x^g * q(x + 1/x) = p(x)."""
    if not p.is_self_reciprocal() or p.degree % 2 != 0 or p.degree < 2:
        raise ValueError("needs a self-reciprocal polynomial of even degree")
    g = p.degree // 2
    rest = list(p.coeffs)
    out = [0] * (g + 1)
    x2p1 = IntPoly((1, 0, 1))
    for m in range(g, -1, -1):
        a = rest[g + m]
        out[m] = a
        col = IntPoly([0] * (g - m) + [1])
        for _ in range(m):
            col = col * x2p1
        for k, c in enumerate(col.coeffs):
            rest[k] -= a * c
    if any(rest):
        raise AssertionError("trace polynomial extraction left a remainder")
    return IntPoly(out)


def power_sum_poly(T: int) -> IntPoly:
    """p_T with p_T(x + 1/x) = x^T + x^(-T): p_0 = 2, p_1 = y,
    p_T = y*p_(T-1) - p_(T-2)."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return IntPoly((2,))
    prev, cur = IntPoly((2,)), X
    for _ in range(T - 1):
        prev, cur = cur, X * cur - prev
    return cur
