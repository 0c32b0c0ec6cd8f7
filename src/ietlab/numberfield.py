"""Number fields K = Q(theta).

Representation.  A FieldElement stores its power-basis coordinates as a
tuple of integer numerators over one positive integer denominator, in
lowest terms:

    x = (a_0 + a_1 theta + ... + a_{n-1} theta^{n-1}) / den.

This is the layout of FLINT/Antic's nf_elem.  Sums combine the integers
directly.  A product is an integer polynomial product reduced by the
integer minimal polynomial p through a table of theta^k mod p for
n <= k <= 2n-2, scaled by lc(p)^(n-1), so a non-monic p only enlarges the
denominator.  An inverse solves the integer multiplication matrix by
fraction-free elimination.  The value does not depend on a basis, so
+, -, *, / never touch a matrix.  A `Span` forms a rational combination
of fixed elements over their integer numerators with one reduction.
The field carries no module basis: a module and its coordinates belong
to `modules.ModuleData`.  Fields built separately on equal generators
share their elements (`shares_generator`): `coerce` moves one across.

Outside values.  `NumberField.coerce` makes an int or a Fraction a field
element; a float (inexact) and an element of a field with another
generator raise TypeError there, as a float does in `from_power_coords`.
Sums, order tests and every caller that takes a point, a bound or a
factor go through `coerce`.

Sign certificate.  Every generator carries a dyadic table: midpoints m_k
and one radius r with |2^P theta^k - m_k| <= r for k < n, where
m_0 = 2^P is exact.  The generator's isolating interval is
[g, g + 1] / 2^K with K >= P, so theta^k lies in an integer interval
over 2^(kK), which shifts down to P bits.  For x as above,
s = sum a_k m_k obeys |2^P den x - s| <= e = r sum_{k >= 1} |a_k|, so
|s| > e certifies the sign of x with one integer dot product, and a
rational x has e = 0.  When the bound straddles zero and a numerator is
nonzero, P doubles: the generator is refined and the table rebuilt, for
every later call too (`NumberField.precision` reads P).  A nonzero
numerator means x != 0, so the loop ends.  A rational generator (n = 1)
has the exact table m_0 = 1, r = 0.  `NumberField.enclosure` hands the
same certificate (s, e), at a precision no lower than asked for, to
callers that keep a position as an integer, and `NumberField.enclose`
hands it out for several elements at one scale: `iet.Cells` brackets a
point between integer bounds of IET atom or Vershik tile endpoints, and
the IET walk and `unit_representative` move and bound integer positions.

Powers and moduli of real roots build no field.  For an irreducible q
with leading coefficient a, the integer matrix a C (C the companion
matrix) has the eigenvalues a x over the roots x of q: its e-th power
gives x^e (`root_power`) and its second compound the products x y, among
them |z|^2 of a complex pair (`_pair_modulus_squared`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from operator import add, mul, sub

from .algebraic import RealAlgebraic, isolate, real_roots
from .matrices import charpoly, is_primitive, mat_pow, mat_vec, solve_fraction_free
from .polynomials import IntPoly, factor, is_irreducible

_START_BITS = 64
_FLOAT_BITS = 96  # __float__ also wants a relative error below 2^-64


class _Enclosure:
    """The dyadic sign table of one field's generator."""

    __slots__ = ("generator", "n", "bits", "mids", "rad")

    def __init__(self, generator: RealAlgebraic, n: int):
        self.generator = generator
        self.n = n
        self.bits = 0
        self.rad = 0
        self.mids = (1,) if n == 1 else None  # built on the first sign call

    def refine(self):
        """Double the precision (or start at _START_BITS) and rebuild."""
        bits = 2 * self.bits if self.bits else _START_BITS
        g = self.generator
        g.refine_to(Fraction(1, 1 << bits))
        m, k = g.m, g.k
        lo = hi = 1  # theta^i lies in [lo, hi] / 2^(i k)
        mids = []
        rad = 0
        for i in range(self.n):
            shift = i * k - bits
            if shift >= 0:
                low, high = lo >> shift, -(-hi >> shift)
            else:
                low, high = lo << -shift, hi << -shift
            mids.append((low + high) // 2)
            rad = max(rad, high - mids[-1])
            cands = (lo * m, lo * (m + 1), hi * m, hi * (m + 1))
            lo, hi = min(cands), max(cands)
        self.bits, self.mids, self.rad = bits, tuple(mids), rad

    def approx(self, num):
        """(s, e) with |2^bits * sum num_k theta^k - s| <= e; e = 0 when
        num_k = 0 for k >= 1."""
        if self.mids is None:
            self.refine()
        # m_0 = 2^bits exactly, so only num_1.. contribute to the error
        return sum(map(mul, num, self.mids)), self.rad * sum(map(abs, num[1:]))


def _reduction_table(p: IntPoly):
    """Rows lc^(n-1) * (theta^k mod p) for k = n..2n-2, and lc^(n-1).

    With c = p.coeffs[:n], U_k = lc^(k-n+1) * (theta^k mod p) is an integer
    vector: U_n = -c and U_{k+1} = lc * shift(U_k) - U_k[n-1] * c.  Row k
    is U_k * lc^(2n-2-k)."""
    n, lc, c = p.degree, p.lc, p.coeffs[:-1]
    rows, u = [], [-v for v in c]
    for k in range(n, 2 * n - 1):
        rows.append(tuple(v * lc ** (2 * n - 2 - k) for v in u))
        u = [lc * a - u[-1] * b for a, b in zip([0, *u[:-1]], c)]
    return rows, lc ** (n - 1)


class NumberField:
    """Q(theta) for a real algebraic generator theta."""

    def __init__(self, generator: RealAlgebraic):
        self.generator = generator
        self.minpoly = generator.poly
        self.n = n = self.minpoly.degree
        if n < 1:
            raise ValueError("generator needs a nonconstant minimal polynomial")
        self._red, self._red_den = _reduction_table(self.minpoly)
        self._enc = _Enclosure(generator, n)
        self.zero = FieldElement(self, (0,) * n, 1)
        self.one = FieldElement(self, (1,) + (0,) * (n - 1), 1)

    def shares_generator(self, other: "NumberField") -> bool:
        return self.generator is other.generator or (
            self.minpoly == other.minpoly and self.generator == other.generator
        )

    def coerce(self, x) -> "FieldElement":
        """x as an element of this field: an int or Fraction becomes one,
        an element sharing the generator is rebuilt here, anything else (a
        float, an element of another generator) raises TypeError."""
        if isinstance(x, FieldElement):
            if x.field is self:
                return x
            if self.shares_generator(x.field):
                return FieldElement(self, x.num, x.den)
            raise TypeError("elements belong to fields with different generators")
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TypeError(f"cannot take {type(x).__name__} {x!r} as an exact field element")

    # -- element constructors -------------------------------------------

    def from_power_coords(self, pc) -> "FieldElement":
        """The element with power coordinates pc: ints, Fractions or strings."""
        pc = [Fraction(c) if isinstance(c, str) else c for c in pc]
        if not all(isinstance(c, (int, Fraction)) for c in pc):
            raise TypeError("power coordinates must be ints, Fractions or strings")
        if len(pc) != self.n:
            raise ValueError("power coordinate vector has the wrong length")
        den = math.lcm(*(c.denominator for c in pc))
        # reduced fractions over their lcm are already in lowest terms
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in pc), den)

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.n - 1), q.denominator)

    def generator_element(self) -> "FieldElement":
        if self.n == 1:
            return self.from_rational(self.generator.as_fraction())
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2), 1)

    @property
    def precision(self) -> int:
        """P, the bits of the sign table that `enclosure` and `enclose`
        work at now; it only ever grows."""
        return self._enc.bits

    def enclosure(self, x: "FieldElement", bits: int = 0):
        """(s, e) with |2^P x.den x - s| <= e for an element x sharing the
        generator, from this field's sign table at P = `precision` >= bits
        after the call (the first call builds the table; a rational
        generator's is exact at P = 0); e = 0 for a rational x.  Another
        field with the same generator may keep its own table at another
        P, so a caller compares only pairs from one field."""
        enc = self._enc
        while enc.bits < bits and self.n > 1:
            enc.refine()
        return enc.approx(x.num)

    def enclose(self, xs, bits: int = 0):
        """(q, [(s, e), ...]) with |q x - s| <= e for each x in xs.

        Every pair comes from one table precision P >= bits (`enclosure`),
        with q = 2^P times the lcm of the denominators, so integer
        positions built from them can be added and compared.  A rational x
        has e = 0.
        """
        xs = [self.coerce(x) for x in xs]
        den = math.lcm(*(x.den for x in xs))
        out = []
        for x in xs:
            s, e = self.enclosure(x, bits)
            f = den // x.den
            out.append((s * f, e * f))
        return den << self._enc.bits, out

    # -- integer arithmetic ---------------------------------------------

    def _mul(self, a, b):
        """(c, f) with a(theta) * b(theta) = c(theta) / f, c integers."""
        n = self.n
        c = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    c[i + j] += x * y
        f = self._red_den
        out = c[:n] if f == 1 else [v * f for v in c[:n]]
        for ck, row in zip(c[n:], self._red):
            if ck:
                for i, t in enumerate(row):
                    out[i] += ck * t
        return out, f

    def __repr__(self):
        return f"NumberField(minpoly={self.minpoly!r}, n={self.n})"


def _reduced(field: NumberField, num, den: int) -> "FieldElement":
    """num/den in lowest terms; den must be positive."""
    g = math.gcd(*num, den)
    if g != 1:
        return FieldElement(field, tuple(v // g for v in num), den // g)
    return FieldElement(field, tuple(num), den)


def _combine(field, a, da, b, db, op):
    if da == db:
        num = tuple(map(op, a, b))
        return FieldElement(field, num, 1) if da == 1 else _reduced(field, num, da)
    return _reduced(field, [op(x * db, y * da) for x, y in zip(a, b)], da * db)


class Span:
    """Rational combinations of fixed elements e_1..e_m of one field,
    formed over integer numerators and reduced once."""

    __slots__ = ("field", "den", "rows")

    def __init__(self, elements):
        self.field = elements[0].field
        self.den = D = math.lcm(*(u.den for u in elements))
        # row r holds power coordinate r of each e_i, times den
        self.rows = [[u.num[r] * (D // u.den) for u in elements] for r in range(self.field.n)]

    def combine(self, coeffs, base=None) -> "FieldElement":
        """base + sum coeffs[i] e_i for int or Fraction coeffs."""
        L = math.lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (L // c.denominator) for c in coeffs]
        D = self.den * L
        num = [sum(map(mul, coeffs, row)) for row in self.rows]
        if base is not None:
            L = math.lcm(base.den, D)
            a, b = L // base.den, L // D
            num, D = [a * v + b * w for v, w in zip(base.num, num)], L
        return _reduced(self.field, num, D)


@total_ordering
class FieldElement:
    """(num_0 + num_1 theta + ... ) / den, an element of a NumberField."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def power_coords(self):
        return tuple(Fraction(v, self.den) for v in self.num)

    # -- coercion --------------------------------------------------------

    def _operand(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return other
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.field.coerce(other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, self.num, self.den, o.num, o.den, add)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, self.num, self.den, o.num, o.den, sub)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, o.num, o.den, self.num, self.den, sub)

    def __mul__(self, other):
        if isinstance(other, int):
            return _reduced(self.field, [v * other for v in self.num], self.den)
        if isinstance(other, Fraction):
            num = [v * other.numerator for v in self.num]
            return _reduced(self.field, num, self.den * other.denominator)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        c, f = self.field._mul(self.num, o.num)
        den = self.den * o.den * f
        return FieldElement(self.field, tuple(c), 1) if den == 1 else _reduced(self.field, c, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not any(self.num):
            raise ZeroDivisionError("division by zero field element")
        # multiplication by self is the integer matrix Mi over s on the
        # power basis; the inverse is the solution y of (Mi / s) y = e_0
        K, n = self.field, self.field.n
        cols = [K._mul([int(i == k) for i in range(n)], self.num) for k in range(n)]
        Mi, s = [[c[i] for c, _ in cols] for i in range(n)], cols[0][1] * self.den
        (x,), d = solve_fraction_free(Mi, [[1] + [0] * (len(Mi) - 1)])
        if d < 0:
            s, d = -s, -d
        return _reduced(self.field, [s * c for c in x], d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self * (1 / Fraction(other))
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- order and identity -------------------------------------------------

    def sign(self) -> int:
        enc = self.field._enc
        while True:
            s, e = enc.approx(self.num)
            if s > e:
                return 1
            if s < -e:
                return -1
            if not e:
                return 0  # every numerator is zero
            enc.refine()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                self.num == other.num
                and self.den == other.den
                and (other.field is self.field or self.field.shares_generator(other.field))
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and not any(self.num[1:])
            )
        return NotImplemented

    def __hash__(self):
        # equal across fields sharing a generator value
        return hash((self.field.minpoly.coeffs, self.num, self.den))

    def __lt__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return any(self.num)

    # -- queries -------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is irrational")
        return Fraction(self.num[0], self.den)

    def __float__(self) -> float:
        enc = self.field._enc
        while True:
            s, e = enc.approx(self.num)
            if not e or (enc.bits >= _FLOAT_BITS and abs(s) > e << 64):
                return s / (self.den << enc.bits)
            enc.refine()

    def __repr__(self):
        return f"FieldElement({list(self.power_coords)!r} ~ {float(self):.12g})"


def perron_pair(M):
    """Perron data (beta, v) of a primitive nonnegative integer matrix M:
    beta the largest real root of its charpoly p, v `perron_vector`."""
    if not is_primitive(M):
        raise ValueError("matrix is not primitive")
    p = charpoly(M)
    beta = real_roots(p)[-1]  # the Perron root: M is nonnegative
    return beta, perron_vector(M, p, beta)


def perron_vector(M, p: IntPoly, beta: RealAlgebraic):
    """The eigenvector in Q(beta)^n, positive and of sum 1, of a primitive
    nonnegative integer matrix M with charpoly p and Perron root beta.

    No field matrix is eliminated.  Synthetic division splits p as
    p(x) = (x - beta) q(x), with q over Q(beta).  The Perron root is
    simple, so q(M) kills every other generalized eigenspace and acts as
    q(beta) on the Perron line: q(M) = q(beta) P with P the Perron
    projection, positive for primitive M.  Hence v is a positive multiple
    of q(M) e_1 = sum_k q_k M^k e_1, built on the integer vectors M^k e_1.

    The exact checks (sum != 0, v > 0, M v = beta v) suffice: a positive
    eigenvector of a nonnegative matrix belongs to its spectral radius.
    """
    n = len(M)
    K = NumberField(beta)
    b = K.generator_element()
    q = [K.one]  # q_{n-1}, ..., q_0 by q_{k-1} = p_k + beta q_k
    for c in p.coeffs[n - 1:0:-1]:
        q.append(b * q[-1] + c)
    w, v = [int(i == 0) for i in range(n)], [K.zero] * n
    for qk in reversed(q):
        v = [x + qk * y if y else x for x, y in zip(v, w)]
        w = mat_vec(M, w)
    total = sum(v, K.zero)
    if not total:
        raise AssertionError("eigenvector sums to zero")
    t = total.inverse()
    v = [x * t for x in v]
    if any(x.sign() <= 0 for x in v):
        raise AssertionError("Perron eigenvector not strictly positive")
    if any(lhs != b * x for lhs, x in zip(mat_vec(M, v), v)):
        raise AssertionError("eigenvector equation failed")
    return v


def eigen_moduli_squared(p: IntPoly, pieces=None):
    """Squared moduli of the roots of p with multiplicities, sorted descending.

    Returns [(RealAlgebraic, mult), ...] with equal moduli merged.  A real
    root r of an irreducible factor q contributes r^2 (`root_power`) among
    the real eigenvalues of (a C)^2 / a^2 (`_powers`, built once per factor),
    and a factor with exactly one complex pair z, z-bar contributes |z|^2,
    twice (`_pair_modulus_squared`); neither builds a number field.  The
    pair path factors a polynomial of degree n(n-1)/2 for a factor of
    degree n (15 at n = 6); `factor` has no degree limit.  A factor with
    two or more complex pairs raises NotImplementedError.  pieces, p's
    irreducible factors with multiplicities when already known, spares
    the factoring.
    """
    if pieces is None:
        _, pieces = factor(p)
    entries = []  # (RealAlgebraic usq, multiplicity)
    for q, mult in pieces:
        rroots = isolate(q)
        squares = _powers(q, 2) if rroots else []
        entries += [(root_power(r, 2, squares), mult) for r in rroots]
        n_complex = q.degree - len(rroots)
        if n_complex > 2:
            raise NotImplementedError("modulus supported only for one complex pair per factor")
        if n_complex:
            entries.append((_pair_modulus_squared(q, rroots), 2 * mult))
    # exact descending sort, merging equal moduli
    entries.sort(key=lambda entry: entry[0], reverse=True)
    merged = []
    for usq, mult in entries:
        if merged and merged[-1][0] == usq:
            merged[-1] = (usq, merged[-1][1] + mult)
        else:
            merged.append((usq, mult))
    return merged


def _companion(q: IntPoly):
    """a C, with a = lc(q) and C the companion matrix of q: an integer
    matrix whose eigenvalues are a x over the roots x of q."""
    n, a, c = q.degree, q.lc, q.coeffs
    return [[a * (i == k + 1) for k in range(n - 1)] + [-c[i]] for i in range(n)]


def _eigenvalues(M, s: int):
    """The real roots of chi_M(s x), the real eigenvalues of M / s."""
    chi = charpoly(M)
    return real_roots(IntPoly(e * s**k for k, e in enumerate(chi.coeffs)))


def _powers(q: IntPoly, e: int):
    """The real eigenvalues of (a C)^e / a^e (`_companion`), among them x^e
    for every real root x of q."""
    return _eigenvalues(mat_pow(_companion(q), e), q.lc**e)


def _narrow(cands, roots, fits) -> RealAlgebraic:
    """The one candidate u with fits(u): candidates drop out as they and
    `roots` (which `fits` reads) are refined, so `fits` must hold for the
    wanted root at every width."""
    bits = 16
    while True:
        cands = [u for u in cands if fits(u)]
        if len(cands) == 1:
            return cands[0]
        if not cands:
            raise AssertionError("no eigenvalue fits the bound")
        bits *= 2
        for r in roots + cands:
            r.refine_to(Fraction(1, 1 << bits))


def root_power(r: RealAlgebraic, e: int, cands=None) -> RealAlgebraic:
    """r^e (e >= 0) with its minimal polynomial: the one of cands (by
    default `_powers(r.poly, e)`) that meets [min, max] of the e-th powers
    of r's interval ends.  No 0 lies inside a dyadic isolating interval, so
    x -> x^e is monotone on it; a rational r has lo = hi."""

    def fits(u):
        ends = r.lo**e, r.hi**e
        return u.lo <= max(ends) and min(ends) <= u.hi

    return _narrow(_powers(r.poly, e) if cands is None else cands, [r], fits)


def _pair_modulus_squared(q: IntPoly, rroots) -> RealAlgebraic:
    """|z|^2 for the one complex pair z, z-bar of the irreducible q, whose
    real roots are rroots.

    The second compound of a C (`_companion`; the 2 x 2 minors, rows and
    columns indexed by pairs i < j) has the eigenvalues a^2 x y over pairs
    of roots of q, so chi(a^2 x) has the roots x y and |z|^2 among the real
    ones.  As the intervals of the real roots shrink, the bound
    |z|^2 = |q(0)| / (a prod |r|) leaves only that candidate.
    """
    n, a, aC = q.degree, q.lc, _companion(q)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    compound = [[aC[i][k] * aC[j][l] - aC[i][l] * aC[j][k] for k, l in pairs] for i, j in pairs]
    target = abs(q.coeffs[0])

    def fits(u):
        lo = hi = a  # a prod |r| lies in [lo, hi]: no unit interval has 0 inside
        for r in rroots:
            ends = abs(r.lo), abs(r.hi)
            lo, hi = lo * min(ends), hi * max(ends)
        return u.lo * lo <= target <= u.hi * hi

    return _narrow(_eigenvalues(compound, a * a), rroots, fits)


def is_pisot(p: IntPoly) -> bool:
    """Whether the largest real root of the irreducible monic p is a Pisot
    number: an algebraic integer > 1 with every conjugate of modulus < 1.

    A reading of `eigen_moduli_squared`, exact and within its limit (at
    most one complex pair, at any degree): the largest real root
    is > 1, the top squared modulus is simple and the next one is < 1.  A
    non-monic p is not Pisot; a reducible p raises ValueError.
    """
    p = p.primitive_part()
    if not p or p.degree < 1 or p.lc != 1:
        return False
    if not is_irreducible(p):
        raise ValueError("Pisot test expects an irreducible polynomial")
    roots = isolate(p)
    if not roots or not roots[-1] > 1:
        return False
    mods = eigen_moduli_squared(p, [(p, 1)])
    return mods[0][1] == 1 and (len(mods) == 1 or mods[1][0] < 1)

