"""Number fields K = Q(theta) with a designated module basis.

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
+, -, *, / never touch a matrix.

Module bases.  A NumberField also carries a module basis nu_1..nu_n of K
over Q.  The default is the power basis (1, theta, ..., theta^{n-1});
models that work in a scaled lattice such as Z[lambda]/2 swap in their
own basis with `with_basis`.  Coordinates with respect to that basis
(`coords`, `element`, `basis`) go through the basis matrix, which only
the module and lattice code asks for.  Views of one field share the
generator, and equal elements are equal across views.

Sign certificate.  Every generator carries a dyadic table: midpoints m_k
and one radius r with |2^P theta^k - m_k| <= r for k < n, taken from
floor and ceil of interval powers of the generator's isolating interval
once it is narrower than 2^-P.  For x as above, s = sum a_k m_k obeys
|2^P den x - s| <= r sum |a_k|, so |s| > r sum |a_k| certifies the sign
of x with one integer dot product.  When the bound straddles zero and a
numerator is nonzero, P doubles: the generator is refined and the table
rebuilt, for every later call too.  A nonzero numerator means x != 0, so
the loop ends.  A rational generator (n = 1) has the exact table m_0 = 1,
r = 0.  `NumberField.enclose` hands the same certificate to callers that
keep a position as an integer.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub

from .algebraic import RealAlgebraic, real_roots
from .matrices import charpoly, inverse, is_primitive, kernel_vector, mat_vec, solve_fraction_free
from .polynomials import IntPoly, count_roots, factor

_START_BITS = 64
_FLOAT_BITS = 96  # __float__ also wants a relative error below 2^-64


class _Enclosure:
    """The dyadic sign table of one generator, shared by its basis views."""

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
        scale = 1 << bits
        lo = hi = Fraction(1)
        mids = []
        rad = 0
        for _ in range(self.n):
            low, high = math.floor(lo * scale), math.ceil(hi * scale)
            m = (low + high) // 2
            mids.append(m)
            rad = max(rad, high - m)
            cands = (lo * g.lo, lo * g.hi, hi * g.lo, hi * g.hi)
            lo, hi = min(cands), max(cands)
        self.bits, self.mids, self.rad = bits, tuple(mids), rad

    def approx(self, num):
        """(s, e) with |2^bits * sum num_k theta^k - s| <= e."""
        if self.mids is None:
            self.refine()
        return sum(map(mul, num, self.mids)), self.rad * sum(map(abs, num))


def _reduction_table(p: IntPoly):
    """Rows lc^(n-1) * (theta^k mod p) for k = n..2n-2, and lc^(n-1)."""
    n, lc = p.degree, p.lc
    top = [Fraction(-c, lc) for c in p.coeffs[:-1]]  # theta^n
    rows = []
    r = top
    for _ in range(n - 1):
        rows.append(r)
        lead = r[-1]
        r = [lead * t for t in top]
        for i in range(1, n):
            r[i] += rows[-1][i - 1]
    scale = lc ** (n - 1)
    return [tuple(int(c * scale) for c in row) for row in rows], scale


class NumberField:
    """Q(theta) together with a module basis nu_1..nu_n."""

    def __init__(self, generator: RealAlgebraic, _basis=None, _enclosure=None):
        self.generator = generator
        self.minpoly = generator.poly
        self.n = n = self.minpoly.degree
        if n < 1:
            raise ValueError("generator needs a nonconstant minimal polynomial")
        self._red, self._red_den = _reduction_table(self.minpoly)
        self._enc = _enclosure or _Enclosure(generator, n)
        # basis matrix V (columns: power coordinates of nu_k) and its
        # inverse, or None for the power basis
        self._V, self._Vinv = _basis or (None, None)
        self.zero = FieldElement(self, (0,) * n, 1)
        self.one = FieldElement(self, (1,) + (0,) * (n - 1), 1)

    @property
    def is_power_basis(self) -> bool:
        return self._V is None

    def with_basis(self, elements) -> "NumberField":
        """Same field, new module basis given as n field elements."""
        cols = [self._coerce(e).power_coords for e in elements]
        if len(cols) != self.n:
            raise ValueError("basis size must equal the field degree")
        V = [[cols[k][i] for k in range(self.n)] for i in range(self.n)]
        Vinv = inverse(V)  # raises if the basis is dependent
        if all(V[i][k] == (i == k) for i in range(self.n) for k in range(self.n)):
            return NumberField(self.generator, None, self._enc)
        return NumberField(self.generator, (V, Vinv), self._enc)

    def shares_generator(self, other: "NumberField") -> bool:
        return self.generator is other.generator or (
            self.minpoly == other.minpoly and self.generator == other.generator
        )

    def _coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.field is self or self.shares_generator(x.field):
                return x
            raise TypeError("elements belong to fields with different generators")
        return self.from_rational(x)

    # -- element constructors -------------------------------------------

    def from_power_coords(self, pc) -> "FieldElement":
        pc = [Fraction(c) for c in pc]
        if len(pc) != self.n:
            raise ValueError("power coordinate vector has the wrong length")
        den = math.lcm(*(c.denominator for c in pc))
        # reduced fractions over their lcm are already in lowest terms
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in pc), den)

    def element(self, coords) -> "FieldElement":
        """The element with the given module-basis coordinates."""
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.n:
            raise ValueError("coordinate vector has the wrong length")
        return self.from_power_coords(coords if self._V is None else mat_vec(self._V, coords))

    def coords_of(self, x):
        """Module-basis coordinates of x (an element sharing the generator,
        or a rational)."""
        pc = self._coerce(x).power_coords
        return pc if self._V is None else tuple(mat_vec(self._Vinv, pc))

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.n - 1), q.denominator)

    def generator_element(self) -> "FieldElement":
        if self.n == 1:
            return self.from_rational(self.generator.as_fraction())
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2), 1)

    @property
    def basis(self):
        """The module basis nu_1..nu_n as field elements."""
        n = self.n
        if self._V is None:
            return [FieldElement(self, tuple(int(i == k) for i in range(n)), 1) for k in range(n)]
        return [self.from_power_coords([self._V[i][k] for i in range(n)]) for k in range(n)]

    def enclose(self, xs):
        """(q, [(s, e), ...]) with |q x - s| <= e for each x in xs.

        Every pair comes from one table precision P, with q = 2^P times
        the lcm of the denominators, so integer positions built from them
        can be added and compared.  A rational x has e = 0.
        """
        xs = [self._coerce(x) for x in xs]
        enc = self._enc
        den = math.lcm(*(x.den for x in xs))
        out = []
        for x in xs:
            s, e = enc.approx(x.num)
            f = den // x.den
            # m_0 = 2^P exactly, so s is exact for a rational x
            out.append((s * f, 0 if x.is_rational else e * f))
        return den << enc.bits, out

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


class FieldElement:
    """(num_0 + num_1 theta + ... ) / den, viewed in a NumberField."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def power_coords(self):
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def coords(self):
        """Coordinates with respect to the field's module basis."""
        return self.field.coords_of(self)

    # -- coercion --------------------------------------------------------

    def _coerce(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return other
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.field._coerce(other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, self.num, self.den, o.num, o.den, add)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, self.num, self.den, o.num, o.den, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, o.num, o.den, self.num, self.den, sub)

    def __mul__(self, other):
        if isinstance(other, int):
            return _reduced(self.field, [v * other for v in self.num], self.den)
        if isinstance(other, Fraction):
            num = [v * other.numerator for v in self.num]
            return _reduced(self.field, num, self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c, f = self.field._mul(self.num, o.num)
        den = self.den * o.den * f
        return FieldElement(self.field, tuple(c), 1) if den == 1 else _reduced(self.field, c, den)

    __rmul__ = __mul__

    def _times_matrix(self):
        """(Mi, s): multiplication by self on the power basis is the
        integer matrix Mi divided by s."""
        K = self.field
        n = K.n
        cols = [K._mul([int(i == k) for i in range(n)], self.num) for k in range(n)]
        return [[c[i] for c, _ in cols] for i in range(n)], cols[0][1] * self.den

    def inverse(self) -> "FieldElement":
        if not any(self.num):
            raise ZeroDivisionError("division by zero field element")
        # the inverse is the solution y of (Mi / s) y = e_0
        Mi, s = self._times_matrix()
        X, d = solve_fraction_free(Mi, [1] + [0] * (len(Mi) - 1))
        if d < 0:
            s, d = -s, -d
        return _reduced(self.field, [s * x for x in X], d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        # equal across basis views sharing a generator value
        return hash((self.field.minpoly.coeffs, self.num, self.den))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign()

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

    def min_poly(self) -> IntPoly:
        """Minimal polynomial over Q (primitive, positive leading coefficient)."""
        if self.is_rational:
            q = self.as_fraction()
            return IntPoly((-q.numerator, q.denominator))
        # the characteristic polynomial of Mi / s is chi_Mi(s x) / s^n
        Mi, s = self._times_matrix()
        chi = charpoly(Mi)
        ip = IntPoly(c * s**k for k, c in enumerate(chi.coeffs)).primitive_part()
        _, pieces = factor(ip)
        for q, _mult in pieces:
            if not q(self):
                return q
        raise AssertionError("no factor of the characteristic polynomial vanished")

    def __float__(self) -> float:
        enc = self.field._enc
        while True:
            s, e = enc.approx(self.num)
            if not e or (enc.bits >= _FLOAT_BITS and abs(s) > e << 64):
                return s / (self.den << enc.bits)
            enc.refine()

    def __repr__(self):
        return f"FieldElement({list(self.coords)!r} ~ {float(self):.12g})"


def compare(a, b) -> int:
    """Exact sign of a - b for field elements / rationals."""
    if isinstance(a, FieldElement):
        return a._cmp(b)
    if isinstance(b, FieldElement):
        return -b._cmp(a)
    a, b = Fraction(a), Fraction(b)
    return (a > b) - (a < b)


def spectral_radius(M) -> RealAlgebraic:
    """Largest real root of the characteristic polynomial.

    For a nonnegative matrix this is the spectral radius (the Perron root
    dominates every complex eigenvalue in modulus).
    """
    roots = real_roots(charpoly(M))
    if not roots:
        raise ValueError("matrix has no real eigenvalue")
    return roots[-1]


def perron_pair(M):
    """Perron data of a primitive nonnegative integer matrix.

    Returns (beta, v): beta the spectral radius as a RealAlgebraic and v
    the exact eigenvector in Q(beta)^n, strictly positive, normalized to
    sum 1, with M v = beta v verified exactly.
    """
    if not is_primitive(M):
        raise ValueError("matrix is not primitive")
    n = len(M)
    beta = spectral_radius(M)
    K = NumberField(beta)
    b = K.generator_element()
    rows = [
        [K.from_rational(M[i][j]) - (b if i == j else K.zero) for j in range(n)]
        for i in range(n)
    ]
    v = kernel_vector(rows)
    total = K.zero
    for x in v:
        total = total + x
    if not total:
        raise AssertionError("eigenvector sums to zero")
    v = [x / total for x in v]
    for x in v:
        if x.sign() <= 0:
            raise AssertionError("Perron eigenvector not strictly positive")
    for lhs, x in zip(mat_vec(M, v), v):
        if lhs != b * x:
            raise AssertionError("eigenvector equation failed")
    return beta, v


def to_real_algebraic(x: FieldElement) -> RealAlgebraic:
    """The value of x as a standalone algebraic number (minpoly + interval)."""
    q = x.min_poly()
    if q.degree == 1:
        a, b = q.coeffs
        return RealAlgebraic.from_rational(Fraction(-a, b))
    enc = x.field._enc
    while True:
        s, e = enc.approx(x.num)
        scale = x.den << enc.bits
        lo, hi = Fraction(s - e, scale), Fraction(s + e, scale)
        if q(lo) != 0 and q(hi) != 0 and count_roots(q, lo, hi) == 1:
            return RealAlgebraic(q, lo, hi)
        enc.refine()


def eigen_moduli_squared(p: IntPoly):
    """Squared moduli of the roots of p with multiplicities, sorted descending.

    Returns [(RealAlgebraic, mult), ...].  Real roots contribute their
    squares; a complex pair of an irreducible quadratic or cubic factor
    contributes the exact product identity |z|^2 = |c0/lc| / |real part of
    the spectrum|.  Irreducible quartic factors with complex roots are not
    supported (never produced by the matrices analyzed here).
    """
    _, pieces = factor(p)
    entries = []  # (RealAlgebraic usq, multiplicity)
    for q, mult in pieces:
        rroots = real_roots(q)
        for r in rroots:
            if r.is_rational:
                rv = r.as_fraction()
                entries.append((RealAlgebraic.from_rational(rv * rv), mult))
            else:
                K = NumberField(r)
                entries.append((to_real_algebraic(K.generator_element() ** 2), mult))
        n_complex = q.degree - len(rroots)
        if n_complex == 0:
            continue
        if n_complex != 2:
            raise NotImplementedError(
                "modulus of complex roots supported only for a single conjugate pair"
            )
        c_ratio = Fraction(abs(q.coeffs[0]), abs(q.lc))
        if q.degree == 2:
            entries.append((RealAlgebraic.from_rational(c_ratio), 2))
        elif q.degree == 3:
            r = rroots[0]
            K = NumberField(r)
            u = K.from_rational(c_ratio) / abs(K.generator_element())
            entries.append((to_real_algebraic(u), 2))
        else:
            raise NotImplementedError(
                "complex pair modulus for irreducible quartic factors is not supported"
            )
    # exact descending sort, merging equal moduli
    entries.sort(key=lambda entry: entry[0])
    entries.reverse()
    merged = []
    for usq, mult in entries:
        if merged and merged[-1][0] == usq:
            merged[-1] = (usq, merged[-1][1] + mult)
        else:
            merged.append((usq, mult))
    return merged


def spectral_radius_squared(M) -> RealAlgebraic:
    """Exact square of the spectral radius (largest root modulus) of an
    integer matrix; complex pairs included via eigen_moduli_squared."""
    return eigen_moduli_squared(charpoly(M))[0][0]


def mult_matrix(zeta: FieldElement):
    """Integer matrix of multiplication by zeta on the field's module basis.

    Column k holds the coordinates of zeta*nu_k; raises if any coordinate
    is non-integral (zeta does not stabilize the module)."""
    K = zeta.field
    cols = []
    for nu in K.basis:
        prod = zeta * nu
        col = []
        for c in prod.coords:
            if c.denominator != 1:
                raise ValueError("element does not stabilize the module")
            col.append(int(c))
        cols.append(col)
    return [[cols[k][i] for k in range(K.n)] for i in range(K.n)]
