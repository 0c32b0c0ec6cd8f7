"""Normalization of the coefficient module of a self-similar IET.

The translations of a renormalizable IET span a rank-n Z-module M inside
the field K = Q(rho).  This module carries the lattice model, and three
integers control its arithmetic:

  d : least positive integer with d*M contained in the multiplier ring
      O = {zeta in K : zeta*M subset of M}; then J = d*M is an ideal-like
      sublattice of O,
  j : least positive rational integer lying in J (J cap Q = j*Z),
  b : d / gcd(d, j), the modulus of the torsion coordinate.

These come from the definitions on integer coordinates; O is never
built.  d*nu_k is in O exactly when every d*nu_k*nu_i is in M, so d is
the lcm of the coordinate denominators of the n^2 products nu_k*nu_i;
zeta is in O exactly when every zeta*nu_i is in M.  M must contain 1.

Module bases.  M is presented by a basis nu_1..nu_n of K over Q, which
`ModuleData` owns; the field itself is plain Q(theta).  The default is the
power basis (1, theta, ..., theta^{n-1}); models that work in a scaled
lattice such as Z[lambda]/2 pass their own basis (`LatticeModel(...,
basis=...)`).  Coordinates with respect to it (`ModuleData.coords`) are
one integer matrix times an element's power numerators, over one common
denominator, and they read any element that shares the generator,
whatever field object it came from.

A basis nu' of J is chosen with nu'_1 = j, so every zeta in M is
(1/d) * sum m_k nu'_k with integer m_k, and replacing m_0 by m_0 mod b
loses nothing modulo the integer translations already present.  The
reduced coordinate map phi' : M -> Z/bZ x Z^{n-1} is the bridge between
the IET and its lattice picture.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .matrices import identity, inverse_int, mat_vec, solve_fraction_free, unimodular_completion
from .numberfield import FieldElement, NumberField, Span


class ModuleData:
    """The module M with basis nu (n elements of K, the power basis by
    default) and its normalized presentation: d from the products
    nu_k*nu_i, j from the integer coordinates of 1 (a ValueError if 1 is
    not in M) and the unimodular W with first column (j/d)*coords(1)."""

    def __init__(self, K: NumberField, basis=None):
        self.field = K
        n = K.n
        if basis is None:
            basis = [K.generator_element() ** k for k in range(n)]
        self.basis = [K.coerce(nu) for nu in basis]
        if len(self.basis) != n:
            raise ValueError("basis size must equal the field degree")
        # nu-coordinates of x are _inv x.num / (_den x.den), _inv integer:
        # span.rows is D V for the power coordinates V of the basis, so
        # V^-1 = D X^T / det, reduced by g, which takes det's sign
        span = Span(self.basis)
        X, det = solve_fraction_free(span.rows, identity(n))  # raises if the basis is dependent
        DX = [[span.den * x for x in col] for col in X]
        g = gcd(det, *(v for col in DX for v in col)) * (1 if det > 0 else -1)
        self._den = det // g
        self._inv = [[col[i] // g for col in DX] for i in range(n)]
        # d: least d with d*nu_k*nu_i in M for all k, i, i.e. d*M inside O
        self.d = d = lcm(*(q // gcd(q, *w) for nu in self.basis for w, q in self._images(nu)[0]))

        w, q = self.scaled_coords(1)
        if any(v % q for v in w):
            raise ValueError(f"1 is not in the module: its coordinates are {self.coords(1)}")
        one = [v // q for v in w]
        # J = d*M has nu-coordinate lattice d*Z^n; integers c in J need
        # c*one in d*Z^n
        self.j = j = lcm(1, *(d // gcd(d, c) for c in one))
        self.b = d // gcd(d, j)

        # primitive first basis vector (j/d)*one, completed
        self.W = unimodular_completion([j * c // d for c in one])
        self.Winv = inverse_int(self.W)
        # nu' basis as field elements: nu-coordinates are d * (columns of W)
        self.nu_prime = [span.combine([d * self.W[i][k] for i in range(n)]) for k in range(n)]
        self.units = [nu / d for nu in self.nu_prime]  # the points nu'_k / d
        self._span = Span(self.units)

    def scaled_coords(self, x):
        """(w, q): integers w and q > 0 with nu-coordinates w_k / q of x,
        an element sharing the generator or a rational."""
        x = self.field.coerce(x)
        return [sum(map(mul, row, x.num)) for row in self._inv], self._den * x.den

    def coords(self, x):
        """The nu-coordinates of x as Fractions."""
        w, q = self.scaled_coords(x)
        return tuple(Fraction(v, q) for v in w)

    def _images(self, zeta: FieldElement):
        """The scaled coordinates (w, q) of zeta*nu_k for every k, and
        whether all are integral, i.e. zeta*M lies in M."""
        cols = [self.scaled_coords(zeta * nu) for nu in self.basis]
        return cols, not any(v % q for w, q in cols for v in w)

    def mult_matrix(self, zeta: FieldElement):
        """Integer matrix of multiplication by zeta on the basis nu.

        Column k holds the nu-coordinates of zeta*nu_k; raises ValueError
        if one is not an integer (zeta does not stabilize the module)."""
        cols, integral = self._images(zeta)
        if not integral:
            raise ValueError("element does not stabilize the module")
        return [[w[i] // q for w, q in cols] for i in range(self.field.n)]

    def m_coords(self, zeta: FieldElement):
        """Integer coordinates m with zeta = (1/d) sum m_k nu'_k."""
        w, q = self.scaled_coords(zeta)
        if any(v % q for v in w):
            raise ValueError(f"module element has non-integer coordinates {self.coords(zeta)}")
        return tuple(mat_vec(self.Winv, [v // q for v in w]))

    def from_m_coords(self, m) -> FieldElement:
        """The point (1/d) sum m_k nu'_k, one integer combination."""
        if len(m) != self.field.n:
            raise ValueError("coordinate length mismatch")
        return self._span.combine(m)

    def reduced(self, zeta: FieldElement):
        """phi'(zeta): first coordinate mod b, the rest exact."""
        m = self.m_coords(zeta)
        return (m[0] % self.b,) + m[1:]

    def in_order(self, zeta: FieldElement) -> bool:
        """Membership of zeta in the multiplier ring O: zeta*nu_k in M for
        every k, read from the same products as `mult_matrix`."""
        return self._images(zeta)[1]


def module_normalize(K: NumberField, basis=None) -> ModuleData:
    return ModuleData(K, basis)
