"""Lattice picture of an algebraic IET.

With the module machinery normalized (d, j, b, basis nu'), every point of
the module M has integer coordinates z, and the IET becomes the lattice
walk psi(z) = z + v_i, where v_i is the coordinate image of the i-th
translation and the atom i is selected by the real position of the point.
Layers xi + M (rational torsion residues) are invariant, so a model pins
one layer and walks Z^n.

Float bookkeeping: atom selection runs on cached float approximations
with a certified error radius; any comparison that lands inside the
uncertainty band is retried with exact field arithmetic.  Coordinates
themselves are always exact integers.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .iet import IET, check_self_similar
from .matrices import charpoly, mat_mul, mat_vec
from .modules import ModuleData, module_normalize
from .numberfield import FieldElement, mult_matrix
from .polynomials import IntPoly
from .substitution import PrefixGraph


class LatticePoint:
    """A layer representative xi (rational nu-coordinates in [0,1)) plus
    integer module coordinates z."""

    __slots__ = ("layer", "z")

    def __init__(self, layer, z):
        self.layer = tuple(Fraction(c) for c in layer)
        self.z = tuple(int(c) for c in z)

    def __eq__(self, other):
        return (
            isinstance(other, LatticePoint)
            and self.layer == other.layer
            and self.z == other.z
        )

    def __hash__(self):
        return hash((self.layer, self.z))

    def __repr__(self):
        return f"LatticePoint(layer={self.layer}, z={self.z})"


class DriftVector:
    """S = sum of length_i * v_i, with its exact nullity."""

    __slots__ = ("components", "is_zero")

    def __init__(self, components):
        self.components = tuple(components)
        self.is_zero = all(c.sign() == 0 for c in self.components)

    def __iter__(self):
        return iter(self.components)


class LatticeModel:
    """An IET together with its module coordinates and lattice dynamics."""

    def __init__(self, E: IET, rho=None, sigma=None, name: str = "", anchor: str = "left"):
        self.E = E
        self.name = name
        self.field = E.field
        self.n = self.field.n
        self.module: ModuleData = module_normalize(self.field)
        try:
            cols = [self.module.m_coords(t) for t in E.translations]
        except ValueError as exc:
            raise ValueError(f"translation not in the declared module: {exc}")
        # projection matrix: column i is v_i
        self.projection = [[cols[i][r] for i in range(E.N)] for r in range(self.n)]
        self.total = E.total
        if rho is not None and not isinstance(rho, FieldElement):
            rho = self.field.from_rational(Fraction(rho))
        self.rho = rho
        self.sigma = sigma
        self.anchor = anchor
        self.window_start = None
        self.R = None
        self.prefix_graph = None  # the substitution's prefix automaton
        self._Rnu = None
        if rho is not None:
            if not self.module.in_order(rho):
                raise ValueError("scaling factor does not multiply the module into itself")
            if anchor == "left":
                self.window_start = self.field.zero
            elif anchor == "right":
                self.window_start = E.total - rho * E.total
            else:
                raise ValueError("anchor must be 'left' or 'right'")
            self._Rnu = mult_matrix(rho)
            W, Winv = self.module.W, self.module.Winv
            self.R = mat_mul(Winv, mat_mul(self._Rnu, W))
            if sigma is None:
                ok, sig = check_self_similar(E, rho, anchor=anchor)
                if not ok:
                    raise ValueError("map is not self-similar with the given factor")
                self.sigma = sig
            self._verify_commutation()
            self.prefix_graph = PrefixGraph(self.sigma)
        self.drift = DriftVector(mat_vec(self.projection, E.lengths))
        self._float_cache = None

    def _verify_commutation(self):
        """R * projection = projection * M_sigma, column by column."""
        M = self.sigma.incidence()
        lhs = mat_mul(self.R, self.projection)
        rhs = mat_mul(self.projection, M)
        if lhs != rhs:
            raise AssertionError("lattice/substitution commutation failed")

    # -- exact geometry ------------------------------------------------

    def value_of(self, p: LatticePoint) -> FieldElement:
        """The field point xi + (1/d) sum z_k nu'_k."""
        K = self.field
        x = K.element(list(p.layer))
        return x + self.module.from_m_coords(p.z)

    def point_of(self, x) -> LatticePoint:
        """Lattice coordinates of a field point."""
        xi, z = self.layer_of(x)
        return LatticePoint(xi, z)

    def layer_of(self, x: FieldElement):
        """Unique split x = xi + (module point), xi rational in [0,1)^n."""
        coords = self.field.coords_of(x)
        floors = [Fraction(math.floor(c)) for c in coords]
        xi = tuple(c - f for c, f in zip(coords, floors))
        part = self.field.element(floors)
        return xi, self.module.m_coords(part)

    def scale_layer(self, xi):
        """rho * xi modulo the module, as a layer representative."""
        if self._Rnu is None:
            raise ValueError("model has no scaling factor")
        new = mat_vec(self._Rnu, [Fraction(c) for c in xi])
        return tuple(c - math.floor(c) for c in new)

    def order_of(self, xi):
        """Least t >= 1 with rho^t * xi = xi modulo the module.

        The orbit stays among layers with the same denominator bound m,
        a set of size m^n, so the loop terminates.
        """
        m = 1
        for c in xi:
            m = m * Fraction(c).denominator // math.gcd(m, Fraction(c).denominator)
        xi0 = tuple(Fraction(c) for c in xi)
        cur = xi0
        cap = m**self.n + 1
        for t in range(1, cap + 1):
            cur = self.scale_layer(cur)
            if cur == xi0:
                return t
        raise RuntimeError("layer order exceeded the denominator bound")

    # -- float fast path -----------------------------------------------

    def _floats(self):
        if self._float_cache is None:
            nu = [float(e) for e in self.field.basis]
            nup = [float(e) for e in self.module.nu_prime]
            self._float_cache = {
                "nu": nu,
                "nu_prime": nup,
                "bounds_f": [float(b) for b in self.E.rights],
                "taus_f": [float(t) for t in self.E.translations],
                "total_f": float(self.total),
            }
        return self._float_cache

    def _value_float(self, p: LatticePoint):
        fc = self._floats()
        x = 0.0
        mag = 0.0
        for c, nf in zip(p.layer, fc["nu"]):
            t = float(c) * nf
            x += t
            mag += abs(t)
        d = self.module.d
        for c, nf in zip(p.z, fc["nu_prime"]):
            t = c * nf / d
            x += t
            mag += abs(t)
        # conservative radius: relative error per term plus summation slack
        return x, (mag + 1.0) * 1e-14

    def _atom_exact(self, p: LatticePoint) -> int:
        x = self.value_of(p)
        return self.E.atom_of(x)  # raises if out of the slab

    # -- dynamics --------------------------------------------------------

    def psi_apply(self, p: LatticePoint) -> LatticePoint:
        return self.psi_orbit(p, 1)[0]

    def psi_orbit(self, p: LatticePoint, k: int, checkpoints=()):
        """Walk k steps; returns (final point, symbol counts, checkpoint map).

        checkpoints: iterable of step indices at which to record
        (step, z, max-norm); the identity z_k - z_0 = projection * counts
        holds exactly and is the caller's Eq.-style ledger.
        """
        marks = {}
        want = set(checkpoints)
        counts = [0] * self.E.N
        layer = p.layer
        fc = self._floats()
        xf, err = self._value_float(p)
        z = list(p.z)
        proj = self.projection
        taus_f = fc["taus_f"]
        bounds_f = fc["bounds_f"]
        total_f = fc["total_f"]
        n = self.n
        for step in range(1, k + 1):
            # inline atom selection on the running float
            i = 0
            lo = 0.0
            if xf < err or xf > total_f - err:
                i = -1
            else:
                for idx, bf in enumerate(bounds_f, start=1):
                    if xf < bf - err:
                        i = idx if xf > lo + err else -1
                        break
                    lo = bf
                else:
                    i = -1
            if i == -1:
                cur = LatticePoint(layer, z)
                i = self._atom_exact(cur)
                xf, err = self._value_float(cur)
            counts[i - 1] += 1
            for r in range(n):
                z[r] += proj[r][i - 1]
            xf += taus_f[i - 1]
            err += 1e-15 * (abs(xf) + 1.0)
            if step in want:
                marks[step] = (tuple(z), max(abs(c) for c in z))
        return LatticePoint(layer, z), counts, marks


def drift_vector(model: LatticeModel):
    """The drift S with its exact zero flag and the rank-side consistency
    note: with n >= N-1 a vanishing drift is impossible."""
    S = model.drift
    must_be_nonzero = model.n >= model.E.N - 1
    consistent = not (must_be_nonzero and S.is_zero)
    return S, consistent


def spectrum_check(model: LatticeModel):
    """Scaling eigenvalue bookkeeping for a self-similar model.

    With nonzero drift the expansion beta = 1/rho is an eigenvalue of R
    and the drift is an exact eigenvector; with zero drift beta's minimal
    polynomial cannot divide the characteristic polynomial of R.  Returns
    (beta_is_eigenvalue, drift_is_zero, consistent).
    """
    if model.R is None:
        raise ValueError("model has no scaling factor")
    K = model.field
    beta = K.one / model.rho
    beta_eig = not charpoly(model.R)(beta)
    drift0 = model.drift.is_zero
    if drift0:
        consistent = not beta_eig
    else:
        consistent = beta_eig
        if consistent:
            S = model.drift.components
            consistent = mat_vec(model.R, S) == [beta * s for s in S]
    return beta_eig, drift0, consistent


def density_estimate(model: LatticeModel, predicate, k: int) -> Fraction:
    """Box average of a predicate on the reduced lattice.

    Counts points (m0 mod b, m1..m_{n-1}) with every free coordinate in
    the half-open box [-k, k), normalized by b*(2k)^(n-1); the box is
    half-open so that count and normalizer agree exactly at finite k.
    The caller's predicate sees the reduced tuple.
    """
    if k < 1:
        raise ValueError("k must be positive")
    b = model.module.b
    n = model.n
    free = n - 1
    count = 0
    box = range(-k, k)

    def rec(prefix):
        nonlocal count
        if len(prefix) == free:
            for r in range(b):
                if predicate((r,) + prefix):
                    count += 1
            return
        for m in box:
            rec(prefix + (m,))

    rec(())
    return Fraction(count, b * (2 * k) ** (n - 1))


def interval_predicate(model: LatticeModel, lo, hi):
    """Membership of the reduced point in phi(M intersect [lo, hi)).

    For a reduced tuple (r, m1..m_{n-1}) there is exactly one module
    point with that data in any window of length 1, since consecutive
    admissible m0 values move the point by b*j/d = 1.  Floats pick the
    candidate m0; boundary-uncertain cases re-check exactly.
    """
    K = model.field
    lof = lo if isinstance(lo, FieldElement) else K.from_rational(Fraction(lo))
    hif = hi if isinstance(hi, FieldElement) else K.from_rational(Fraction(hi))
    lo_f, hi_f = float(lof), float(hif)
    fc = model._floats()
    nup = fc["nu_prime"]
    d = model.module.d
    b = model.module.b
    j = model.module.j
    step = b * j / d  # consecutive admissible m0 move the value by 1

    def member(reduced):
        r, rest = reduced[0], reduced[1:]
        c = 0.0
        mag = 0.0
        for m, nf in zip(rest, nup[1:]):
            t = m * nf / d
            c += t
            mag += abs(t)
        err = (mag + 1.0) * 1e-13
        # want m0 = r + b*s with m0*j/d + c in [lo, hi)
        s = math.floor((lo_f - c - r * j / d) / step + 0.5)
        for cand in (s - 1, s, s + 1):
            m0 = r + b * cand
            x = m0 * j / d + c
            if lo_f - err <= x < hi_f + err:
                if lo_f + err <= x < hi_f - err:
                    return True
                zeta = model.module.from_m_coords((m0,) + rest)
                if (zeta - lof).sign() >= 0 and (zeta - hif).sign() < 0:
                    return True
        return False

    return member


def liouville_constant(model: LatticeModel) -> float:
    """c = degree + log height of the generator's minimal polynomial."""
    p: IntPoly = model.field.minpoly
    H = max(abs(c) for c in p.coeffs)
    return p.degree + math.log(H)


def liouville_check(model: LatticeModel, zeta: FieldElement):
    """Small-value bound |zeta| >= exp(-c(n-1)) * ||z||^(-c) for module
    points with nonzero free coordinates, power-basis modules only.

    Returns (|zeta| as float, ||z||, bound, pass).
    """
    n = model.n
    if not model.field.is_power_basis:
        raise ValueError("bound applies to power-basis modules only")
    if model.module.d != 1:
        raise ValueError("bound applies to rings Z[lambda] only")
    m = model.module.m_coords(zeta)
    zfree = m[1:]
    norm = max(abs(c) for c in zfree) if zfree else 0
    if norm == 0:
        raise ValueError("free coordinates vanish: the bound needs an irrational part")
    c = liouville_constant(model)
    bound = math.exp(-c * (n - 1)) * norm ** (-c)
    val = abs(float(zeta))
    if val >= 2 * bound:
        return val, norm, bound, True
    # near the edge: certify exactly against a rational upper bound of the rhs
    q = Fraction(math.ceil(bound * 2**64), 2**64)
    ok = (abs(zeta) - q).sign() >= 0
    return val, norm, bound, ok


def unit_representative(model: LatticeModel, zfree):
    """The module point with given free coordinates and value in [0, 1)."""
    fc = model._floats()
    nup = fc["nu_prime"]
    d = model.module.d
    j = model.module.j
    c = sum(m * nf / d for m, nf in zip(zfree, nup[1:]))
    b = model.module.b
    # m0 ranges over all integers here; value steps by j/d per unit of m0
    m0 = -math.floor(c * d / j)
    zeta = model.module.from_m_coords((m0,) + tuple(zfree))
    # float rounding can land one notch off; fix exactly
    while zeta.sign() < 0:
        m0 += 1
        zeta = model.module.from_m_coords((m0,) + tuple(zfree))
    one = model.field.one
    while (zeta - one).sign() >= 0:
        m0 -= 1
        zeta = model.module.from_m_coords((m0,) + tuple(zfree))
    return zeta
