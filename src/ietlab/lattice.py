"""Lattice picture of an algebraic IET.

With the module machinery normalized (d, j, b, basis nu'), every point of
the module M has integer coordinates z, and the IET becomes the lattice
walk psi(z) = z + v_i, where v_i is the coordinate image of the i-th
translation and the atom i is selected by the real position of the point.
Layers xi + M (rational torsion residues) are invariant, so a model pins
one layer and walks Z^n.

Integer positions: atom selection runs on one integer position per walk.
`NumberField.enclose` gives, at one sign-table precision and a common
scale q, integers s with |q x - s| <= e for the layer value, the unit
module points nu'_k / d and the atom right endpoints.  The position
X = s_layer + sum z_k s_k moves by an exact integer per step, so it never
drifts, and its error is bounded for the whole walk by the largest |z_k|
the walk can reach.  An atom is taken from X only when the enclosure
lies inside it; otherwise the step is decided with exact field
arithmetic.  Coordinates themselves are always exact integers.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from operator import mul

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
        self._units = [nu / self.module.d for nu in self.module.nu_prime]

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

    def enclose(self, xs=()):
        """(q, enclosures): NumberField.enclose of the points xs followed
        by the unit module points nu'_k / d, all at one precision."""
        return self.field.enclose([*xs, *self._units])

    def _position(self, p: LatticePoint, k: int):
        """(q, X, err, moves, rights): the integer position of a walk.

        |q * value - X| <= err holds at p and at every point within k
        steps of it, where a step by atom i adds moves[i] to X; rights
        holds the enclosures (s, e) of q times the atom right endpoints.
        """
        N = self.E.N
        q, (layer, *rest) = self.enclose([self.field.element(p.layer), *self.E.rights])
        rights, units = rest[:N], rest[N:]
        X = layer[0] + sum(z * s for z, (s, _) in zip(p.z, units))
        # a step changes z_r by at most max_i |proj[r][i]|
        reach = [abs(z) + k * max(map(abs, row)) for z, row in zip(p.z, self.projection)]
        err = layer[1] + sum(r * e for r, (_, e) in zip(reach, units))
        moves = [sum(row[i] * s for row, (s, _) in zip(self.projection, units)) for i in range(N)]
        return q, X, err, moves, rights

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
        N = self.E.N
        counts = [0] * N
        _, X, err, moves, rights = self._position(p, k)
        # atom i + 1 is certain for X in [lows[i], highs[i])
        lows = [err] + [s + e + err for s, e in rights[:-1]]
        highs = [s - e - err for s, e in rights]

        def z_now():
            return [z + sum(map(mul, row, counts)) for z, row in zip(p.z, self.projection)]

        for step in range(1, k + 1):
            # bisect_right returns N or an index with X < highs[i], sorted or not
            i = bisect_right(highs, X)
            if i == N or X < lows[i]:
                i = self.E.atom_of(self.value_of(LatticePoint(p.layer, z_now()))) - 1
            counts[i] += 1
            X += moves[i]
            if step in want:
                z = z_now()
                marks[step] = (tuple(z), max(map(abs, z)))
        return LatticePoint(p.layer, z_now()), counts, marks


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

    For a reduced tuple (r, m1..m_{n-1}) the admissible m0 = r + b*t move
    the point by b*j/d = 1 per unit of t, so only the least t with value
    >= lo can be a member.  Integer enclosures narrow that t down to one
    or two candidates and decide membership; a candidate whose enclosure
    meets lo or hi is re-checked exactly.
    """
    K = model.field
    lof = lo if isinstance(lo, FieldElement) else K.from_rational(Fraction(lo))
    hif = hi if isinstance(hi, FieldElement) else K.from_rational(Fraction(hi))
    b = model.module.b
    q, ((slo, elo), (shi, ehi), *units) = model.enclose([lof, hif])
    S = [s for s, _ in units]
    etot = sum(e for _, e in units)
    lo_out = slo - elo  # q * lo >= lo_out
    w_in, w_out = shi - ehi - lo_out, shi + ehi - lo_out

    def member(reduced):
        # with value(t) the value at m0 = r + b*t, q * value(t) lies
        # within err of X(t) = sum(m_k s_k) + t*q
        err = max(map(abs, reduced)) * etot
        band = 2 * (err + elo)
        a = sum(map(mul, reduced, S)) + err - lo_out
        # t = -(a // q) is the least t whose value can reach lo, and
        # y = X(t) + err - lo_out
        y = a % q
        if y >= band:  # value(t) >= lo for sure, so t is the only candidate
            if y < w_in:
                return True
            if y - 2 * err >= w_out:
                return False
        for t in range(-(a // q), -((a - band) // q) + 1):
            zeta = model.module.from_m_coords((reduced[0] + b * t,) + reduced[1:])
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
    """The module point with given free coordinates and the least value
    >= 0; that value is below j/d <= 1, so it lies in [0, 1)."""
    q, ((g, _), *free) = model.enclose()  # g = q*j/d exactly: j/d is rational
    C = sum(m * s for m, (s, _) in zip(zfree, free))
    err = sum(abs(m) * e for m, (_, e) in zip(zfree, free))
    # q * value(m0) lies within err of m0*g + C, so the least m0 with
    # value >= 0 lies in [first, last]
    first, last = -((C + err) // g), -((C - err) // g)
    for m0 in range(first, last + 1):
        zeta = model.module.from_m_coords((m0,) + tuple(zfree))
        if m0 == last or zeta.sign() >= 0:
            return zeta
