"""Recursive-tiling codes for self-similar exchanges.

The window W = [0, rho*total) returns to itself under the map, and the
return words tile the whole interval: every point sits in a unique
level-1 tile E^t(rho * atom_j) = c_mu + rho * atom_j with t below the
length of the j-th return word, and mu = (j, t) is a prefix of the
substitution.  One `iet.Cells.locate` among the sorted tiles reads off
mu, and (y - c_mu) / rho is the point of the next level, so the levels
encode the point as a path in the prefix automaton.  Eventually periodic
codes are exactly the points whose level points repeat, and the periodic
part is the fixed point of a contraction, so decoding is a closed-form
geometric sum in the field.  Depth-k tiles sum per-level terms rho^L * c_mu:
`enumerate_tiles` adds entries of one `tile_offsets` table per level.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .algebraic import RealAlgebraic
from .iet import Cells, tiling_order
from .lattice import LatticeModel
from .matrices import charpoly, det, identity, inverse, mat_pow, mat_sub, mat_vec, solve
from .numberfield import (
    FieldElement,
    NumberField,
    eigen_moduli_squared,
    to_real_algebraic,
)
from .polynomials import IntPoly, power_sum_poly, resultant, trace_polynomial
from .substitution import Prefix


class VershikCode:
    """An eventually periodic (or truncated) prefix sequence.

    transient: the first t prefixes; period: the repeating block, empty
    when the encoder hit its depth cap without finding a repeat.
    `to_line` is a display form for messages and repr; nothing parses it.
    """

    __slots__ = ("transient", "period")

    def __init__(self, transient, period):
        self.transient = tuple(transient)
        self.period = tuple(period)

    @property
    def t(self) -> int:
        return len(self.transient)

    @property
    def T(self) -> int:
        return len(self.period)

    @property
    def determined(self) -> bool:
        return bool(self.period)

    def prefix(self, k: int) -> Prefix:
        """1-based k-th prefix of the infinite sequence."""
        if k < 1:
            raise IndexError("prefixes are numbered from 1")
        if k <= self.t:
            return self.transient[k - 1]
        if not self.period:
            raise IndexError("code undetermined past the transient")
        return self.period[(k - self.t - 1) % self.T]

    def to_line(self) -> str:
        mus = " ".join(f"({m.rule},{m.cut})" for m in self.transient + self.period)
        return f"(t={self.t}; T={self.T}; {mus})"

    def __eq__(self, other):
        return (
            isinstance(other, VershikCode)
            and self.transient == other.transient
            and self.period == other.period
        )

    def __repr__(self):
        return f"VershikCode{self.to_line()}"


def _require_self_similar(model: LatticeModel):
    # a scaling factor brings the substitution and the scaling matrix R
    if model.rho is None:
        raise ValueError("model must carry a scaling factor and substitution")


def tile_offsets(model: LatticeModel, scale) -> dict:
    """{mu: scale * c_mu} for every prefix mu = (j, t): c_mu, the window
    start plus the translations of the first t letters of rule j, makes
    y -> rho*y + c_mu the tile map of mu.  By linearity the table takes
    N + 1 products and one prefix sum of translations per rule."""
    start = scale * model.window_start
    steps = [scale * t for t in model.E.translations]
    table = {}  # the automaton's states, rule by rule; walks look them up by identity
    for mu in model.prefix_graph.states:
        word = model.sigma.rules[mu.rule]
        c = start if mu.cut == 0 else c + steps[word[mu.cut - 1] - 1]
        table[mu] = c
    return table


def _level_tiles(model: LatticeModel):
    """(Cells of the level-1 tiles, [(mu, c_mu), ...] in position order),
    built on first use and kept by the model.  Tile mu must lie in the
    atom of its letter sigma(j)[t], so the tile of a point fixes its atom."""
    if model._tiles is None:
        E, rho = model.E, model.rho
        states = model.prefix_graph.states
        offsets = tile_offsets(model, model.field.one)
        scaled = [(rho * lo, rho * ln) for (lo, _), ln in zip(E.atoms(), E.lengths)]
        lefts = [offsets[mu] + scaled[mu.rule - 1][0] for mu in states]
        lengths = [scaled[mu.rule - 1][1] for mu in states]
        order = tiling_order(lefts, lengths, model.field.zero, E.total)
        rights = [lefts[i] for i in order[1:]] + [E.total]
        for i, right in zip(order, rights):
            a = model.prefix_graph.plus(states[i])
            if E.locate(lefts[i]) != a - 1 or E.rights[a - 1] < right:
                raise AssertionError("tile leaves the atom of its letter")
        model._tiles = Cells(model.field, rights), [(states[i], offsets[states[i]]) for i in order]
    return model._tiles


def vershik_encode(model: LatticeModel, x, depth: int = 512) -> VershikCode:
    """Prefix code of a point, with eventual-periodicity detection.

    Each level makes one tile location: the level point y lies in the
    level-1 tile c_mu + rho * atom_j of the next prefix mu, and
    (y - c_mu) / rho is the next level point.  A repeat of the exact
    level point closes the period; with none within `depth` levels the
    code is returned undetermined (empty period).
    """
    _require_self_similar(model)
    cells, tiles = _level_tiles(model)
    beta = model.rho.inverse()
    y = model.field.coerce(x)
    seen = {}
    prefixes = []
    for level in range(depth):
        seen[y] = level
        mu, c = tiles[cells.locate(y)]
        prefixes.append(mu)
        y = (y - c) * beta
        back = seen.get(y)
        if back is not None:
            return VershikCode(prefixes[:back], prefixes[back:])
    return VershikCode(prefixes, ())


def vershik_decode(model: LatticeModel, code: VershikCode) -> FieldElement:
    """Exact point with the given eventually periodic code.

    The periodic tail is the fixed point of the composed tile maps, a
    geometric sum divided by 1 - rho^T; the transient is unwound on top.
    Raises on codes whose tiles do not nest, so also on codes whose
    prefixes do not chain: each tile lies in the atom of its letter.
    """
    _require_self_similar(model)
    if code.T < 1:
        raise ValueError("decoding needs a periodic tail")
    cells, tiles = _level_tiles(model)
    offset = dict(tiles)
    if any(mu not in offset for mu in code.transient + code.period):
        raise ValueError("prefix outside the rule set")
    K = model.field
    rho = model.rho
    acc = K.zero
    power = K.one
    for mu in code.period:
        acc = acc + power * offset[mu]
        power = power * rho
    # power is now rho^T
    x = acc / (K.one - power)
    # one loop around the cycle checks that each level point lies in its tile
    beta = rho.inverse()
    y = x
    for mu in code.period:
        if tiles[cells.locate(y)][0] != mu:
            raise ValueError("code tile does not contain its level point")
        y = (y - offset[mu]) * beta
    if y != x:
        raise AssertionError("period failed to close")
    for mu in reversed(code.transient):
        x = rho * x + offset[mu]
        if tiles[cells.locate(x)][0] != mu:
            raise ValueError("transient prefix disagrees with the point")
    xi, _ = model.layer_of(x)
    order = model.order_of(xi)
    if code.T % order != 0:
        raise AssertionError("period is not a multiple of the layer order")
    return x


def enumerate_tiles(model: LatticeModel, depth: int):
    """All depth-k tiles as (chain, left, length), exact endpoints.

    A chain (mu_1..mu_k) is admissible when consecutive prefixes satisfy
    the coding constraint; its tile is an affine image of the atom of the
    innermost rule j.  The walk only adds: a `tile_offsets` table per level
    and (rho^k * left_j, rho^k * length_j) per rule take all the products.
    """
    _require_self_similar(model)
    E = model.E
    G = model.prefix_graph
    tables = []
    power = model.field.one
    for _ in range(depth):
        tables.append(tile_offsets(model, power))
        power = power * model.rho
    # power is now rho^depth
    leaf = [(power * lo, power * ln) for (lo, _), ln in zip(E.atoms(), E.lengths)]
    out = []

    def rec(chain, offset):
        level = len(chain)
        if level == depth:
            lo, ln = leaf[chain[-1].rule - 1]
            out.append((tuple(chain), offset + lo, ln))
            return
        table = tables[level]
        for mu in G.successors[chain[-1]]:
            chain.append(mu)
            rec(chain, offset + table[mu])
            chain.pop()

    for mu in G.states:
        rec([mu], tables[0][mu])
    return out


def random_consistent_code(model: LatticeModel, rng) -> VershikCode:
    """Random walk on the prefix graph until a state repeats.

    The result satisfies the chain constraint by construction but need not
    describe an actual point; callers should decode inside try/except and
    discard the geometrically invalid ones.
    """
    _require_self_similar(model)
    G = model.prefix_graph
    walk = [rng.choice(G.states)]
    seen = {walk[0]: 0}
    while True:
        nxt = rng.choice(G.successors[walk[-1]])
        if nxt in seen:
            j = seen[nxt]
            return VershikCode(tuple(walk[:j]), tuple(walk[j:]))
        seen[nxt] = len(walk)
        walk.append(nxt)


def d_T(model: LatticeModel, T: int) -> int:
    """|det(I - R^T)|, the denominator bound for period-T points.

    With nonzero drift the spectrum of R splits into reciprocal pairs,
    and the determinant is cross-checked against the trace-polynomial
    resultant for the pairs.
    """
    if model.R is None:
        raise ValueError("model has no scaling matrix")
    if T < 1:
        raise ValueError("T must be positive")
    RT = mat_pow(model.R, T)
    n = model.n
    M = mat_sub(identity(n), RT)
    val = det(M)
    if val == 0:
        raise ValueError("I - R^T is singular")
    result = abs(int(val))
    chi = charpoly(model.R)
    if not model.drift.is_zero and chi.is_self_reciprocal() and chi.degree % 2 == 0:
        q = trace_polynomial(chi)
        cross = abs(resultant(q, power_sum_poly(T) - IntPoly((2,))))
        if cross != result:
            raise AssertionError("reciprocal-pair cross-check failed")
    return result


class ExponentReport:
    """Eigenvalue exponents of a self-similar model."""

    __slots__ = (
        "beta",
        "beta2",
        "beta2_multiplicity",
        "sr_R",
        "v",
        "v_enclosure",
        "eq_flag",
        "discrepancy_exponent",
    )

    def __init__(self, beta, beta2, beta2_multiplicity, sr_R, v, v_enclosure,
                 eq_flag, discrepancy_exponent):
        self.beta = beta
        self.beta2 = beta2
        self.beta2_multiplicity = beta2_multiplicity
        self.sr_R = sr_R
        self.v = v
        self.v_enclosure = v_enclosure
        self.eq_flag = eq_flag
        self.discrepancy_exponent = discrepancy_exponent

    def __repr__(self):
        return (
            f"ExponentReport(beta={self.beta:.6f}, sr_R={self.sr_R:.6f}, "
            f"v={self.v:.6f}, eq_flag={self.eq_flag})"
        )


def _alg_power_equals(a: RealAlgebraic, e: int, b: RealAlgebraic) -> bool:
    """a**e == b, decided exactly."""
    if a.is_rational:
        return b == a.as_fraction() ** e
    if e == 1:
        return a == b
    return to_real_algebraic(NumberField(a).generator_element() ** e) == b


def _log_ratio_enclosure(u_num: RealAlgebraic, u_den: RealAlgebraic):
    """Float enclosure of log(u_num)/log(u_den) for arguments > 1; not
    certified, as `math.log` of the 2^-60 ends is not rounded outward."""
    width = Fraction(1, 2**60)
    u_num.refine_to(width)
    u_den.refine_to(width)
    lo = math.log(u_num.lo) / math.log(u_den.hi)
    hi = math.log(u_num.hi) / math.log(u_den.lo)
    return lo, hi


def exponent_report(model: LatticeModel) -> ExponentReport:
    """Growth exponents: beta, the second eigenvalue modulus, sr(R), and
    v = log sr(R) / log beta with an uncertified float enclosure.

    The flag records the exact algebraic identity sr(R)^(n-1) = beta.
    All modulus comparisons run on the exact squared moduli of
    `eigen_moduli_squared`, which are real even for a complex eigenvalue
    pair.  That covers every charpoly factor of degree <= 4 with at most
    one pair, the Salem-type (4321) loops included; a factor with two
    pairs raises NotImplementedError.
    """
    _require_self_similar(model)
    M = model.sigma.incidence()
    mods_M = eigen_moduli_squared(charpoly(M))
    u_M, top_mult = mods_M[0]
    u2, mult2 = mods_M[1]
    mods_R = eigen_moduli_squared(charpoly(model.R))
    u_R = mods_R[0][0]
    eq_flag = _alg_power_equals(u_R, model.n - 1, u_M)
    v_lo, v_hi = _log_ratio_enclosure(u_R, u_M)
    d_lo, d_hi = _log_ratio_enclosure(u2, u_M)
    beta = math.sqrt(float(u_M))
    return ExponentReport(
        beta=beta,
        beta2=math.sqrt(float(u2)),
        beta2_multiplicity=mult2,
        sr_R=math.sqrt(float(u_R)),
        v=(v_lo + v_hi) / 2,
        v_enclosure=(v_lo, v_hi),
        eq_flag=eq_flag,
        discrepancy_exponent=(d_lo + d_hi) / 2,
    )


def escape_bound_check(model: LatticeModel, code: VershikCode):
    """Prop-9-style bound: the integer part z of the point that the
    eventually periodic code decodes to satisfies ||z|| <= C * sr(R)^(t+T).

    C follows the proof's chain with empirical constants: c1 is a finite
    max of ||R^k||/sr^k over k <= max(t+T, 2n), not a proven uniform bound,
    c2 the max of ||(I-R^T')^-1|| over T' <= T, W the largest prefix offset,
    plus a fixed, underived 2.0.  Returns (passed, achieved_ratio, C).
    """
    _require_self_similar(model)
    _, z = model.layer_of(vershik_decode(model, code))
    norm = max(abs(int(c)) for c in z) if len(z) else 0
    srf = math.sqrt(float(eigen_moduli_squared(charpoly(model.R))[0][0]))
    if srf <= 1.0:
        raise ValueError("bound needs an expanding scaling matrix")
    n = model.n
    t, T = code.t, code.T
    c1 = 1.0
    for k in range(1, max(t + T, 2 * n) + 1):
        Rk = mat_pow(model.R, k)
        nk = max(sum(abs(e) for e in row) for row in Rk)
        c1 = max(c1, nk / srf**k)
    c2 = 0.0
    for Tp in range(1, max(T, 1) + 1):
        Minv = inverse(mat_sub(identity(n), mat_pow(model.R, Tp)))
        c2 = max(c2, max(sum(abs(float(e)) for e in row) for row in Minv))
    base = [int(c) for c in model.module.m_coords(model.window_start)]
    W = max(1, max(abs(c) for c in base))
    for j, word in model.sigma.rules.items():
        acc = base[:]
        for s in range(len(word)):
            W = max(W, max(abs(c) for c in acc))
            for r in range(n):
                acc[r] += model.projection[r][word[s] - 1]
    C = c1 * W * (1.0 + c1 * c2) / (srf - 1.0) + 2.0
    limit = C * srf ** (t + T)
    ratio = norm / srf ** (t + T)
    return norm <= limit, ratio, C


def affine_closed_form(a, b, u0, k: int):
    """k-th iterate of u -> a*u + b: u_k = a^k (u_0 - l) + l with
    l = (I - a)^-1 b, exact over Fractions."""
    n = len(a)
    l = solve(mat_sub(identity(n), a), [Fraction(c) for c in b])
    diff = [Fraction(c) - lc for c, lc in zip(u0, l)]
    ak = mat_pow([[Fraction(e) for e in row] for row in a], k)
    moved = mat_vec(ak, diff)
    return [m + lc for m, lc in zip(moved, l)]
