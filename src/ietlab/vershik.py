"""Recursive-tiling codes for self-similar exchanges.

The model's window W = [a, a + rho*total) returns to itself under the
map (a = 0 for quartic, W is the right end of the domain for e2*), and
the return words tile the whole interval: every point sits in a unique
level-1 tile E^t(a + rho * atom_j) = c_mu + rho * atom_j with t below the
length of the j-th return word, and mu = (j, t) is a prefix of the
substitution.  The tile of the level point y reads off mu, and
(y - c_mu) / rho is the point of the next level, so the levels encode the
point as a path in the prefix automaton, which `lattice.Towers.climb`
finds in the field.  A model with a self-similar first return (E_k)
codes its floor first.  Eventually periodic codes are exactly the points
whose level points repeat, and the periodic part is the fixed point of a
contraction, so decoding is a closed-form geometric sum in the field.
Depth-k tiles sum per-level terms rho^L * c_mu: `enumerate_tiles` adds
entries of one `lattice.tile_offsets` table per level.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .algebraic import RealAlgebraic
from .iet import step_count
from .lattice import LatticeModel, tile_offsets
from .matrices import charpoly, det, identity, inverse, mat_pow, mat_sub, mat_vec, solve
from .numberfield import FieldElement, eigen_moduli_squared, root_power
from .substitution import Prefix


class VershikCode:
    """An eventually periodic (or truncated) prefix sequence.

    transient: the first t prefixes; period: the repeating block, empty
    when the encoder hit its depth cap without finding a repeat.  With a
    first return the first prefix is a floor (j, t), t steps above a point
    of the return map's atom j that the other prefixes code.
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
    # a self-similar map brings the substitution and the scaling matrix R
    if model.sigma is None:
        raise ValueError("model must be self-similar on a window of length rho*total")


def vershik_encode(model: LatticeModel, x, depth: int = 512) -> VershikCode:
    """Prefix code of a point, with eventual-periodicity detection.

    The prefixes are the tiles that `Towers.climb` finds level by level.
    A repeat of the exact level point closes the period; with none within
    `depth` levels the code is returned undetermined (empty period);
    raises TypeError or ValueError unless depth is a positive integer.
    """
    depth = step_count(depth, "depth")
    if depth < 1:
        raise ValueError("depth must be positive")
    towers = model.towers()
    y = model.field.coerce(x)
    # a first-return model's start lies in the model's coordinates, and
    # every later level point in the first-return map's
    seen = {y: 0} if towers.top is model else {}
    prefixes = []
    for level, (mu, y) in zip(range(1, depth + 1), towers.climb(y)):
        prefixes.append(mu)
        back = seen.get(y)
        if back is not None:
            return VershikCode(prefixes[:back], prefixes[back:])
        seen[y] = level
    return VershikCode(prefixes, ())


def vershik_decode(model: LatticeModel, code: VershikCode) -> FieldElement:
    """Exact point with the given eventually periodic code.

    The periodic tail is the fixed point of the composed tile maps of the
    towers' top, a geometric sum divided by 1 - rho^T; the transient is
    unwound on top as y -> rho * y + c_mu, and a first-return model's
    floor prefix last as y -> y + c_mu.  Climbing the point back checks
    the code, so raises ValueError on codes whose tiles do not nest, and
    also on codes whose prefixes do not chain: each tile lies in the atom
    of its letter.
    """
    towers = model.towers()
    if code.T < 1:
        raise ValueError("decoding needs a periodic tail")
    top = towers.top
    floor = top is not model  # the first prefix is a floor of the first return
    if floor and code.t < 1:
        raise ValueError("a first-return code starts with a floor prefix")
    tables = towers.offsets
    if any(mu not in tables[k > 0] for k, mu in enumerate(code.transient + code.period)):
        raise ValueError("prefix outside the rule set")
    K, rho, offset = model.field, top.rho, tables[1]
    acc, power = K.zero, K.one
    for mu in code.period:
        acc = acc + power * offset[mu]
        power = power * rho
    # power is now rho^T
    periodic = y = acc / (K.one - power)
    for mu in reversed(code.transient[floor:]):
        y = rho * y + offset[mu]
    x = y + tables[0][code.transient[0]] if floor else y
    for k, (mu, level_point) in zip(range(1, code.t + code.T + 1), towers.climb(x)):
        if mu != code.prefix(k):
            raise ValueError("code tile does not contain its level point")
    if level_point != periodic:
        raise AssertionError("period failed to close")
    xi, _ = top.layer_of(y)
    if code.T % top.order_of(xi) != 0:
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
    depth = step_count(depth, "depth")
    if depth < 1:
        raise ValueError("depth must be positive")
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
    """|det(I - R^T)|, the denominator bound for period-T points, by one
    Bareiss determinant.  For monic chi_R it equals |Res(chi_R, x^T - 1)|
    = |prod(lambda^T - 1)|, the identity the tests check it against."""
    if model.R is None:
        raise ValueError("model has no scaling matrix")
    T = step_count(T, "T")
    if T < 1:
        raise ValueError("T must be positive")
    val = det(mat_sub(identity(model.n), mat_pow(model.R, T)))
    if val == 0:
        raise ValueError("I - R^T is singular")
    return abs(val)


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

    The flag records the exact identity sr(R)^(n-1) = beta, as
    u_R^(n-1) = u_M on squared moduli (`root_power`).  All modulus
    comparisons run on the exact squared moduli of `eigen_moduli_squared`,
    real even for a complex eigenvalue pair: every charpoly factor with at
    most one complex pair, the Salem-type (4321) loops included; a factor
    with two pairs raises NotImplementedError.
    """
    _require_self_similar(model)
    M = model.sigma.incidence()
    mods_M = eigen_moduli_squared(charpoly(M))
    u_M, top_mult = mods_M[0]
    u2, mult2 = mods_M[1]
    mods_R = eigen_moduli_squared(charpoly(model.R))
    u_R = mods_R[0][0]
    eq_flag = root_power(u_R, model.n - 1) == u_M
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
    base = [int(c) for c in model.module.m_coords(model.window[0])]
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
