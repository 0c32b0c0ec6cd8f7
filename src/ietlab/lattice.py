"""Lattice picture of an algebraic IET.

With the module machinery normalized (d, j, b, basis nu'), every point of
the module M has integer coordinates z, and the IET becomes the lattice
walk psi(z) = z + v_i, where v_i is the coordinate image of the i-th
translation and the atom i is selected by the real position of the point.
Layers xi + M (rational torsion residues) are invariant, so a model pins
one layer and walks Z^n.

Walks.  `psi_orbit` cuts a walk at its checkpoints, if any, and each
segment either jumps through the towers or steps one atom at a time, both
from its lattice point; z_k = z_0 + projection * counts either way, and
the coordinates are always exact integers.

Jumps.  A model renormalizes when it carries a scaling factor rho and a
window (a, b) whose first-return map is self-similar with that factor:
the model's own map scaled by rho when b - a = rho*total, or else a map
of its own (E_k's leading interval).  Its domain is then cut into
Kakutani-Rokhlin towers: the level-1 tiles are the floors of the towers
over the renormalized atoms, and the self-similar map's own level-1
tiles cut every higher level.  The level-l tower over letter j spans
h_l(j) = |sigma_1 ... sigma_l (j)| steps, so E^k(x) follows the
expansion of k in these heights (Dumont and Thomas' numeration by
substitutions).  `Towers` keeps both tilings and the self-similar map as
`iet.Cells`.  A segment of k >= 2 steps climbs to the highest level L
whose smallest tower is at most k, takes whole level-L steps of the
self-similar map while a tower fits, then descends by heights alone: per
level one bisection in the prefix heights of a rule, whose letter counts
(Parikh vectors) add up to the symbol counts.  Its cost grows like log k.
The climb and the whole steps (`integer_climb`) run on one integer
position from the lattice point (`LatticeModel.position`) while its
error band lies inside a cell, as the IET's walk does (`scaled` bounds a
level's factor).  Where a band meets a bound, the integers decide
whether the point is that cell's left end, a corner: rho acts on the
coordinates of the module's units by the integer matrix R, so the point
that the placed cells send to the bound has exact rational coordinates.
A tile maps its left end to a left end one level up, so a corner climbs
the tiles by a table, and the whole steps go on from a top atom's left
end.  Any other bound restarts the climb at twice the sign table's
precision, the filtered exact predicate of exact geometric computation
(Shewchuk, DCG 1997; Yap, CGTA 1997), so a jump forms no field point;
the field climb `Towers.climb` serves Vershik coding (`vershik`).  A
segment shorter than every level-1 tower, a one-step segment and every
segment of a model without renormalization step one atom at a time, by
the step loop of `IET.orbit` (`iet`), its start enclosed from the
lattice point too, and keep only its counts.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, islice, product, repeat
from operator import add, mul

from .iet import IET, Cells, check_self_similar, induce, rescale, step_count, tiling_order
from .matrices import charpoly, mat_mul, mat_vec
from .modules import ModuleData, module_normalize
from .numberfield import FieldElement, Span
from .polynomials import IntPoly
from .substitution import Prefix, PrefixGraph


class LatticePoint:
    """A layer representative xi (rational nu-coordinates in [0,1)) plus
    integer module coordinates z; a non-integral z or a layer coordinate
    outside [0, 1) raises ValueError, so each point has one (layer, z).
    The layer is also kept over one denominator M, xi = a / M, as (M, a)."""

    __slots__ = ("layer", "z", "_over")

    def __init__(self, layer, z):
        z = tuple(z)
        self.layer = tuple(Fraction(c) for c in layer)
        self.z = tuple(int(c) for c in z)
        if self.z != z:
            raise ValueError(f"module coordinates must be integers: {z}")
        if not all(0 <= c < 1 for c in self.layer):
            raise ValueError(f"layer coordinates must lie in [0, 1): {layer}")
        M = math.lcm(*(c.denominator for c in self.layer))
        self._over = M, tuple(c.numerator * (M // c.denominator) for c in self.layer)

    @classmethod
    def _of(cls, p, z):
        q = object.__new__(cls)  # a point on p's layer, z a tuple of ints
        q.layer, q._over, q.z = p.layer, p._over, z
        return q

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
    """An IET together with its module coordinates and lattice dynamics.

    A scaling factor rho (a field element, int or Fraction) comes with a
    window (a, b) with 0 <= a < b <= total, by default [0, rho*total), whose
    first-return map is self-similar with the factor rho.  A window of length
    rho*total returns E itself scaled by rho: `check_self_similar` decides
    that and supplies the substitution sigma, and the model gains the
    scaling matrix R and the prefix automaton.  Any other window (E_k's
    leading interval) is only data until a jump or a code needs the towers,
    which `first_return_model` builds from it.  Without rho the model carries
    the lattice walk and the drift only and walks step by step.

    basis, n field elements, presents the module M that the translations
    must lie in (`ModuleData`); the default is the power basis.
    """

    def __init__(self, E: IET, rho=None, name: str = "", window=None, basis=None):
        self.E = E
        self.name = name
        self.field = E.field
        self.n = self.field.n
        self.module: ModuleData = module_normalize(self.field, basis)
        try:
            cols = [self.module.m_coords(t) for t in E.translations]
        except ValueError as exc:
            raise ValueError(f"translation not in the declared module: {exc}")
        # projection matrix: column i is v_i
        self.projection = [[cols[i][r] for i in range(E.N)] for r in range(self.n)]
        self.total = E.total
        self.rho = self.window = self.sigma = self.R = None
        self.prefix_graph = None  # the substitution's prefix automaton
        self._Rnu = None
        self._towers = None  # built by towers() on first use
        self._ints = None  # the _table of the field's precision
        if rho is None:
            if window is not None:
                raise ValueError("a window needs a scaling factor")
        else:
            self.rho = rho = self.field.coerce(rho)
            if not self.module.in_order(rho):
                raise ValueError("scaling factor does not multiply the module into itself")
            ell = rho * E.total
            a, b = self.window = tuple(map(self.field.coerce, (0, ell) if window is None else window))
            if not 0 <= a < b <= E.total:
                raise ValueError("window must be a nonempty subinterval of the domain")
            if b - a == ell:
                ok, self.sigma = check_self_similar(E, rho, a)
                if not ok:
                    raise ValueError("map is not self-similar with the given factor")
                self._Rnu = self.module.mult_matrix(rho)
                W, Winv = self.module.W, self.module.Winv
                self.R = mat_mul(Winv, mat_mul(self._Rnu, W))
                self._verify_commutation()
                self.prefix_graph = PrefixGraph(self.sigma)
        self.drift = DriftVector(mat_vec(self.projection, E.lengths))
        self._span = Span(self.module.basis + self.module.units)  # forms value_of

    def _verify_commutation(self):
        """R * projection = projection * M_sigma, column by column."""
        M = self.sigma.incidence()
        lhs = mat_mul(self.R, self.projection)
        rhs = mat_mul(self.projection, M)
        if lhs != rhs:
            raise AssertionError("lattice/substitution commutation failed")

    # -- exact geometry ------------------------------------------------

    def value_of(self, p: LatticePoint) -> FieldElement:
        """The field point xi + (1/d) sum z_k nu'_k, one integer combination."""
        return self._span.combine([*p.layer, *p.z])

    def point_of(self, x) -> LatticePoint:
        """Lattice coordinates of a field point."""
        return LatticePoint(*self.layer_of(x))

    def layer_of(self, x: FieldElement):
        """Unique split x = xi + (module point), xi rational in [0,1)^n."""
        w, q = self.module.scaled_coords(x)
        xi = tuple(Fraction(v % q, q) for v in w)
        return xi, tuple(mat_vec(self.module.Winv, [v // q for v in w]))

    def _scale(self, num, m: int):
        """Numerators over m of rho * (num / m) modulo the module: rho * xi
        has the nu-coordinates _Rnu xi."""
        if self._Rnu is None:
            raise ValueError("model has no scaling factor")
        return [sum(map(mul, row, num)) % m for row in self._Rnu]

    def scale_layer(self, xi):
        """rho * xi modulo the module, as a layer representative."""
        m = math.lcm(*(Fraction(c).denominator for c in xi))
        return tuple(Fraction(v, m) for v in self._scale([int(c * m) for c in xi], m))

    def order_of(self, xi):
        """Least t >= 1 with rho^t * xi = xi modulo the module.

        The orbit stays among layers with the same denominator m, a set
        of size m^n, so the loop terminates.
        """
        m = math.lcm(*(Fraction(c).denominator for c in xi))
        cur = num = [int(c * m) for c in xi]
        for t in range(1, m**self.n + 2):
            cur = self._scale(cur, m)
            if cur == num:
                return t
        raise RuntimeError("layer order exceeded the denominator bound")

    def enclose(self, xs=(), bits: int = 0):
        """(q, enclosures): NumberField.enclose of the points xs followed
        by the unit module points nu'_k / d, all at one precision of at
        least `bits`."""
        return self.field.enclose([*xs, *self.module.units], bits)

    def _table(self, bits: int = 0):
        """(P, q, mids, errs) at the precision P >= bits, rebuilt when it
        has grown: |q v - mids[i]| <= errs[i] for the basis nu_i and then
        the units, v the i-th."""
        table = self._ints
        if table is None or table[0] != self.field.precision or table[0] < bits:
            q, pairs = self.field.enclose([*self.module.basis, *self.module.units], bits)
            table = self._ints = self.field.precision, q, *zip(*pairs)
        return table

    def position(self, p: LatticePoint, k: int, cells: Cells):
        """(X, err), |q x - X| <= err, for the point x of p at the scale q =
        d 2^P of the cells' table: with xi = a / M and `_table` at D 2^P,
        X = sum a_i m_i + M sum z_k m_k, err = sum |a_i| e_i + M sum |z_k| e_k,
        rescaled from M D to d.  P is at least 32 bits above the bit lengths
        of k and of sum |xi_i| + sum |z_k|, the size of x in those terms."""
        M, a = p._over
        c = (*a, *p.z) if M == 1 else (*a, *(M * v for v in p.z))
        P, q, mids, errs = self._table((sum(map(abs, c)) // M).bit_length() + k.bit_length() + 32)
        X, err = sum(map(mul, c, mids)), sum(map(mul, map(abs, c), errs))
        return rescale(X, err, M * (q >> P), cells._table()[1])

    # -- dynamics --------------------------------------------------------

    def psi_orbit(self, p: LatticePoint, k: int, checkpoints=()):
        """Walk k steps; returns (final point, symbol counts, checkpoint map).

        checkpoints: step indices in 1..k at which to record
        (step, z, max-norm); the identity z_k - z_0 = projection * counts
        holds exactly and is the caller's Eq.-style ledger.  The
        checkpoints cut the walk into segments.  A segment of two or more
        steps of a model that renormalizes jumps through its towers (built
        at the first such segment) when it reaches the smallest level-1
        tower, from the segment's lattice point (`Towers.counts`); every
        other segment steps one atom at a time on the IET's integer walk.
        Both give the same counts.  k and the checkpoints are integers.
        """
        k = step_count(k)
        if k < 0:
            raise ValueError("k must be >= 0")
        want = {step_count(s, "checkpoint") for s in checkpoints}
        if any(not 1 <= s <= k for s in want):
            raise ValueError("checkpoints must lie in 1..k")
        marks, counts, done = {}, None, 0
        for stop in sorted(want | {k}):
            p, part = self._segment(p, stop - done)
            counts = part if counts is None else list(map(add, counts, part))
            done = stop
            if stop in want:
                marks[stop] = (p.z, max(map(abs, p.z)))
        return p, counts, marks

    def _segment(self, p: LatticePoint, k: int):
        """(end point, symbol counts) of k steps from p: through the towers
        when the model renormalizes and k reaches a level-1 tower (one step
        needs none), otherwise step by step."""
        counts = self.towers().counts(p, k) if k > 1 and self.rho is not None else None
        if counts is None:
            counts = self._step(p, k)
        z = tuple(c + sum(map(mul, row, counts)) for c, row in zip(p.z, self.projection))
        return LatticePoint._of(p, z), counts

    def towers(self):
        """The model's Towers, built on first use; raises ValueError for a
        model without renormalization."""
        if self._towers is None:
            if self.rho is None:
                raise ValueError("model has no scaling factor")
            self._towers = Towers(self)
        return self._towers

    def _step(self, p: LatticePoint, k: int):
        """Symbol counts of k single steps from p: the IET's integer walk,
        its start enclosed from the lattice coordinates (`position`), so
        the field point is formed only at an exact fallback."""
        return self.E._walk(lambda: self.value_of(p), k, self.position(p, k, self.E))[1]


def tile_offsets(model: LatticeModel, scale) -> dict:
    """{mu: scale * c_mu} for every prefix mu = (j, t): c_mu, the window
    start plus the translations of the first t letters of rule j, makes
    y -> rho*y + c_mu the tile map of mu.  By linearity the table takes
    N + 1 products and one prefix sum of translations per rule."""
    start = scale * model.window[0]
    steps = [scale * t for t in model.E.translations]
    return _offsets(model.prefix_graph.states, model.sigma.rules, start, steps)


def _offsets(states, rules, start, steps) -> dict:
    """{mu: start + the steps of the first t letters of rules[j]} for the
    prefixes mu = (j, t), listed rule by rule."""
    table = {}  # keyed by the given state objects; walks look them up by identity
    for mu in states:
        c = start if mu.cut == 0 else c + steps[rules[mu.rule][mu.cut - 1] - 1]
        table[mu] = c
    return table


def _tower_tiles(E: IET, rules, offsets: dict, bases, beta):
    """Cells of the tiles c_mu + base_j, carrying the tile (mu, c_mu) and
    beta, for the prefixes mu = (j, t) of `offsets`, base_j = bases[j - 1]
    a (left, length) pair.  The tiles must tile E's domain, and tile mu
    must lie in the atom of its letter rules[j][t]."""
    states = list(offsets)
    lefts = [offsets[mu] + bases[mu.rule - 1][0] for mu in states]
    lengths = [bases[mu.rule - 1][1] for mu in states]
    order = tiling_order(lefts, lengths, E.field.zero, E.total)
    rights = [lefts[i] for i in order[1:]] + [E.total]
    for i, right in zip(order, rights):
        mu = states[i]
        a = rules[mu.rule][mu.cut]
        if E.locate(lefts[i]) != a - 1 or E.rights[a - 1] < right:
            raise AssertionError("tile leaves the atom of its letter")
    return Cells(E.field, rights, [(states[i], offsets[states[i]]) for i in order], beta)


def first_return_model(model: LatticeModel):
    """(the self-similar LatticeModel of the first-return map on the
    model's window (a, b), its return words).  The first-return map acts
    on [0, b - a); its atom j returns after the word w_j."""
    im = induce(model.E, model.window)
    top = LatticeModel(im.induced, model.rho, name=f"{model.name} first return", basis=model.module.basis)
    return top, im.return_words


def scaled(U: int, err: int, B: int, e_b: int, q: int):
    """(X, err') with |q u b - X| <= err' for every u, b with |q u - U| <= err
    and |q b - B| <= e_b: X = floor(U B / q), and q u b - U B / q is
    ((q u - U) q b + U (q b - B)) / q, so its size is at most
    (err (|B| + e_b) + |U| e_b) / q, plus below 1 from the floor."""
    X, rem = divmod(U * B, q)
    return X, -(-(abs(U) * e_b + err * (abs(B) + e_b)) // q) + (rem > 0)


class Towers:
    """Kakutani-Rokhlin towers of a model that renormalizes, `model`.

    `top` is the self-similar map of the higher levels: the model itself
    when its window (a, b) has length rho*total, otherwise the
    first-return model of that window.  The stages are `Cells`: stage 1
    cuts the model's domain into level-1 tiles, top's tiles c_mu + rho *
    atom_j or the floors E^t(a + atom_j of top), t < |w_j|, of the first
    return's towers; stage 2 cuts top's domain by top's level-1 tiles, at
    every higher level; and stage 3 is top's map.  A level point in the
    tile mu = (j, t) is t steps above the base of its tower, whose point
    one level up, (y - c_mu) * beta (beta = 1/rho, or None for a floor),
    lies in top's atom j.  The tile's left end c_mu + s * left_j (s = rho,
    or 1 for a floor) maps to left_j, where the stage-2 cell corners[j]
    starts too, as stage-2 tiles tile top's domain inside its atoms: a
    point on a tile's left end stays on one at every later tile level.
    Whether a point is a cell's left end is decided on integers
    (`_corner`): top's R, the matrix of rho on the unit coordinates of
    the basis the model shares with top, sends those of y to those of
    rho y, and `_unit_tables`, built at the first decision, holds every
    offset and cell bound of the three stages in those coordinates.
    Jumps climb on integers (`integer_climb`), codes in the field (`climb`).
    rules[s] and offsets[s] = {mu: c_mu} belong to stage s + 1.
    vectors[l][j - 1] counts the letters of E in the level-l tower over
    letter j; heights[l][j - 1], their sum, is the steps h_l(j) it spans.
    """

    __slots__ = ("model", "top", "stages", "corners", "rules", "offsets", "vectors", "heights", "least", "_prefixes", "_units")

    def __init__(self, model: LatticeModel):
        if model.sigma is None:
            top, words = first_return_model(model)
            rules = dict(enumerate(words, start=1))
            states = [Prefix(j, t) for j, w in rules.items() for t in range(len(w))]
            offsets = _offsets(states, rules, model.window[0], model.E.translations)
            scale, beta = model.field.one, None
        else:
            top, rules, offsets = model, model.sigma.rules, tile_offsets(model, model.field.one)
            scale, beta = model.rho, model.rho.inverse()
        bases = [(scale * lo, scale * ln) for (lo, _), ln in zip(top.E.atoms(), top.E.lengths)]
        first = _tower_tiles(model.E, rules, offsets, bases, beta)
        self.model, self.top = model, top
        self.stages = (first, first if top is model else top.towers().stages[0], top.E)
        self.corners = list(map(self.stages[1].lefts.index, top.E.lefts))  # exact ==, raises if absent
        self.rules = (rules, top.sigma.rules)
        self.offsets = [dict(cells.tiles) for cells in self.stages[:2]]
        N = model.E.N
        self.vectors = [[tuple(int(i == j) for i in range(N)) for j in range(N)]]
        self.heights, self.least = [[1] * N], [1]  # least[l] = min(heights[l])
        self._prefixes = {}  # (level, rule): its prefix table, built on first use
        self._units = None  # built by _unit_tables() on first use

    def height(self, level: int):
        """[h_level(j) for each letter j], computed on first use."""
        while len(self.heights) <= level:
            below, rules = self.vectors[-1], self.rules[len(self.heights) > 1]
            self.vectors.append([tuple(map(sum, zip(*(below[s - 1] for s in rules[j])))) for j in sorted(rules)])
            self.heights.append(list(map(sum, self.vectors[-1])))
            self.least.append(min(self.heights[-1]))
        return self.heights[level]

    def prefixes(self, level: int, rule: int):
        """(H, V): H[t] and V[t] are the steps of E and their letter counts
        in the level-(level - 1) towers over the first t letters of the
        rule's word, t = 0..|word|."""
        table = self._prefixes.get((level, rule))
        if table is None:
            below, V = self.vectors[level - 1], [(0,) * len(self.heights[0])]
            for s in self.rules[level > 1][rule]:
                V.append(tuple(map(add, V[-1], below[s - 1])))
            table = self._prefixes[level, rule] = list(map(sum, V)), V
        return table

    @staticmethod
    def _sequence(stages, L=None):
        """The stage of each step: stages[0], then stages[1], up to level L
        and then stages[2] when L is given."""
        first, second, top = stages
        return chain((first,), repeat(second)) if L is None else chain((first,), repeat(second, L - 1), repeat(top))

    def climb(self, x: FieldElement):
        """Yield (mu, y) per level of Vershik coding from the field point
        x: the tile holding the level point and the point one level up;
        raises ValueError when x leaves the domain.  From a corner on, the
        tiles follow `corners`: no locate and no field arithmetic."""
        lefts, j = self.stages[2].lefts, None
        for cells in self._sequence(self.stages):
            if j is not None:  # x = lefts[j], the left end of cell corners[j]
                item = cells.tiles[self.corners[j]][0]
                j, x = item.rule - 1, lefts[item.rule - 1]
            else:
                i = cells.locate(x)
                if x != cells.lefts[i]:
                    item, x = cells.step(x, i)
                else:  # a corner: the tile maps its left end to lefts[j]
                    item = cells.tiles[i][0]
                    j, x = item.rule - 1, lefts[item.rule - 1]
            yield item, x

    def _unit_tables(self):
        """(D, per stage (R, or None for a stage without beta, the offsets
        c, the cell left ends and the domain's end)): the points in unit coordinates (on nu'_k /
        d, so integers on the module) as numerators over one D, built on
        first use."""
        if self._units is None:
            m, (first, second, top) = self.model.module, self.stages
            distinct = (first, top) if second is first else self.stages
            coords = [[m.scaled_coords(x) for x in (*(c for _, c in cells.tiles), *cells.lefts, cells.rights[-1])] for cells in distinct]
            D = math.lcm(*(q for xs in coords for _, q in xs))
            tables = []
            for cells, xs in zip(distinct, coords):
                units, n = [mat_vec(m.Winv, [v * (D // q) for v in w]) for w, q in xs], len(cells.tiles)
                tables.append((self.top.R if cells.beta is not None else None, units[:n], units[n:]))
            self._units = D, (tables[0], tables[-2], tables[-1])
        return self._units

    def _corner(self, p: LatticePoint, j, placed, met: int, L: int) -> bool:
        """Whether the cells `placed`, one index per step of the stage
        sequence up to level L from the point of p (or of the top map
        alone from top's lefts[j], if j is given), map it to the left end
        of cell met one step on, decided on unit coordinates: backwards,
        the map of cell mu sends y to c_mu + rho y (c_mu + y without beta),
        whose coordinates are those of c_mu plus R times those of y, and
        p's are W^-1 a / M + z for its layer a / M."""
        D, units = self._unit_tables()
        if j is None:
            (M, a), zs = p._over, p.z
            if any(a):
                a = mat_vec(self.model.module.Winv, a)
        else:
            M, a, zs, L = D, units[2][2][j], repeat(0), 0
        n = len(placed)
        v = units[2 if n >= L else n > 0][2][met]
        for t in range(n - 1, -1, -1):
            R, offsets, _ = units[2 if t >= L else t > 0]
            if R is not None:
                v = [sum(map(mul, row, v)) for row in R]
            v = list(map(add, offsets[placed[t]], v))
        return all(M * c == D * (b + M * z) for c, b, z in zip(v, a, zs))

    def integer_climb(self, p: LatticePoint, k: int, L: int):
        """The steps from the point x of p, its start enclosed for k whole
        steps (`LatticeModel.position`), through the stage sequence up to
        level L and then the top map: (item, X, err) per step, the tile
        (mu) or top atom (0-based) holding the point and |q y - X| <= err
        for its image y at its stage's scale q = d 2^P.  Where the band
        meets a bound, `_corner` decides whether the point is that cell's
        left end.  A corner below level L yields the tiles up to level L
        by `corners` as (item,); the point is then top's lefts[j], j the
        last tile's rule, or the met atom's at a corner of the top map,
        and the whole steps go on from its enclosure, a bound of top's
        table.  At any other bound, or past the last, the climb starts
        again from p at twice the precision and yields only the steps not
        yet given: the steps it placed are exact, so a new pass repeats
        them, and a point off a bound is apart from it at some precision.
        That needs a table that refines, n >= 2; no renormalizing model
        over Q is known.  A start outside the domain raises ValueError."""
        first, second, top = self.stages
        X, err = self.model.position(p, k, first)
        tables = first._table(), second._table(), top._table()
        steps, d, placed, j, given = self._sequence(tables, L), tables[0][1], [], None, 0
        while True:
            for P, e, lows, highs, tiles, B, e_b, _, _ in steps:
                if e != d:  # the stages' scales differ
                    X, err = rescale(X, err, d, e)
                    d = e
                i = bisect_right(highs, X + err)
                if i == len(highs) or X - err < lows[i]:
                    break
                placed.append(i)
                item, C, e_c = tiles[i]
                X, err = X - C, err + e_c
                if B is not None:  # (y - c) * beta
                    X, err = scaled(X, err, B, e_b, d << P)
                yield item, X, err
            if i == len(highs) or not self._corner(p, j, placed, i, L):
                break
            given = max(given + len(placed), L)  # the steps given before the next
            if j is None and len(placed) < L:  # a tile's corner
                cells = self.stages[len(placed) > 0]
                for _ in range(len(placed), L):
                    item = cells.tiles[i][0]
                    yield (item,)
                    cells, i = second, self.corners[item.rule - 1]
                i = item.rule - 1
            # the point is top's lefts[i]: lows[i] and highs[i - 1] are
            # s + e and s - e for the enclosure (s, e) of q lefts[i]
            j, (P, d, lows, highs, tiles, *_) = i, tables[2]
            X, err = ((lows[j] + highs[j - 1]) >> 1, (lows[j] - highs[j - 1]) >> 1) if j else (0, 0)
            _, C, e_c = tiles[j]
            X, err = X - C, err + e_c
            steps, placed = repeat(tables[2]), [j]
            yield j, X, err
        # a start below 0, from q total on (lows[-1] bounds it) or on total
        if not (given or placed) and (X + err < 0 or X - err >= lows[-1] or i == len(highs) and self._corner(p, j, placed, i, L)):
            raise ValueError("point outside the domain")
        self.model._table(2 * self.model.field.precision)
        yield from islice(self.integer_climb(p, k, L), given + len(placed), None)

    def counts(self, p: LatticePoint, k: int):
        """Symbol counts of k steps of the model's map from the lattice
        point p (`integer_climb`, no field point), or None when k is
        below every level-1 tower."""
        while self.least[-1] <= k:
            self.height(len(self.least))
        L = bisect_right(self.least, k) - 1
        if L == 0:
            return None
        steps = self.integer_climb(p, k, L)
        r, minus, plus = k, [], []  # the counts are sum(plus) - sum(minus)
        for level, step in zip(range(1, L + 1), steps):
            mu = step[0]
            H, V = self.prefixes(level, mu.rule)
            r += H[mu.cut]  # r counts k plus the steps from the base of the tower
            minus.append(V[mu.cut])
        # whole level-L steps of the top map while a tower fits: a bounded
        # number, as the smallest level-(L + 1) tower exceeds k.  The first
        # top atom is the rule of the last tile, so the top map's items are
        # read only when a step is taken
        h, j = self.heights[L], mu.rule - 1
        if r >= h[j]:
            for step in steps:
                j = step[0]
                if r < h[j]:
                    break
                r -= h[j]
                plus.append(self.vectors[L][j])
        # descend by heights: per level, the whole towers below r
        for level in range(L, 0, -1):
            H, V = self.prefixes(level, j + 1)
            t = bisect_right(H, r) - 1
            r -= H[t]
            plus.append(V[t])
            j = self.rules[level > 1][j + 1][t] - 1
        return [sum(a) - sum(b) for a, b in zip(zip(*plus), zip(*minus))]


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
    The box is walked row by row: a row fixes every coordinate but the
    last (m_{n-1}, or the residue when n = 1).  A predicate with a `row`
    method (`interval_predicate`'s member) counts a whole row in one call;
    any other callable sees the reduced tuples one point at a time.
    """
    if k < 1:
        raise ValueError("k must be positive")
    b = model.module.b
    *heads, last = [range(b)] + [range(-k, k)] * (model.n - 1)
    row = getattr(predicate, "row", None)
    if row is None:
        count = sum(1 for h in product(*heads) for m in last if predicate((*h, m)))
    else:
        count = sum(row(h, last) for h in product(*heads))
    return Fraction(count, b * (2 * k) ** (model.n - 1))


def interval_predicate(model: LatticeModel, lo, hi):
    """Membership of the reduced point in phi(M intersect [lo, hi)).

    For a reduced tuple (r, m1..m_{n-1}) the admissible m0 = r + b*t move
    the point by b*j/d = 1 per unit of t, so only the least t with value
    >= lo can be a member.  Integer enclosures narrow that t down to one
    or two candidates and decide membership; a candidate whose enclosure
    meets lo or hi is re-checked exactly.

    The member is called on one reduced tuple; its `row(head, ms)` counts
    the members head + (m,) for m in the range ms in one integer loop, and
    a single call is that loop over one m.
    """
    K = model.field
    lof, hif = K.coerce(lo), K.coerce(hi)
    b = model.module.b
    q, ((slo, elo), (shi, ehi), *units) = model.enclose([lof, hif])
    S = [s for s, _ in units]
    etot = sum(e for _, e in units)
    lo_out = slo - elo  # q * lo >= lo_out
    w_in, w_out = shi - ehi - lo_out, shi + ehi - lo_out

    def row(head, ms):
        # with value(t) the value at m0 = r + b*t, q * value(t) lies
        # within err = max|reduced| * etot of X(t) = sum(m_k s_k) + t*q
        base = max(map(abs, head), default=0)
        step = S[-1]
        x = sum(map(mul, head, S)) + ms.start * step - lo_out
        count = 0
        for m in ms:
            am = -m if m < 0 else m
            err = (am if am > base else base) * etot
            band = 2 * (err + elo)
            a = x + err
            x += step
            # t = -(a // q) is the least t whose value can reach lo, and
            # y = X(t) + err - lo_out
            y = a % q
            if y >= band:  # value(t) >= lo for sure, so t is the only candidate
                if y < w_in:
                    count += 1
                    continue
                if y - 2 * err >= w_out:
                    continue
            reduced = (*head, m)
            for t in range(-(a // q), -((a - band) // q) + 1):
                zeta = model.module.from_m_coords((reduced[0] + b * t, *reduced[1:]))
                if (zeta - lof).sign() >= 0 and (zeta - hif).sign() < 0:
                    count += 1
                    break
        return count

    def member(reduced):
        return row(reduced[:-1], range(reduced[-1], reduced[-1] + 1)) == 1

    member.row = row
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
    g = model.field.generator_element()
    if model.module.basis != [g**k for k in range(n)]:
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
    # g = q*j/d exactly, as j/d is rational; the candidates for m0 below
    # span about sum|z_k| * 2^-P units, so P >= log2 sum|z_k| + 32 leaves
    # at most two, and small coordinates keep the table's P
    bits = sum(map(abs, zfree)).bit_length() + 32
    q, ((g, _), *free) = model.enclose(bits=bits)
    C = sum(m * s for m, (s, _) in zip(zfree, free))
    err = sum(abs(m) * e for m, (_, e) in zip(zfree, free))
    # q * value(m0) lies within err of m0*g + C, so the least m0 with
    # value >= 0 lies in [first, last]
    first, last = -((C + err) // g), -((C - err) // g)
    for m0 in range(first, last + 1):
        zeta = model.module.from_m_coords((m0,) + tuple(zfree))
        if m0 == last or zeta.sign() >= 0:
            return zeta
