"""Interval exchange transformations with exact field-element endpoints.

Intervals are half-open [a, b), so the atom partition and its image tile
the domain exactly; a point on a discontinuity belongs to the atom on its
right.  Symbols are 1-based throughout, matching the usual coding
alphabet {1..N}.

Cell location.  `Cells.locate` is the one locator of a point among
cells cut at sorted exact right endpoints, and `Cells.step` maps it by
its cell's tile: an `IET` is the Cells of its atoms, which translate
(`atom_of`, `apply`, so also `induce`), and `lattice.Towers` climbs the
Cells of its tiles, which also rescale.  It places one sign-table
enclosure |q x - s| <= e of the point (`NumberField.enclosure`) by one
bisection among integer bounds of q times the endpoints, from a table
rebuilt by `NumberField.enclose` whenever the precision has grown.  Only
when [s - e, s + e] meets the bounds of some endpoints, or of 0, does it
compare exactly, and only against those endpoints (a bisection among
them) or 0; the signs refine the table as far as they must.

Integer walks.  The table also encloses each tile's offset c as
|q c - C| <= e_c, with an error of its own, and the factor beta.  `orbit`
and the lattice walk's stepped segments run one loop (`IET._walk`) on
one integer position.  It starts once as X within e_x of q x: from x by
one `NumberField.enclosure`, 32 bits above the bit lengths of x's
largest power coordinate and of k (`IET._start`), or from a lattice point
(`lattice.LatticeModel.position`).  A step by atom i adds m_i = -C_i, so
X stays within e_x + k max e_c of q times the point.  An atom is taken
from X only while that band lies inside it; otherwise x + sum c_i tau_i
(c the atom counts so far) is formed exactly and located (`atom_of`).
E^k x is formed from the counts alone, as one integer combination of the
translations' numerators reduced once (`IET._moved`).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import index, mul

from .numberfield import FieldElement, NumberField, Span, _reduced


def is_irreducible_perm(images) -> bool:
    """No proper prefix {1..k} of the atoms maps onto itself."""
    seen = 0
    for k in range(1, len(images)):
        seen = max(seen, images[k - 1])
        if seen == k:
            return False
    return True


class Permutation:
    """A permutation of {1..N} given by its images, required irreducible.

    images[i-1] is the position the i-th atom takes in the rearranged
    order.  Irreducible means no proper prefix {1..k} is invariant;
    reducible data would split the IET into two independent ones.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        N = len(images)
        if sorted(images) != list(range(1, N + 1)):
            raise ValueError(f"not a permutation of 1..{N}: {images}")
        if not is_irreducible_perm(images):
            raise ValueError(f"reducible permutation: {images}")
        self.images = images

    @property
    def N(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%s)" % (self.images,)


def translations_from(perm: Permutation, lengths):
    """tau_i = left end of atom i's image minus left end of atom i, with
    the atoms laid out once in domain order and once in image order."""
    lengths = tuple(lengths)
    N = perm.N
    if len(lengths) != N:
        raise ValueError("length count does not match the permutation")
    for l in lengths:
        if l.sign() <= 0:
            raise ValueError("lengths must be positive")
    zero = lengths[0].field.zero
    order = sorted(range(N), key=perm.images.__getitem__)  # the atoms in image order
    image_lefts = dict(zip(order, accumulate((lengths[i] for i in order), initial=zero)))
    return tuple(image_lefts[i] - left for i, left in zip(range(N), accumulate(lengths, initial=zero)))


def step_count(k, name: str = "k") -> int:
    """k by `operator.index` (True is 1); TypeError naming it otherwise."""
    try:
        return index(k)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(k).__name__}") from None


def rescale(X: int, err: int, a: int, b: int):
    """(Y, err') with |b u - Y| <= err' for every u with |a u - X| <= err,
    a, b > 0: Y = floor(X b / a), and b u - Y is (a u - X) b / a plus
    below 1 from the floor."""
    Y, r = divmod(X * b, a)
    return Y, -(-err * b // a) + (r > 0)


class Cells:
    """The cells [0, r_1), [r_1, r_2), ... cut at sorted exact right
    endpoints r_1 < ... < r_n of one field; lefts[i] is the left end of
    cell i.  Cell i may carry a tile tiles[i] = (item, c), whose map is
    y -> (y - c) beta for the one beta of the Cells (None for 1): `step`
    finds the cell of a point and maps it."""

    __slots__ = ("field", "rights", "lefts", "tiles", "beta", "_ints")

    def __init__(self, field: NumberField, rights, tiles=(), beta=None):
        self.field = field
        self.rights = tuple(rights)
        self.lefts = (field.zero, *self.rights[:-1])
        self.tiles = tuple(tiles)
        self.beta = beta
        self._ints = None  # the _table of the field's precision

    def _table(self):
        """(P, d, lows, highs, tiles, B, e_b, moves, e) at the field's
        precision P and scale q = d 2^P: cell i holds every y with lows[i]
        <= q y < highs[i], lows[n] >= q r_n for the n cells, tiles[i] =
        (item, C, e_c) with |q c - C| <= e_c, |q beta - B| <= e_b (B None
        for beta None), moves[i] = -C and e is the largest e_c."""
        table = self._ints
        if table is None or table[0] != self.field.precision:
            n, one = len(self.rights), self.field.one
            q, encs = self.field.enclose([*self.rights, *(c for _, c in self.tiles), self.beta or one])
            P, (B, e_b) = self.field.precision, encs.pop()
            lows, highs = [0] + [s + e for s, e in encs[:n]], [s - e for s, e in encs[:n]]
            tiles = [(item, C, e) for (item, _), (C, e) in zip(self.tiles, encs[n:])]
            moves, e = [-C for _, C, _ in tiles], max((e for *_, e in tiles), default=0)
            table = self._ints = P, q >> P, lows, highs, tiles, None if self.beta is None else B, e_b, moves, e
        return table

    def locate(self, x: FieldElement) -> int:
        """0-based index of the cell holding the field element x; raises
        ValueError if x is outside [0, r_n)."""
        s, e = self.field.enclosure(x)
        _, d, lows, highs, _, _, _, _, _ = self._table()
        # [lo, hi] encloses q x: rescale from x.den * 2^P to d * 2^P
        lo, hi = (s - e) * d, (s + e) * d
        if x.den != 1:
            lo, hi = lo // x.den, -(-hi // x.den)
        # bisect_right returns n or an index with hi < highs[i], sorted or
        # not, so x < r_i
        i = bisect_right(highs, hi)
        if i < len(highs) and lows[i] <= lo:
            return i
        # and j = -1 or an index with lows[j] <= lo, so r_(j-1) <= x: only
        # r_j .. r_(i-1), or 0 for j = -1, need exact comparisons
        j = bisect_right(lows, lo) - 1
        if j >= 0 or x.sign() >= 0:
            i = bisect_right(self.rights, x, max(j, 0), i)
            if i < len(self.rights):
                return i
        raise ValueError("point outside the domain")

    def step(self, x: FieldElement, i=None):
        """(item, image) of the tile of x's cell, or of tile i if given."""
        item, c = self.tiles[self.locate(x) if i is None else i]
        return item, x - c if self.beta is None else (x - c) * self.beta


class IET(Cells):
    """Exchange of N intervals on [0, total), the Cells of its atoms:
    atom i (0-based) carries the tile (i, -tau_i), so it steps y to
    y + tau_i."""

    __slots__ = ("perm", "lengths", "translations", "total", "_span")

    def __init__(self, perm: Permutation, lengths):
        self.perm = perm
        self.lengths = tuple(lengths)
        self.translations = translations_from(perm, self.lengths)
        self._span = Span(self.translations)  # its rows form x + sum c_i tau_i (`_moved`)
        rights = tuple(accumulate(self.lengths))  # right endpoints of the atoms
        super().__init__(self.lengths[0].field, rights, [(i, -t) for i, t in enumerate(self.translations)])
        self.total = rights[-1]

    @property
    def N(self) -> int:
        return self.perm.N

    def atoms(self):
        """[left_i, right_i) endpoints of the domain partition."""
        return list(zip(self.lefts, self.rights))

    def atom_of(self, x) -> int:
        """1-based index of the atom containing x (a field element, int or
        Fraction); raises ValueError if x is outside [0, total)."""
        return self.locate(self.field.coerce(x)) + 1

    def apply(self, x) -> FieldElement:
        x = self.field.coerce(x)
        return x + self.translations[self.locate(x)]

    __call__ = apply

    def orbit(self, x, k: int):
        """(coding word of length k, E^k x) by the integer walk (`_walk`);
        E^k x is formed once from the atom counts (`_moved`)."""
        x = self.field.coerce(x)
        word, counts = self._walk(x, k)
        return tuple(word), self._moved(x, counts)

    def _start(self, x: FieldElement, k: int):
        """(X, err) with |q x - X| <= err at the table's scale q = d 2^P
        (`_table`), P at least 32 bits above the bit lengths of x's
        largest power coordinate and of k."""
        bits = (max(map(abs, x.num)) // x.den).bit_length() + k.bit_length() + 32
        s, e = self.field.enclosure(x, bits)  # |x.den 2^P x - s| <= e
        return rescale(s, e, x.den, self._table()[1])

    def _walk(self, x, k: int, start=None):
        """(atoms, counts) of k steps of E from x: the atoms (1-based) in a
        list and the steps by each, from start = (X, err), |q x - X| <= err
        at the table's scale q, by default `_start(x, k)`; then x may be a
        function that forms the start, called at the first step the band
        cannot place.  Raises ValueError for k < 0 or when the orbit leaves
        the domain, TypeError for a non-integer k."""
        k = step_count(k)
        if k < 0:
            raise ValueError("k must be >= 0")
        X, err = self._start(x, k) if start is None else start
        _, _, lows, highs, _, _, _, moves, e_c = self._table()
        # X plus the moves of t <= k steps lies within err + k e_c of q E^t x,
        # so atom i + 1 is certain for X in [lows[i], highs[i]) shrunk by that
        err += k * e_c
        lows, highs = [b + err for b in lows], [b - err for b in highs]
        N, word, counts = self.N, [], [0] * self.N
        for _ in range(k):
            # bisect_right returns N or an index with X < highs[i], sorted or not
            i = bisect_right(highs, X)
            if i == N or X < lows[i]:
                if not isinstance(x, FieldElement):
                    x = x()
                i = self.atom_of(self._moved(x, counts)) - 1
            X += moves[i]
            counts[i] += 1
            word.append(i + 1)
        return word, counts

    def _moved(self, x: FieldElement, counts) -> FieldElement:
        """x + sum counts[i] tau_i for integer counts: one integer
        combination of the translations' numerators, reduced once."""
        D, rows = self._span.den, self._span.rows
        g = math.gcd(x.den, D)
        a, b = D // g, x.den // g  # the lcm a x.den = b D
        return _reduced(self.field, [a * v + b * sum(map(mul, counts, row)) for v, row in zip(x.num, rows)], a * x.den)

    def to_data(self) -> dict:
        """JSON-ready data: the generator and the lengths in power
        coordinates."""
        th = self.field.generator
        return {
            "permutation": list(self.perm.images),
            "minpoly": list(th.poly.coeffs),
            "interval": [str(th.lo), str(th.hi)],
            "lengths": [[str(c) for c in l.power_coords] for l in self.lengths],
        }

    @classmethod
    def from_data(cls, data: dict) -> "IET":
        from .algebraic import root_in
        from .polynomials import IntPoly

        lo, hi = (Fraction(s) for s in data["interval"])
        gen = root_in(IntPoly(data["minpoly"]), lo, hi)
        K = NumberField(gen)
        lengths = [K.from_power_coords(row) for row in data["lengths"]]
        return cls(Permutation(data["permutation"]), lengths)

    def __eq__(self, other):
        return (
            isinstance(other, IET)
            and self.perm == other.perm
            and self.lengths == other.lengths
        )

    def __hash__(self):
        return hash((self.perm.images, self.lengths))

    def __repr__(self):
        return f"IET(perm={self.perm.images}, N={self.N})"


def tiling_order(lefts, lengths, a, b):
    """Indices of the pieces [lefts[i], lefts[i] + lengths[i]), positive
    lengths, in the order of their positions; raises ValueError unless
    they tile [a, b) exactly, with no gap and no overlap."""
    order = sorted(range(len(lefts)), key=lefts.__getitem__)
    cursor = a
    for i in order:
        if lefts[i] != cursor:
            raise ValueError("pieces do not tile the interval")
        cursor = cursor + lengths[i]
    if cursor != b:
        raise ValueError("pieces do not tile the interval")
    return order


def iet_from_translations(lengths, translations) -> IET:
    """Recover the IET whose atom i is translated by translations[i].

    The permutation is read off from the order of the image intervals;
    overlapping or gapped images are rejected.
    """
    lengths = tuple(lengths)
    translations = tuple(translations)
    if len(lengths) != len(translations):
        raise ValueError("lengths and translations must pair up")
    field = lengths[0].field
    for l in lengths:
        if l.sign() <= 0:
            raise ValueError("lengths must be positive")
    lefts = []
    left = field.zero
    for l in lengths:
        lefts.append(left)
        left = left + l
    image_lefts = [lefts[i] + translations[i] for i in range(len(lengths))]
    order = tiling_order(image_lefts, lengths, field.zero, left)
    images = [0] * len(lengths)
    for pos, i in enumerate(order, start=1):
        images[i] = pos
    E = IET(Permutation(images), lengths)
    if E.translations != translations:
        raise ValueError("translation data inconsistent with recovered permutation")
    return E


def staircase_discrepancy(E: IET, x, k: int):
    """Cumulative symbol counts s and their deviation D = s - k*lengths."""
    _, s = E._walk(E.field.coerce(x), k)
    D = [s[i] - k * E.lengths[i] for i in range(E.N)]
    return s, D


RETURN_TIME_CAP = 10**6  # longest itinerary `induce` follows


class InducedMap:
    """First-return data of an IET on a subinterval window."""

    __slots__ = ("base", "window", "induced", "return_words")

    def __init__(self, base, window, induced, return_words):
        self.base = base
        self.window = window
        self.induced = induced
        self.return_words = return_words


def induce(E: IET, window) -> InducedMap:
    """First-return map of E on the window [a, b), given as the pair (a, b)
    of field elements, ints or Fractions, with itineraries.

    Pieces of the window are pushed forward until they re-enter it,
    splitting at atom and window boundaries, so every returned piece
    carries a single itinerary word.  A return time above
    RETURN_TIME_CAP raises RuntimeError.  A first-return map whose
    permutation is reducible raises ValueError ("reducible permutation"),
    although it exists: a Permutation is irreducible by definition.
    """
    field = E.field
    a, b = map(field.coerce, window)
    if a.sign() < 0 or (b - E.total).sign() > 0 or (b - a).sign() <= 0:
        raise ValueError("window must be a nonempty subinterval of the domain")

    done = []  # (lo, hi, shift, word) in window coordinates
    stack = [(a, b, field.zero, ())]
    while stack:
        lo, hi, shift, word = stack.pop()
        if len(word) > RETURN_TIME_CAP:
            raise RuntimeError("return-time cap exceeded during induction")
        cur_lo = lo + shift
        cur_hi = hi + shift
        if word and (cur_lo - a).sign() >= 0 and (cur_hi - b).sign() <= 0:
            done.append((lo, hi, shift, word))
            continue
        # split at the window ends once the piece has moved, then at the
        # atom boundaries; an unsplit piece takes one step of E
        for c in ((a, b) if word else ()) + E.rights[:-1]:
            if (c - cur_lo).sign() > 0 and (cur_hi - c).sign() > 0:
                cut = c - shift
                stack.append((lo, cut, shift, word))
                stack.append((cut, hi, shift, word))
                break
        else:
            i = E.atom_of(cur_lo)
            stack.append((lo, hi, shift + E.translations[i - 1], word + (i,)))

    lengths = [hi - lo for lo, hi, _, _ in done]
    order = tiling_order([lo for lo, _, _, _ in done], lengths, a, b)
    induced = iet_from_translations([lengths[i] for i in order], [done[i][2] for i in order])
    words = tuple(done[i][3] for i in order)
    return InducedMap(E, (a, b), induced, words)


def check_self_similar(E: IET, rho, start=0):
    """Does inducing on a window of length rho*total reproduce E scaled?

    The window [a, a + rho*total) starts at a = start (a field element,
    int or Fraction).  Returns (flag, substitution); the substitution
    collects the return words and is only meaningful when the flag is
    true.  On success the scale-conjugacy
    E^{|sigma(i)|}(rho*x + a) = rho*E(x) + a is verified on an interior
    sample point of every atom.
    """
    from .substitution import Substitution

    rho = E.field.coerce(rho)
    a = E.field.coerce(start)
    im = induce(E, (a, a + rho * E.total))
    ind = im.induced
    if ind.N != E.N or ind.perm != E.perm:
        return False, None
    for li, l in zip(ind.lengths, E.lengths):
        if li != rho * l:
            return False, None
    for i, (left, _) in enumerate(E.atoms(), start=1):
        x = left + E.lengths[i - 1] / 2
        y = rho * x + a
        word = im.return_words[i - 1]
        z = y
        for _ in word:
            z = E.apply(z)
        if z != rho * E.apply(x) + a:
            return False, None
    sigma = Substitution({i + 1: im.return_words[i] for i in range(E.N)})
    return True, sigma
