"""Interval exchange transformations with exact field-element endpoints.

Intervals are half-open [a, b), so the atom partition and its image tile
the domain exactly; a point on a discontinuity belongs to the atom on its
right.  Symbols are 1-based throughout, matching the usual coding
alphabet {1..N}.

Cell location.  `Cells.locate` is the one locator of a point among
cells cut at sorted exact right endpoints; an `IET` is the Cells of its
atoms (`atom_of`, `apply`, so also `induce`), and the Vershik coder keeps
the Cells of its level-1 tiles.  It places one sign-table enclosure
|q x - s| <= e of the point (`NumberField.enclosure`) by one bisection
among integer bounds of q times the endpoints, rebuilt from
`NumberField.enclose` whenever the table precision has grown.  Only when
[s - e, s + e] meets the bounds of some endpoints, or of 0, does it
compare exactly, and only against those endpoints (a bisection among
them) or 0; the signs refine the table as far as they must, and the
answer is exact either way.

Integer walks.  `orbit` and the lattice walk's stepped segments run on
one integer position.  Beside its endpoint bounds an IET keeps integers
m_i with |q tau_i - m_i| <= e_tau.  A walk of k steps from x encloses q x
once, as X within e_x, at a precision 32 bits above the bit lengths of
x's largest power coordinate and of k; a step by atom i adds m_i, so X
stays within e_x + k max e_tau of q times the point.  An atom is taken
from X only while that band lies inside it; otherwise x + sum c_i tau_i
(c the atom counts so far) is formed exactly, as one `numberfield.Span`
combination, and located by `atom_of`.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from .numberfield import FieldElement, NumberField, Span


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
    """tau_i = sum of lengths placed before atom i in the image minus the
    lengths before it in the domain."""
    lengths = tuple(lengths)
    N = perm.N
    if len(lengths) != N:
        raise ValueError("length count does not match the permutation")
    for l in lengths:
        if l.sign() <= 0:
            raise ValueError("lengths must be positive")
    taus = []
    for i in range(1, N + 1):
        before_image = [lengths[j - 1] for j in range(1, N + 1) if perm(j) < perm(i)]
        before_domain = [lengths[j - 1] for j in range(1, i)]
        t = lengths[0].field.zero
        for x in before_image:
            t = t + x
        for x in before_domain:
            t = t - x
        taus.append(t)
    return tuple(taus)


def cell_bounds(encs):
    """(lows, highs) from enclosures |q r_i - s_i| <= e_i of sorted right
    endpoints: cell i holds every x with lows[i] <= q x < highs[i]."""
    return [0] + [s + e for s, e in encs[:-1]], [s - e for s, e in encs]


def position(field: NumberField, x: FieldElement, k: int, d: int):
    """(X, err) with |d 2^P x - X| <= err at the field's precision P after
    the call, which is at least 32 bits above the bit lengths of x's
    largest power coordinate and of k."""
    bits = (max(map(abs, x.num)) // x.den).bit_length() + k.bit_length() + 32
    _, ((s, e),) = field.enclose([x], bits)
    X, r = divmod(s * d, x.den)  # rescale |x.den 2^P x - s| <= e
    return X, -(-e * d // x.den) + (r > 0)


class Cells:
    """The cells [0, r_1), [r_1, r_2), ... cut at sorted exact right
    endpoints r_1 < ... < r_n of one field."""

    __slots__ = ("field", "rights", "_bounds")

    def __init__(self, field: NumberField, rights):
        self.field = field
        self.rights = tuple(rights)
        self._bounds = None  # the _endpoint_bounds of the table's precision

    def _endpoint_bounds(self, steps=()):
        """(P, d, lows, highs, moves, e): at the field's precision P and
        the scale q = d * 2^P of `NumberField.enclose`, cell i holds every
        x with lows[i] <= q x < highs[i], and |q steps[i] - moves[i]| <= e.
        The steps' denominators must divide the endpoints' lcm."""
        q, encs = self.field.enclose(self.rights + steps)
        P, n = self.field.precision, len(self.rights)
        steps = encs[n:]
        return P, q >> P, *cell_bounds(encs[:n]), [s for s, _ in steps], max((e for _, e in steps), default=0)

    def _current_bounds(self):
        """The _endpoint_bounds at the field's current precision."""
        bounds = self._bounds
        if bounds is None or bounds[0] != self.field.precision:
            bounds = self._bounds = self._endpoint_bounds()
        return bounds

    def locate(self, x: FieldElement) -> int:
        """0-based index of the cell holding the field element x; raises
        ValueError if x is outside [0, r_n)."""
        s, e = self.field.enclosure(x)
        _, d, lows, highs, _, _ = self._current_bounds()
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


class IET(Cells):
    """Exchange of N intervals on [0, total), the Cells of its atoms."""

    __slots__ = ("perm", "lengths", "translations", "total", "_span")

    def __init__(self, perm: Permutation, lengths):
        self.perm = perm
        self.lengths = tuple(lengths)
        field = self.lengths[0].field
        self.translations = translations_from(perm, self.lengths)
        self._span = Span(self.translations)  # forms x + sum c_i tau_i
        rights = []
        acc = field.zero
        for l in self.lengths:
            acc = acc + l
            rights.append(acc)
        super().__init__(field, rights)  # right endpoints of the atoms
        self.total = acc

    @property
    def N(self) -> int:
        return self.perm.N

    def _endpoint_bounds(self):
        # a translation is a difference of endpoints
        return super()._endpoint_bounds(self.translations)

    def atoms(self):
        """[left_i, right_i) endpoints of the domain partition."""
        return list(zip((self.field.zero,) + self.rights[:-1], self.rights))

    def atom_of(self, x) -> int:
        """1-based index of the atom containing x (a field element, int or
        Fraction); raises ValueError if x is outside [0, total)."""
        return self.locate(self.field.coerce(x)) + 1

    def apply(self, x) -> FieldElement:
        x = self.field.coerce(x)
        return x + self.translations[self.locate(x)]

    __call__ = apply

    def orbit(self, x, k: int):
        """(coding word of length k, E^k x) by the integer walk; E^k x is
        x + sum c_i tau_i, formed once from the atom counts c."""
        x = self.field.coerce(x)
        counts = [0] * self.N
        word = tuple(self._walk(x, k, counts))
        return word, self._span.combine(counts, x)

    def _certificate(self, x: FieldElement, k: int):
        """(q, X, err, lows, highs, moves): |q E^t x - X_t| <= err for
        t <= k, where X_t is X plus moves[i] for each atom i + 1 passed,
        and cell i holds every y with lows[i] <= q y < highs[i]."""
        d = self._current_bounds()[1]
        X, err = position(self.field, x, k, d)
        P, _, lows, highs, moves, e_tau = self._current_bounds()
        return d << P, X, err + k * e_tau, lows, highs, moves

    def _walk(self, x: FieldElement, k: int, counts):
        """Yield the atoms (1-based) of k steps of E from x, adding each
        step to counts (all 0 at the start); raises ValueError for k < 0
        or when the orbit leaves the domain."""
        if k < 0:
            raise ValueError("k must be >= 0")
        _, X, err, lows, highs, moves = self._certificate(x, k)
        N = self.N
        # atom i + 1 is certain for X in [lows[i], highs[i])
        lows = [b + err for b in lows]
        highs = [b - err for b in highs]
        for _ in range(k):
            # bisect_right returns N or an index with X < highs[i], sorted or not
            i = bisect_right(highs, X)
            if i == N or X < lows[i]:
                i = self.atom_of(self._span.combine(counts, x)) - 1
            counts[i] += 1
            X += moves[i]
            yield i + 1

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
    word, _ = E.orbit(x, k)
    s = [0] * E.N
    for sym in word:
        s[sym - 1] += 1
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
