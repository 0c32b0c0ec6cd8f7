"""Rauzy-Veech induction: the two elementary steps, Rauzy classes, cycle
enumeration, and the construction of self-similar IETs from cycles.

Step conventions.  With I0 the domain minus its last atom and I1 the
domain minus the last image atom, induction happens on the larger one:
type 0 when |I0| < |I1| (equivalently the last length exceeds the last
image length), type 1 otherwise.  The step matrices A relate lengths by
lengths = A * lengths', so a closed loop accumulates P = A_1 ... A_L with
P * Lambda = beta * Lambda for the loop's expanding factor beta, and the
contraction is rho = 1/beta.

Cost.  A step matrix is the identity with one column changed, so a
product P * A is one column sum (and for type 1 a column shift), O(N)
work per step.  `enumerate_cycles` walks from each base only through
vertices listed at or after it (Johnson's least-vertex rule) that can
still return to it within the cap, and compares rotations only for walks
that pass their base twice.  Stack entries carry P's 0/1 pattern as bit
masks, so `is_qualifying` forms the integer product only once it is
primitive, and keeps its verdict: `self_similar_from_cycle` factors nothing.
"""
from __future__ import annotations

from operator import add, or_

from .iet import IET, Permutation
from .matrices import _primitive_masks, charpoly, identity, inverse_int, mat_vec, transpose
from .algebraic import isolate
from .numberfield import perron_pair, perron_vector
from .polynomials import IntPoly, is_irreducible


def rauzy_type0_perm(images):
    N, piN = len(images), images[-1]
    return tuple(p if p <= piN else piN + 1 if p == N else p + 1 for p in images)


def rauzy_type1_perm(images):
    images = tuple(images)
    k = images.index(len(images)) + 1  # position of the top atom in the domain
    return images[:k] + images[-1:] + images[k:-1] if k < len(images) else images


def _times_step(cols, images, rauzy_type: int, join=lambda a, b: list(map(add, a, b))):
    """Turn the columns `cols` of P into those of P * A, in place, for the
    step matrix A of a step of the given type from `images`.  A is the
    identity but for the columns from k on, k the top atom's (0-based):
    type 0 adds e_{N-1} to column k; type 1 makes column k+1 e_k + e_{N-1}
    and shifts e_{k+1}.. right.  So P * A is one column sum and a shift;
    on bit-mask columns, `join=or_` steps the 0/1 pattern of P >= 0."""
    N = len(images)
    k = images.index(N)
    added = join(cols[k], cols[N - 1])
    if rauzy_type == 0:
        cols[k] = added
    elif k < N - 1:
        cols[k + 1 :] = [added] + cols[k + 1 : N - 1]


def step_matrix(images, rauzy_type: int):
    """A with lengths = A * induced lengths for the given step type."""
    return RauzyCycle([(images, rauzy_type)]).product


def rauzy_step(pi: Permutation, lengths):
    """(type, new permutation, induced lengths, A) for one induction step."""
    images, N = pi.images, pi.N
    s = (lengths[N - 1] - lengths[images.index(N)]).sign()
    if s == 0:
        raise ValueError("equal candidate intervals: Keane property fails here")
    rtype = 0 if s > 0 else 1
    A = step_matrix(images, rtype)
    new_lengths = tuple(mat_vec(inverse_int(A), lengths))
    if any(l.sign() <= 0 for l in new_lengths):
        raise ValueError("induction produced a non-positive length")
    new_images = rauzy_type0_perm(images) if rtype == 0 else rauzy_type1_perm(images)
    return rtype, Permutation(new_images), new_lengths, A


def _distances(start, neighbours, limit=None):
    """Breadth-first distances from start along neighbours, out to limit."""
    dist, queue = {start: 0}, [start]
    for v in queue:
        if dist[v] == limit:
            break
        for w in neighbours(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def class_of(images):
    """The Rauzy class (sorted vertex list) containing the given
    irreducible permutation.

    Both induction moves are bijections of a class, so walking them
    forward from one vertex reaches the whole class.  Raises ValueError
    on a non-permutation or a reducible one.
    """
    start = Permutation(images).images
    return sorted(_distances(start, lambda v: (rauzy_type0_perm(v), rauzy_type1_perm(v))))


class RauzyCycle:
    """A closed walk in a Rauzy class with its accumulated matrix data.

    `steps` lists (vertex, type) pairs in walk order; `product` is the
    left-to-right product of the step matrices A, so that
    product * (final lengths) = initial lengths along the walk.  A tuple
    of steps is kept as given, so its vertices must be tuples already.
    `masks` are the product's 0/1 pattern as bit-mask columns, if already
    known.
    """

    __slots__ = ("steps", "_product", "_charpoly", "_masks", "_qualifying")

    def __init__(self, steps, masks=None):
        self.steps = steps if type(steps) is tuple else tuple((tuple(v), t) for v, t in steps)
        self._product = self._charpoly = self._qualifying = None
        self._masks = masks

    @property
    def product(self):
        if self._product is None:
            cols = identity(len(self.base))
            for v, t in self.steps:
                _times_step(cols, v, t)
            self._product = transpose(cols)
        return self._product

    @property
    def base(self):
        return self.steps[0][0]

    @property
    def edge_labels(self):
        return tuple(t for _, t in self.steps)

    @property
    def length(self) -> int:
        return len(self.steps)

    def charpoly(self) -> IntPoly:
        if self._charpoly is None:
            self._charpoly = charpoly(self.product)
        return self._charpoly

    def is_primitive(self) -> bool:
        """Primitivity of P from its pattern's bit-mask columns, rows of P^T."""
        if self._masks is None:
            self._masks = [1 << i for i in range(len(self.base))]
            for v, t in self.steps:
                _times_step(self._masks, v, t, or_)
        return _primitive_masks(self._masks)

    def is_qualifying(self) -> bool:
        """Primitive product with irreducible full-degree charpoly: the
        census filter for self-similarity candidates.  Kept once decided."""
        if self._qualifying is None:
            self._qualifying = self.is_primitive() and is_irreducible(self.charpoly())
        return self._qualifying

    def canonical_key(self):
        """The least rotation of `steps`; it starts at the least vertex."""
        steps = self.steps
        least = min(steps)[0]
        return min(steps[r:] + steps[:r] for r, (v, _) in enumerate(steps) if v == least)

    def __repr__(self):
        return f"RauzyCycle(base={self.base}, labels={self.edge_labels})"


def enumerate_cycles(cls_verts, Lmax: int):
    """All closed walks of length <= Lmax in the class, one per rotation
    orbit of the (vertex, type) step sequence.

    Walks run depth-first from each base in `cls_verts` order and never
    enter a vertex listed before the base (Johnson's least-vertex rule): a
    closed walk through one was found from the earliest vertex on it.  Nor
    does it enter one farther back from the base than the steps left.  So
    the yields are those of the unpruned search, in its order.  The stack
    counts visits to the base: a walk that passes it again is yielded only
    as the greatest of its rotations from there, the first one met.
    """
    if Lmax < 1:
        raise ValueError("Lmax must be at least 1")
    cls_verts = [tuple(v) for v in cls_verts]
    rank = {v: i for i, v in enumerate(cls_verts)}
    edges = {v: (rauzy_type0_perm(v), rauzy_type1_perm(v)) for v in cls_verts}
    inverse = [{ws[t]: v for v, ws in edges.items()} for t in (0, 1)]  # each move is a bijection
    preds = {w: (inverse[0][w], inverse[1][w]) for w in cls_verts}
    for i, start in enumerate(cls_verts):
        back = _distances(start, lambda w: [u for u in preds[w] if rank[u] >= i], Lmax - 1)
        stack = [(start, (), 0, [1 << j for j in range(len(start))])]
        while stack:
            v, steps, visits, masks = stack.pop()
            if v == start:
                if visits == 1 or visits and all(
                    steps[r:] + steps[:r] <= steps for r, (u, _) in enumerate(steps) if u == start
                ):
                    yield RauzyCycle(steps, masks)
                visits += 1
            for t, w in enumerate(edges[v]):
                if len(steps) + back.get(w, Lmax) < Lmax:  # room to step to w and back
                    stepped = masks.copy()
                    _times_step(stepped, v, t, or_)
                    stack.append((w, steps + ((v, t),), visits, stepped))


def census_rows(qualifying, Lmax: int):
    """Census rows {length: (qualifying cycles, distinct polynomials)} for
    lengths 1..Lmax, read from the qualifying cycles of a class."""
    polys = {L: [] for L in range(1, Lmax + 1)}
    for cyc in qualifying:
        polys[cyc.length].append(cyc.charpoly().coeffs)
    return {L: (len(ps), len(set(ps))) for L, ps in polys.items()}


def survey(cls_verts, Lmax: int):
    """Census rows {length: (qualifying cycles, distinct polynomials)}."""
    qualifying = [c for c in enumerate_cycles(cls_verts, Lmax) if c.is_qualifying()]
    return census_rows(qualifying, Lmax)


def self_similar_from_cycle(cycle: RauzyCycle):
    """Build the self-similar IET of a qualifying cycle.

    The loop's length vector is the positive eigenvector of the product
    P, normalized to total length 1; the contraction is rho = 1/beta for
    the Perron root beta.  Returns (IET, rho as a field element).  A cycle
    that is not qualifying goes through `perron_pair`, which factors.
    """
    if cycle.is_qualifying():  # perron_vector verifies P v = beta v exactly
        v = perron_vector(cycle.product, cycle.charpoly(), isolate(cycle.charpoly())[-1])
    else:
        v = perron_pair(cycle.product)[1]
    E = IET(Permutation(cycle.base), v)
    # P Lambda = beta Lambda, so the induced lengths are Lambda / beta
    rho = v[0].field.one / v[0].field.generator_element()
    return E, rho


def walk_from(pi: Permutation, lengths, steps: int):
    """Run `steps` inductions, returning the visited (perm, type) list and
    the accumulated product."""
    visited = []
    cols = identity(pi.N)
    cur_pi, cur_len = pi, tuple(lengths)
    for _ in range(steps):
        images = cur_pi.images
        t, cur_pi, cur_len, _ = rauzy_step(cur_pi, cur_len)
        visited.append((cur_pi, t))
        _times_step(cols, images, t)
    return visited, transpose(cols), cur_pi, cur_len
