"""Rauzy-Veech induction: the two elementary steps, the graph on
irreducible permutations, cycle enumeration, and the construction of
self-similar IETs from cycles.

Step conventions.  With I0 the domain minus its last atom and I1 the
domain minus the last image atom, induction happens on the larger one:
type 0 when |I0| < |I1| (equivalently the last length exceeds the last
image length), type 1 otherwise.  The step matrices A relate lengths by
lengths = A * lengths', so a closed loop accumulates P = A_1 ... A_L with
P * Lambda = beta * Lambda for the loop's expanding factor beta, and the
contraction is rho = 1/beta.

Limits.  `rauzy_graph` enumerates all N! permutations and supports
N = 2..7; it raises ValueError for N = 8 and beyond.  A cycle's
characteristic polynomial has degree N, inside the factoring limit of
`polynomials` (FACTOR_DEGREE_LIMIT = 8).
"""
from __future__ import annotations

from itertools import permutations as _all_permutations

from .iet import IET, Permutation, is_irreducible_perm
from .matrices import charpoly, identity, inverse_int, mat_mul, mat_vec
from .matrices import is_primitive as _matrix_primitive
from .numberfield import perron_pair
from .polynomials import IntPoly, is_irreducible


def rauzy_type0_perm(images):
    N = len(images)
    piN = images[N - 1]
    out = []
    for pj in images:
        if pj <= piN:
            out.append(pj)
        elif pj == N:
            out.append(piN + 1)
        else:
            out.append(pj + 1)
    return tuple(out)


def rauzy_type1_perm(images):
    N = len(images)
    piN = images[N - 1]
    k = images.index(N) + 1  # position of the top atom in the domain
    out = []
    for j in range(1, N + 1):
        if j <= k:
            out.append(images[j - 1])
        elif j == k + 1:
            out.append(piN)
        else:
            out.append(images[j - 2])
    return tuple(out)


def step_matrix(images, rauzy_type: int):
    """A with lengths = A * induced lengths for the given step type."""
    N = len(images)
    k = images.index(N) + 1
    if rauzy_type == 0:
        A = identity(N)
        A[N - 1][k - 1] += 1
        return A
    A = [[0] * N for _ in range(N)]
    for j in range(1, k + 1):
        A[j - 1][j - 1] = 1
    if k < N:
        A[k - 1][k] = 1
        A[N - 1][k] = 1
    for j in range(k + 1, N):
        A[j - 1][j] = 1
    return A


def rauzy_step(pi: Permutation, lengths):
    """(type, new permutation, induced lengths, A) for one induction step."""
    images = pi.images
    N = pi.N
    k = images.index(N) + 1
    gap = lengths[N - 1] - lengths[k - 1]
    s = gap.sign()
    if s == 0:
        raise ValueError("equal candidate intervals: Keane property fails here")
    rtype = 0 if s > 0 else 1
    A = step_matrix(images, rtype)
    Ainv = inverse_int(A)
    new_lengths = tuple(mat_vec(Ainv, lengths))
    for l in new_lengths:
        if l.sign() <= 0:
            raise ValueError("induction produced a non-positive length")
    new_images = rauzy_type0_perm(images) if rtype == 0 else rauzy_type1_perm(images)
    return rtype, Permutation(new_images), new_lengths, A


def rauzy_graph(N: int):
    """Rauzy classes: the connected components of the induction graph.

    Returns a list of sorted vertex lists (each vertex an image tuple),
    ordered by (size, smallest vertex).
    """
    if not 2 <= N <= 7:
        raise ValueError("supported for 2..7 intervals")
    verts = [p for p in _all_permutations(range(1, N + 1)) if is_irreducible_perm(p)]
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in verts:
        for w in (rauzy_type0_perm(list(v)), rauzy_type1_perm(list(v))):
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rv] = rw
    groups = {}
    for v in verts:
        groups.setdefault(find(v), []).append(v)
    out = [sorted(g) for g in groups.values()]
    out.sort(key=lambda g: (len(g), g[0]))
    return out


def class_of(images):
    """The Rauzy class (sorted vertex list) containing the given
    irreducible permutation.

    Both induction moves are bijections of a class, so walking them
    forward from one vertex reaches the whole class.  Raises ValueError
    on a non-permutation or a reducible one.
    """
    start = Permutation(images).images
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w in (rauzy_type0_perm(v), rauzy_type1_perm(v)):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(seen)


class RauzyCycle:
    """A closed walk in a Rauzy class with its accumulated matrix data.

    `steps` lists (vertex, type) pairs in walk order; `product` is the
    left-to-right product of the step matrices A, so that
    product * (final lengths) = initial lengths along the walk.
    """

    __slots__ = ("steps", "_product", "_charpoly")

    def __init__(self, steps):
        self.steps = tuple((tuple(v), t) for v, t in steps)
        self._product = None
        self._charpoly = None

    @property
    def product(self):
        if self._product is None:
            P = identity(len(self.base))
            for v, t in self.steps:
                P = mat_mul(P, step_matrix(list(v), t))
            self._product = P
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

    def is_qualifying(self) -> bool:
        """Primitive product with irreducible full-degree charpoly: the
        census filter for self-similarity candidates."""
        return _matrix_primitive(self.product) and is_irreducible(self.charpoly())

    def canonical_key(self):
        steps = self.steps
        return min(steps[r:] + steps[:r] for r in range(len(steps)))

    def with_base(self, images) -> "RauzyCycle":
        """The same loop walked from a chosen vertex on it."""
        images = tuple(images)
        for r, (v, _) in enumerate(self.steps):
            if v == images:
                return RauzyCycle(self.steps[r:] + self.steps[:r])
        raise ValueError(f"{images} does not lie on this cycle")

    def __repr__(self):
        return f"RauzyCycle(base={self.base}, labels={self.edge_labels})"


def enumerate_cycles(cls_verts, Lmax: int):
    """All closed walks of length <= Lmax in the class, one per rotation
    orbit of the (vertex, type) step sequence.

    Walks are found depth-first from every base point and deduplicated
    through their canonical rotation; no pruning beyond the length cap,
    so the census sees every cycle.
    """
    if Lmax < 1:
        raise ValueError("Lmax must be at least 1")
    cls_verts = [tuple(v) for v in cls_verts]
    edges = {
        v: (rauzy_type0_perm(list(v)), rauzy_type1_perm(list(v))) for v in cls_verts
    }
    seen = set()
    for start in cls_verts:
        stack = [(start, ())]
        while stack:
            v, steps = stack.pop()
            L = len(steps)
            if L and v == start:
                cyc = RauzyCycle(steps)
                key = cyc.canonical_key()
                if key not in seen:
                    seen.add(key)
                    yield cyc
            if L < Lmax:
                for t in (0, 1):
                    stack.append((edges[v][t], steps + ((v, t),)))


def survey(cls_verts, Lmax: int):
    """Census rows {length: (qualifying cycles, distinct polynomials)}."""
    counts = {L: 0 for L in range(1, Lmax + 1)}
    polys = {L: set() for L in range(1, Lmax + 1)}
    for cyc in enumerate_cycles(cls_verts, Lmax):
        if cyc.is_qualifying():
            counts[cyc.length] += 1
            polys[cyc.length].add(cyc.charpoly().coeffs)
    return {L: (counts[L], len(polys[L])) for L in range(1, Lmax + 1)}


def self_similar_from_cycle(cycle: RauzyCycle):
    """Build the self-similar IET of a qualifying cycle.

    The loop's length vector is the positive eigenvector of the product
    P, normalized to total length 1; the contraction is rho = 1/beta for
    the Perron root beta.  Returns (IET, rho as a field element).
    """
    beta, v = perron_pair(cycle.product)  # verifies P v = beta v exactly
    E = IET(Permutation(cycle.base), v)
    # P Lambda = beta Lambda, so the induced lengths are Lambda / beta
    rho = v[0].field.one / v[0].field.generator_element()
    return E, rho


def walk_from(pi: Permutation, lengths, steps: int):
    """Run `steps` inductions, returning the visited (perm, type) list and
    the accumulated product."""
    visited = []
    P = None
    cur_pi, cur_len = pi, tuple(lengths)
    for _ in range(steps):
        t, cur_pi, cur_len, A = rauzy_step(cur_pi, cur_len)
        visited.append((cur_pi, t))
        P = A if P is None else mat_mul(P, A)
    return visited, P, cur_pi, cur_len
