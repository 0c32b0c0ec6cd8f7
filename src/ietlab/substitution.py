"""Substitutions on {1..N}: incidence matrices, primitivity, fixed points,
and the prefix automaton that drives the recursive-tiling coding.

A prefix is a pair (rule j, cut t) standing for the first t symbols of
the rule word for j, 0 <= t < len(word).  chi of a prefix is its rule j;
the plus-symbol is word[t], the letter the prefix stops in front of.  A
sequence of prefixes mu_1, mu_2, ... is admissible when
chi(mu_k) = plus(mu_{k+1}), so the automaton has an edge mu -> mu' exactly
when that matches.
"""
from __future__ import annotations

from .algebraic import RealAlgebraic
from .matrices import charpoly, is_primitive, mat_pow
from .polynomials import count_roots, divides, root_bound, squarefree_part, sturm_chain


class Substitution:
    """Rewriting rules i -> word over the alphabet {1..N}."""

    __slots__ = ("rules",)

    def __init__(self, rules):
        rules = {int(k): tuple(int(s) for s in v) for k, v in dict(rules).items()}
        N = len(rules)
        if sorted(rules) != list(range(1, N + 1)):
            raise ValueError("rules must cover exactly the symbols 1..N")
        for i, w in rules.items():
            if not w:
                raise ValueError(f"empty rule for symbol {i}")
            if any(s < 1 or s > N for s in w):
                raise ValueError(f"rule {i} uses symbols outside 1..{N}")
        self.rules = rules

    @property
    def N(self) -> int:
        return len(self.rules)

    def __call__(self, word):
        """Apply the substitution to a symbol or a word."""
        if isinstance(word, int):
            return self.rules[word]
        out = []
        for s in word:
            out.extend(self.rules[s])
        return tuple(out)

    def incidence(self):
        """M[i][j] = number of occurrences of symbol i+1 in the rule for j+1."""
        N = self.N
        M = [[0] * N for _ in range(N)]
        for j in range(1, N + 1):
            for s in self.rules[j]:
                M[s - 1][j - 1] += 1
        return M

    def is_primitive(self) -> bool:
        return is_primitive(self.incidence())

    def fixed_point_letter(self) -> int:
        """The unique symbol j whose rule starts with j."""
        hits = [j for j, w in self.rules.items() if w[0] == j]
        if len(hits) != 1:
            raise ValueError(f"expected one self-starting rule, found {hits}")
        return hits[0]

    def fixed_point_prefixes(self):
        """Stream sigma^k(j) for the self-starting letter j; each word is a
        prefix of the next."""
        w = (self.fixed_point_letter(),)
        while True:
            w = self(w)
            yield w

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.rules == other.rules

    def __repr__(self):
        return "Substitution(%s)" % {i: "".join(map(str, w)) for i, w in self.rules.items()}


class Prefix:
    """Proper prefix of a rule word, named (rule, cut length)."""

    __slots__ = ("rule", "cut")

    def __init__(self, rule: int, cut: int):
        self.rule = rule
        self.cut = cut

    def __eq__(self, other):
        return isinstance(other, Prefix) and (self.rule, self.cut) == (other.rule, other.cut)

    def __hash__(self):
        return hash((self.rule, self.cut))

    def __repr__(self):
        return f"({self.rule},{self.cut})"


class PrefixGraph:
    """Admissibility automaton on the prefixes of a substitution."""

    def __init__(self, sigma: Substitution):
        self.sigma = sigma
        self.states = [
            Prefix(j, t)
            for j in range(1, sigma.N + 1)
            for t in range(len(sigma.rules[j]))
        ]
        self.index = {p: k for k, p in enumerate(self.states)}
        by_plus = {}
        for nu in self.states:
            by_plus.setdefault(self.plus(nu), []).append(nu)
        # successors[mu]: the states nu with chi(mu) == plus(nu), in state order
        self.successors = {mu: tuple(by_plus.get(self.chi(mu), ())) for mu in self.states}
        n = len(self.states)
        A = [[0] * n for _ in range(n)]
        for a, mu in enumerate(self.states):
            for nu in self.successors[mu]:
                A[a][self.index[nu]] = 1
        self.adjacency = A

    def chi(self, mu: Prefix) -> int:
        return mu.rule

    def plus(self, mu: Prefix) -> int:
        return self.sigma.rules[mu.rule][mu.cut]

    def count_paths(self, t: int):
        """Number of admissible prefix sequences of length t+1 (t edges)."""
        return sum(map(sum, mat_pow(self.adjacency, t)))

    def count_cycles(self, T: int):
        """Number of closed admissible sequences of period T (trace of A^T)."""
        P = mat_pow(self.adjacency, T)
        return sum(P[i][i] for i in range(len(P)))

    def spectral_radius_matches(self, beta: RealAlgebraic) -> bool:
        """Exact check that the automaton's growth rate equals beta.

        The adjacency matrix is nonnegative and primitive, so its
        spectral radius is its largest real eigenvalue; it equals beta
        iff beta is a root of the characteristic polynomial and no real
        root lies above it: beta's interval is refined until it holds no
        other root, and then none may lie above the interval.
        """
        if not is_primitive(self.adjacency):
            return False
        p = charpoly(self.adjacency)
        if not divides(beta.poly, p):  # beta's polynomial is its minimal one
            return False
        chain = sturm_chain(squarefree_part(p))
        while count_roots(p, beta.lo, beta.hi, chain) > 1:
            beta.refine()
        return count_roots(p, beta.hi, root_bound(p), chain) == 0
