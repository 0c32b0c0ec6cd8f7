import random
from fractions import Fraction

import pytest

from ietlab.algebraic import real_roots
from ietlab.builders import SEVEN_PRODUCT
from ietlab.matrices import (
    charpoly,
    det,
    extgcd,
    hnf_column,
    identity,
    inverse,
    inverse_int,
    is_primitive,
    mat_mul,
    mat_pow,
    mat_vec,
    solve,
    solve_fraction_free,
    transpose,
    unimodular_completion,
)
from ietlab.numberfield import perron_pair, root_power
from ietlab.polynomials import IntPoly
from ietlab.rauzy import class_of, enumerate_cycles
from ietlab.substitution import PrefixGraph, Substitution
from ietlab.vershik import affine_closed_form


def rand_mat(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def rand_rational_mat(rng, n):
    """Rows with denominators drawn from 1, 2, 3 and 6, so that the row
    scaling of the rational routines has work to do."""
    return [[Fraction(x, rng.choice((1, 2, 3, 6))) for x in row] for row in rand_mat(rng, n, n)]


def reference_eliminate(M, ncols: int):
    """Gauss-Jordan elimination of the first ncols columns of M, in place,
    over any exact field (Fraction or FieldElement entries): each pivot
    row is scaled to a leading 1 and its pivot column is cleared in every
    other row.  Returns the pivot columns.  The oracle for the Bareiss
    routines of `matrices`."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        pr = M[r] = [x * inv for x in M[r]]
        for i, row in enumerate(M):
            f = row[c]
            if i != r and f:
                M[i] = [a - f * b for a, b in zip(row, pr)]
        pivots.append(c)
    return pivots


def reference_solve_columns(A, cols):
    """The Fraction solutions x of A x = b for each column b in cols, by
    Gauss-Jordan; raises ValueError on singular A."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in cols] for i, row in enumerate(A)]
    if len(reference_eliminate(M, n)) < n:
        raise ValueError("singular matrix")
    return [[row[n + j] for row in M] for j in range(len(cols))]


def reference_inverse(A):
    return transpose(reference_solve_columns(A, identity(len(A))))


def reference_perron_vector(M, beta):
    """The kernel of M - beta I over Q(beta) by Gauss-Jordan, checked to be
    a line and normalized to sum 1."""
    n = len(M)
    K = beta.field
    rows = [[K.coerce(M[i][j]) - (beta if i == j else K.zero) for j in range(n)] for i in range(n)]
    pivots = reference_eliminate(rows, n)
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1
    v = [K.one if c == free[0] else K.zero for c in range(n)]
    for r, c in enumerate(pivots):
        v[c] = -rows[r][free[0]]
    total = sum(v, K.zero)
    return [x / total for x in v]


def assert_perron_vector_matches_the_oracle(M):
    beta, v = perron_pair(M)
    b = v[0].field.generator_element()
    assert v[0].field.generator is beta
    assert v == reference_perron_vector(M, b)


def test_mat_mul_and_identity():
    A = [[1, 2], [3, 4]]
    assert mat_mul(A, identity(2)) == A
    assert mat_mul(identity(2), A) == A
    assert mat_vec(A, [1, 1]) == [3, 7]
    assert transpose(A) == [[1, 3], [2, 4]]


def test_mat_pow():
    A = [[1, 1], [1, 0]]
    assert mat_pow(A, 10)[0][0] == 89  # Fibonacci
    assert mat_pow(A, 0) == identity(2)


def test_negative_powers_raise():
    # mat_pow halves k by a shift, and -1 >> 1 == -1: a negative power
    # must raise before the loop, at every entry point that reaches it
    A = [[1, 1], [1, 0]]
    graph = PrefixGraph(Substitution({1: (1, 2), 2: (1,)}))
    phi = real_roots(IntPoly((-1, -1, 1)))[-1]
    calls = [
        lambda: mat_pow(A, -1),
        lambda: graph.count_paths(-1),
        lambda: graph.count_cycles(-2),
        lambda: affine_closed_form(A, [1, 0], [0, 0], -1),
        lambda: root_power(phi, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_det_known_values():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)


def test_det_matches_expansion_randomized():
    rng = random.Random(7)

    def det_cofactor(M):
        n = len(M)
        if n == 1:
            return M[0][0]
        return sum(
            (-1) ** j * M[0][j] * det_cofactor([row[:j] + row[j + 1:] for row in M[1:]])
            for j in range(n)
        )

    for _ in range(40):
        n = rng.randint(1, 5)
        A = rand_mat(rng, n, n)
        assert det(A) == det_cofactor(A)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rand_mat(rng, n, n)]
        assert det(A) == det_cofactor(A)


def test_inverse_and_solve():
    rng = random.Random(11)
    for t in range(60):
        n = rng.randint(1, 5)
        A = rand_rational_mat(rng, n) if t % 2 else rand_mat(rng, n, n)
        if det(A) == 0:
            continue
        Ainv = inverse(A)
        assert Ainv == reference_inverse(A)
        assert mat_mul(A, Ainv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        b = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6))) for _ in range(n)]
        x = solve(A, b)
        assert x == reference_solve_columns(A, [b])[0]
        assert mat_vec(A, x) == b


def test_inverse_singular_raises():
    half, third = Fraction(1, 2), Fraction(1, 3)
    singular = (
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[half, third], [3, 2]],  # row 2 is 6 * row 1
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    )
    for A in singular:
        assert det(A) == 0
        with pytest.raises(ValueError):
            inverse(A)
        with pytest.raises(ValueError):
            solve(A, [1] * len(A))


def test_perron_vector_matches_the_oracle_on_the_census_and_e2star():
    hits = [c for c in enumerate_cycles(class_of((4, 3, 2, 1)), 10) if c.is_qualifying()]
    assert len(hits) == 14
    for cyc in hits:
        assert_perron_vector_matches_the_oracle(cyc.product)
    # the charpoly of SEVEN_PRODUCT has a factor x - 1 beside the minimal
    # polynomial of beta, and q(M) must kill that eigenvector too
    M = [list(row) for row in SEVEN_PRODUCT]
    assert charpoly(M)(1) == 0
    assert_perron_vector_matches_the_oracle(M)


def test_perron_vector_matches_the_oracle_on_random_primitive_matrices():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    square = st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    )

    @settings(max_examples=60, deadline=None)
    @given(square)
    def check(M):
        assume(is_primitive(M))
        assert_perron_vector_matches_the_oracle(M)

    check()


def test_inverse_int_unimodular():
    U = [[2, 1], [1, 1]]
    assert inverse_int(U) == [[1, -1], [-1, 2]]
    rng = random.Random(29)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        _, U = hnf_column(rand_mat(rng, m, n))
        assert inverse_int(U) == reference_inverse(U)
    for A in ([[2, 0], [0, 1]], [[1, 1], [-1, 1]], [[1, 2], [2, 4]]):  # det 2, 2, 0
        with pytest.raises(ValueError):
            inverse_int(A)


def test_charpoly_companion():
    # companion matrix of x^3 - 2x^2 + 5x - 7
    C = [[0, 0, 7], [1, 0, -5], [0, 1, 2]]
    assert charpoly(C) == IntPoly((-7, 5, -2, 1))


def test_charpoly_diagonal_and_cayley_hamilton():
    assert charpoly([[2, 0], [0, 3]]) == IntPoly((6, -5, 1))
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        A = rand_mat(rng, n, n, -3, 3)
        p = charpoly(A)
        acc = [[0] * n for _ in range(n)]
        for k, c in enumerate(p.coeffs):
            Ak = mat_pow(A, k)
            acc = [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(acc, Ak)]
        assert acc == [[0] * n for _ in range(n)]


def test_charpoly_rejects_non_integral():
    # x^2 - x/2: not an integer polynomial, and the guard survives python -O
    with pytest.raises(ValueError):
        charpoly([[Fraction(1, 2), 0], [0, 0]])


def test_solve_fraction_free_matches_solve():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        A = rand_mat(rng, n, n)
        cols = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        if det(A) == 0:
            with pytest.raises(ValueError):
                solve_fraction_free(A, cols)
            continue
        X, d = solve_fraction_free(A, cols)
        assert abs(d) == abs(det(A))
        assert all(isinstance(x, int) for col in X for x in col)
        assert [[Fraction(x, d) for x in col] for col in X] == reference_solve_columns(A, cols)


def test_extgcd():
    for a, b in [(12, 18), (-5, 3), (0, 7), (4, 0), (-6, -9), (1, 1)]:
        g, s, t = extgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        assert (a or b) == 0 or (a % g == 0 and b % g == 0)


def test_hnf_properties_randomized():
    rng = random.Random(19)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = rand_mat(rng, m, n)
        H, U = hnf_column(A)
        assert det(U) in (1, -1)
        assert mat_mul(A, U) == H
        r = sum(1 for j in range(n) if any(H[i][j] for i in range(m)))
        # columns past the rank are zero
        for j in range(r, n):
            assert all(H[i][j] == 0 for i in range(m))
        # pivots positive, zeros to the right of each pivot
        prow = -1
        for j in range(r):
            i = next(i for i in range(m) if H[i][j])
            assert i > prow
            assert H[i][j] > 0
            assert all(H[i][jj] == 0 for jj in range(j + 1, n))
            assert all(0 <= H[i][jj] < H[i][j] for jj in range(j))
            prow = i


def column_lattice(A):
    """The nonzero columns of hnf_column(A): the Hermite form, so the
    lattice, of the column span of A."""
    H, _ = hnf_column(A)
    return [c for c in zip(*H) if any(c)]


def test_hnf_spans_the_lattice_of_sympy_hnf():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(41)
    for t in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        if t % 2:  # rank at most k < min(m, n), or the zero matrix
            k = rng.randint(0, min(m, n) - 1)
            A = mat_mul(rand_mat(rng, m, k), rand_mat(rng, k, n)) if k else [[0] * n for _ in range(m)]
        else:
            A = rand_mat(rng, m, n, -9, 9)
        S = hermite_normal_form(sympy.Matrix(A))
        mine = column_lattice(A)
        assert len(mine) == S.cols, A
        assert mine == column_lattice([[int(v) for v in S.row(i)] for i in range(m)]), A


def test_is_primitive():
    assert is_primitive([[1, 1], [1, 0]])
    assert not is_primitive([[0, 1], [1, 0]])  # periodic
    assert not is_primitive([[1, 1], [0, 1]])  # reducible
    assert is_primitive([[1, 1, 1, 1], [0, 2, 1, 0], [1, 2, 2, 1], [1, 1, 1, 2]])
    with pytest.raises(ValueError):
        is_primitive([[1, 1], [-1, 1]])


def positive_at_wielandt_bound(A):
    n = len(A)
    return all(x > 0 for row in mat_pow(A, n * n - 2 * n + 2) for x in row)


def wielandt(n):
    """The primitive n x n pattern whose least positive power is the
    Wielandt bound n^2 - 2n + 2: a cycle with one chord."""
    A = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    A[n - 1][0] = A[n - 1][1] = 1
    return A


def test_is_primitive_matches_the_wielandt_power():
    rng = random.Random(41)
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 7)
        density = rng.choice((0.15, 0.25, 0.4, 0.6))
        A = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        expected = positive_at_wielandt_bound(A)
        assert is_primitive(A) == expected
        seen.add(expected)
    assert seen == {True, False}
    for n in range(2, 8):
        W = wielandt(n)
        assert is_primitive(W)
        bound = n * n - 2 * n + 2
        assert not all(x > 0 for row in mat_pow(W, bound - 1) for x in row)
        shift = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        assert not is_primitive(shift)  # irreducible, period n
        assert is_primitive([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(shift)])


def test_unimodular_completion():
    rng = random.Random(23)
    from math import gcd

    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        v = [rng.randint(-6, 6) for _ in range(n)]
        g = 0
        for x in v:
            g = gcd(g, x)
        if g != 1:
            continue
        W = unimodular_completion(v)
        assert det(W) in (1, -1)
        assert [W[i][0] for i in range(n)] == v
        done += 1
    with pytest.raises(ValueError):
        unimodular_completion([2, 4])
