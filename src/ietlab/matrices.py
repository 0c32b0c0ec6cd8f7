"""Exact linear algebra over the integers and the rationals.

Matrices are lists of row lists.  Sizes here are tiny (dimension at most
8 or so), so the algorithms favour exactness and clarity.  There is one
elimination: fraction-free Bareiss on integer rows, in which every
division is exact.  A rational row is first scaled to integers by the
lcm of its denominators, so determinants, inverses and solutions all
come from integer elimination, the last two as integer solutions over
one denominator (`solve_fraction_free`).  Products and powers work over
any ring, number field elements included.  Characteristic polynomials
come from Newton's identities, and a column-style Hermite normal form
that also returns the unimodular transform is what the lattice routines
build on.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .polynomials import IntPoly


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if not a:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_pow(A, k: int):
    if k < 0:
        raise ValueError("matrix power must be >= 0")
    n = len(A)
    out = identity(n)
    base = [row[:] for row in A]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


def _bareiss(M, n: int) -> int:
    """Fraction-free elimination of the first n columns of the integer
    rows M, in place; every division is exact.  Returns the sign of the
    row swaps made, or 0 when those columns are singular.  Afterwards
    M[n-1][n-1] is +-det of the leading n x n block."""
    sign, prev = 1, 1
    for k in range(n):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        pk = M[k]
        for i in range(k + 1, n):
            row = M[i]
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pk[k] - f * pk[j]) // prev
            row[k] = 0
        prev = pk[k]
    return sign


def _integer_rows(A):
    """(M, scales): row i of the int/Fraction matrix A times scales[i],
    the lcm of its denominators, is the integer row M[i]."""
    M, scales = [], []
    for row in A:
        den = lcm(*(x.denominator for x in row))
        M.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return M, scales


def det(A):
    """Exact determinant: an int when every row is integral, else a Fraction."""
    n = len(A)
    if n == 0:
        return 1
    M, scales = _integer_rows(A)
    d, scale = _bareiss(M, n) * M[-1][-1], prod(scales)
    return d if scale == 1 else Fraction(d, scale)


def solve_fraction_free(A, cols):
    """Integer solutions of A x = b for integer A and each integer column
    b in cols, up to one denominator: (X, d) with A X[j] = d cols[j] and
    d = +-det(A).

    [A | cols] is eliminated once; each back substitution divides exactly
    because X[j] = +-adj(A) cols[j].  Raises on singular A.
    """
    n = len(A)
    M = [list(row) + [b[i] for b in cols] for i, row in enumerate(A)]
    if not _bareiss(M, n):
        raise ValueError("singular matrix")
    d = M[-1][n - 1]
    X = []
    for c in range(n, n + len(cols)):
        x = [0] * n
        for k in range(n - 1, -1, -1):
            row = M[k]
            x[k] = (d * row[c] - sum(row[j] * x[j] for j in range(k + 1, n))) // row[k]
        X.append(x)
    return X, d


def inverse(A):
    """Inverse as a Fraction matrix; raises on singular input.  With the
    rows scaled to integers, column j solves (scaled A) x = s_j e_j."""
    M, scales = _integer_rows(A)
    n = len(M)
    X, d = solve_fraction_free(M, [[s * (i == j) for i in range(n)] for j, s in enumerate(scales)])
    return [[Fraction(x[i], d) for x in X] for i in range(n)]


def inverse_int(A):
    """Inverse of a unimodular integer matrix, as integers."""
    n = len(A)
    X, d = solve_fraction_free(A, identity(n))
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return [[d * x[i] for x in X] for i in range(n)]


def solve(A, b):
    """Solve A x = b exactly; returns Fraction list, raises on singular A."""
    M, _ = _integer_rows([list(row) + [y] for row, y in zip(A, b)])
    (x,), d = solve_fraction_free([row[:-1] for row in M], [[row[-1] for row in M]])
    return [Fraction(v, d) for v in x]


def charpoly(A) -> IntPoly:
    """Characteristic polynomial det(x*I - A) of an integer matrix.

    Newton's identities on power-sum traces: k e_k is an integer sum, and
    its division by k is exact; raises ValueError if a coefficient is not
    an integer.
    """
    n = len(A)
    traces = []
    P = identity(n)
    for _ in range(n):
        P = mat_mul(P, A)
        traces.append(sum(P[i][i] for i in range(n)))
    e = [1]
    for k in range(1, n + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1))
        if s % k:
            raise ValueError("characteristic polynomial is not integral: matrix is not integer")
        e.append(int(s // k))
    return IntPoly((-1) ** k * e[k] for k in range(n, -1, -1))


def extgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_column(A):
    """Column Hermite form: returns (H, U) with H = A*U and U unimodular.

    H has positive pivots walking down and to the right, zeros to the
    right of each pivot in its row, and entries left of a pivot reduced
    to [0, pivot).  Columns beyond the rank are zero.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = identity(n)

    def colop(j, k, a, b, c, d):
        # (col_j, col_k) <- (a*col_j + b*col_k, c*col_j + d*col_k)
        for M in (H, U):
            for row in M:
                x, y = row[j], row[k]
                row[j], row[k] = a * x + b * y, c * x + d * y

    r = 0
    for i in range(m):
        piv = next((j for j in range(r, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            colop(r, piv, 0, 1, 1, 0)
        for j in range(r + 1, n):
            if H[i][j]:
                g, s, t = extgcd(H[i][r], H[i][j])
                u, v = H[i][j] // g, H[i][r] // g
                colop(r, j, s, t, -u, v)
        if H[i][r] < 0:
            for M in (H, U):
                for row in M:
                    row[r] = -row[r]
        for j in range(r):
            q = H[i][j] // H[i][r]
            if q:
                for M in (H, U):
                    for row in M:
                        row[j] -= q * row[r]
        r += 1
        if r == n:
            break
    return H, U


def is_primitive(A) -> bool:
    """Primitivity of a nonnegative integer matrix, from its 0/1 pattern."""
    if any(min(row, default=0) < 0 for row in A):
        raise ValueError("primitivity test needs a nonnegative matrix")
    return _primitive_masks([sum(1 << j for j, x in enumerate(row) if x) for row in A])


def _primitive_masks(X) -> bool:
    """Primitivity of the 0/1 matrix with bit-mask rows X: square X, X^2,
    ... until a power is all ones (primitive), a square repeats its power
    (so do all later ones) or the exponent reaches the Wielandt bound
    n^2 - 2n + 2 (a primitive matrix is positive from that power on)."""
    n = len(X)
    full, bound, e = (1 << n) - 1, n * n - 2 * n + 2, 1
    while not all(row == full for row in X):
        if e >= bound:
            return False
        square = []
        for x in X:  # row x of X^2: the rows y of X picked by the bits of x
            acc = 0
            for y in X:
                if x & 1:
                    acc |= y
                x >>= 1
            square.append(acc)
        if square == X:
            return False
        X, e = square, 2 * e
    return True


def unimodular_completion(v):
    """Unimodular integer matrix whose first column is v (gcd(v) must be 1)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g != 1:
        raise ValueError("vector is not primitive")
    _, U = hnf_column([list(v)])
    W = inverse_int(U)  # first row of U^{-1} is v
    return transpose(W)
