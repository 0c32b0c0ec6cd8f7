"""Exact linear algebra over the integers, the rationals and number fields.

Matrices are lists of row lists.  Sizes here are tiny (dimension at most
8 or so), so the algorithms favour exactness and clarity.  One
Gauss-Jordan elimination (`eliminate`) works over any exact field, so
Fractions and number field elements alike; inverses, solutions and
kernel vectors are read off its reduced rows.  Integer matrices use
fraction-free Bareiss elimination instead, which gives determinants
(rational rows are scaled to integers first) and integer solutions up to
one denominator.  Characteristic polynomials come from Newton's
identities, and a column-style Hermite normal form that also returns the
unimodular transform is what the lattice routines build on.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def det(A):
    """Exact determinant: an int when every row is integral, else a Fraction.

    Each row is scaled to integers by the lcm of its denominators, so
    Bareiss elimination runs on integers and the scale divides out."""
    n = len(A)
    if n == 0:
        return 1
    M = []
    scale = 1
    for row in A:
        den = lcm(*(x.denominator for x in row))
        M.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    d = _bareiss(M, n) * M[-1][-1]
    return d if scale == 1 else Fraction(d, scale)


def eliminate(M, ncols: int):
    """Gauss-Jordan elimination of the first ncols columns of M, in place,
    over any exact field (Fraction or FieldElement entries).

    Each pivot row is scaled to a leading 1 and its pivot column is
    cleared in every other row.  Returns the pivot columns; row k of M
    afterwards holds the k-th pivot, and the rows below the last pivot
    vanish in the first ncols columns.
    """
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


def inverse(A):
    """Inverse as a Fraction matrix; raises on singular input."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    if len(eliminate(M, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in M]


def inverse_int(A):
    """Inverse of a unimodular integer matrix, as integers."""
    inv = inverse(A)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def solve(A, b):
    """Solve A x = b exactly; returns Fraction list, raises on singular A."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    if len(eliminate(M, n)) < n:
        raise ValueError("singular matrix")
    return [row[n] for row in M]


def kernel_vector(A):
    """The kernel vector of a square matrix over an exact field (Fraction
    or FieldElement entries) whose kernel is one-dimensional, scaled to 1
    in its free coordinate; raises ValueError for any other kernel
    dimension."""
    n = len(A)
    M = [row[:] for row in A]
    pivots = eliminate(M, n)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"kernel dimension {len(free)}, expected 1")
    c0 = free[0]
    v = [None] * n
    v[c0] = M[0][c0] ** 0  # the field's one
    for r, c in enumerate(pivots):
        v[c] = -M[r][c0]
    return v


def solve_fraction_free(A, b):
    """Integer solution of A x = b up to one denominator: (X, d) with
    A X = d b and d = +-det(A), for integer A and b.

    Bareiss elimination keeps every entry an integer, and the back
    substitution divides exactly because X = +-adj(A) b.  Raises on
    singular A.
    """
    n = len(A)
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    if not _bareiss(M, n):
        raise ValueError("singular matrix")
    d = M[-1][n - 1]
    X = [0] * n
    for k in range(n - 1, -1, -1):
        s = d * M[k][n] - sum(M[k][j] * X[j] for j in range(k + 1, n))
        X[k] = s // M[k][k]
    return X, d


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


def kernel_int(A):
    """Basis of the integer kernel {x : A x = 0}, as a list of columns."""
    H, U = hnf_column(A)
    m = len(A)
    cols = []
    for j in range(len(U)):
        if all(H[i][j] == 0 for i in range(m)):
            cols.append([U[i][j] for i in range(len(U))])
    return cols


def is_primitive(A) -> bool:
    """Primitivity of a nonnegative integer matrix, from the 0/1 pattern
    with rows held as bit masks: square A, A^2, A^4, ... and stop when a
    power is all ones (primitive) or the exponent has reached the Wielandt
    bound n^2 - 2n + 2 (a primitive A is positive from that power on)."""
    n = len(A)
    if any(x < 0 for row in A for x in row):
        raise ValueError("primitivity test needs a nonnegative matrix")
    full, bound, e = (1 << n) - 1, n * n - 2 * n + 2, 1
    X = [sum(1 << j for j, x in enumerate(row) if x) for row in A]
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
