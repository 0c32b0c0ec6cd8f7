"""Exact linear algebra over the integers and rationals.

Matrices are lists of row lists.  Sizes here are tiny (dimension at most
8 or so), so the algorithms favour exactness and clarity: Bareiss for
integer determinants, Gauss-Jordan over Fractions for inverses, Newton's
identities for characteristic polynomials, and a column-style Hermite
normal form that also returns the unimodular transform, which is what
the lattice routines build on.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .polynomials import IntPoly


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int):
    return [[0] * n for _ in range(m)]


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
    """Exact determinant; integer matrices stay in integer arithmetic."""
    n = len(A)
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in A for x in row):
        M = [row[:] for row in A]
        return _bareiss(M, n) * M[-1][-1]
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    out = Fraction(sign)
    for k in range(n):
        out *= M[k][k]
    return out


def inverse(A):
    """Inverse as a Fraction matrix; raises on singular input."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        M[k], M[piv] = M[piv], M[k]
        pv = M[k][k]
        M[k] = [x / pv for x in M[k]]
        for i in range(n):
            if i != k and M[i][k]:
                f = M[i][k]
                M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return [row[n:] for row in M]


def inverse_int(A):
    """Inverse of a unimodular integer matrix, as integers."""
    inv = inverse(A)
    out = []
    for row in inv:
        r = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            r.append(int(x))
        out.append(r)
    return out


def solve(A, b):
    """Solve A x = b exactly; returns Fraction list, raises on singular A."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            if M[i][k]:
                f = M[i][k] / M[k][k]
                M[i] = [a - f * c for a, c in zip(M[i], M[k])]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = M[k][n] - sum(M[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / M[k][k]
    return x


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

    Newton's identities on power-sum traces, over Fractions; raises
    ValueError if a coefficient is not an integer.
    """
    n = len(A)
    traces = []
    P = identity(n)
    for _ in range(n):
        P = mat_mul(P, A)
        traces.append(sum(P[i][i] for i in range(n)))
    e = [Fraction(1)]
    for k in range(1, n + 1):
        s = Fraction(0)
        for i in range(1, k + 1):
            s += (-1) ** (i - 1) * e[k - i] * traces[i - 1]
        e.append(s / k)
    coeffs = [(-1) ** k * e[k] for k in range(n, -1, -1)]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("characteristic polynomial is not integral: matrix is not integer")
    return IntPoly(int(c) for c in coeffs)


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


def rank_int(A) -> int:
    H, _ = hnf_column(A)
    m = len(A)
    n = len(A[0]) if m else 0
    return sum(1 for j in range(n) if any(H[i][j] for i in range(m)))


def is_primitive(A) -> bool:
    """Primitivity of a nonnegative integer matrix (Wielandt bound)."""
    n = len(A)
    if any(x < 0 for row in A for x in row):
        raise ValueError("primitivity test needs a nonnegative matrix")
    B = [[1 if x else 0 for x in row] for row in A]
    k = n * n - 2 * n + 2
    out = identity(n)
    base = B
    while k:
        if k & 1:
            out = _bool_mul(out, base)
        k >>= 1
        if k:
            base = _bool_mul(base, base)
    return all(all(row) for row in out)


def _bool_mul(A, B):
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for t in range(n):
            if A[i][t]:
                Bt = B[t]
                row = out[i]
                for j in range(n):
                    if Bt[j]:
                        row[j] = 1
    return out


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
