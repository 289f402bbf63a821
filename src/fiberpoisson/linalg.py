"""Exact linear algebra over the rationals (dense, small matrices)."""

from fractions import Fraction


def _copy(M):
    return [[Fraction(x) for x in row] for row in M]


def rref(M):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    A = _copy(M)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if A[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = Fraction(1) / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def rank(M):
    if not M:
        return 0
    return len(rref(M)[1])


def invert(M):
    """Exact inverse of a square rational matrix; raises ValueError if singular."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(M)]
    R, pivots = rref(A)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over the rationals")
    return [row[n:] for row in R]

