"""Exact dense linear algebra over Q or a number-field layer.

Matrices are lists of row lists whose entries share one coefficient field
(Fraction over Q, FieldElement over an extension).
"""

from __future__ import annotations

from .numberfield import invert


def rref(matrix: list[list], field):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = invert(field, rows[r][c])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: list[list], field) -> int:
    return len(rref(matrix, field)[1])


def kernel_basis(matrix: list[list], field, zero, one) -> list[list]:
    """Basis of the right kernel of ``matrix``."""
    if not matrix:
        raise ValueError("empty matrix has ambiguous width")
    ncols = len(matrix[0])
    rows, pivots = rref(matrix, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis
