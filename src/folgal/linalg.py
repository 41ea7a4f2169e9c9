"""Exact dense linear algebra over a coefficient field: Q or a number-field
layer.

Matrices are lists of row lists whose entries are scalars of one field
(Fraction over Q, FieldElement over a layer).  Scalars are made by the
field's own ``zero()`` and ``one()`` and inverted by
:func:`folgal.numberfield.invert`, so no function here asks which field it
has.  The products :func:`mat_vec` and :func:`mat_mul` use only ``+`` and
``*``, so a vector may also hold polynomials.
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


def kernel_basis(matrix: list[list], field) -> list[list]:
    """Basis of the right kernel of ``matrix``."""
    if not matrix:
        raise ValueError("empty matrix has ambiguous width")
    ncols = len(matrix[0])
    rows, pivots = rref(matrix, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _dot(row, vec):
    acc = row[0] * vec[0]
    for a, b in zip(row[1:], vec[1:]):
        acc = acc + a * b
    return acc


def mat_vec(matrix: list[list], vec: list) -> list:
    """The product ``matrix * vec`` of a matrix and a column vector."""
    return [_dot(row, vec) for row in matrix]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    """The matrix product ``a * b``."""
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]
