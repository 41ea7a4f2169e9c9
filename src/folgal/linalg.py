"""Exact dense linear algebra over a coefficient field: Q or a number-field
layer.

Matrices are lists of row lists whose entries are scalars of one field
(Fraction over Q, FieldElement over a layer).  Scalars are made by the
field's own ``zero()`` and ``one()``, and a pivot is inverted as
``field.one() / pivot``.  The one question asked of the field is whether it
is Q: there :func:`rref` eliminates over the integers, by
:func:`integer_echelon`, which :mod:`folgal.numberfield` also solves with.
This module imports no other part of folgal.  The products :func:`mat_vec`
and :func:`mat_mul` use only ``+`` and ``*``, so a vector may also hold
polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def integer_echelon(rows: list[list[int]]):
    """``(rows, pivots)``: the reduced row echelon form of the integer
    matrix ``rows`` up to one nonzero factor per row.

    Gauss-Jordan elimination without division: a row ``b`` loses its entry
    in the pivot column of the pivot row ``a`` as ``(a_c/g) b - (b_c/g) a``
    with ``g = gcd(a_c, b_c)``, and is then divided by its content, so every
    row stays primitive and its entries stay small.  Row ``i`` divided by
    its entry in column ``pivots[i]`` is row ``i`` of the reduced echelon
    form over Q; the zero rows come last.
    """
    rows = [_primitive(list(r)) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        a = top[c]
        for i, row in enumerate(rows):
            b = row[c]
            if b and i != r:
                g = gcd(a, b)
                s, t = a // g, b // g
                rows[i] = _primitive([s * x - t * y for x, y in zip(row, top)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return row if g in (0, 1) else [x // g for x in row]


def rref(matrix: list[list], field):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Over Q, the one field with no layers, the matrix goes through
    :func:`integer_echelon`: each row is cleared to integers, and each
    pivot row is divided by its pivot once at the end.  Over a layer it is
    eliminated in the field.  The reduced echelon form is unique, so the
    two routes cannot differ.
    """
    if not field.chain():
        return _rref_rational(matrix)
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
        inv = field.one() / rows[r][c]
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


def _rref_rational(matrix: list[list]):
    """:func:`rref` over Q of a matrix of ints and Fractions, by
    :func:`integer_echelon`."""
    cleared = []
    for row in matrix:
        den = lcm(*(v.denominator for v in row))
        cleared.append([v.numerator * (den // v.denominator) for v in row])
    rows, pivots = integer_echelon(cleared)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    out += [[Fraction(0)] * len(row) for row in rows[len(pivots):]]
    return out, pivots


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


def lll(basis: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis, with ``delta = 3/4``, of the lattice spanned by the
    linearly independent integer rows ``basis``.

    Cohen's integral LLL (*A Course in Computational Algebraic Number
    Theory*, 2.6.7): the Gram-Schmidt data are kept as the integers
    ``d_i``, the Gram determinants of the first ``i`` rows, and
    ``l[k][j] = d_(j+1) mu_kj``, so every division below is exact and no
    rational or float arises.  The first row of the result is at most
    ``2^((n-1)/2)`` times as long as a shortest nonzero vector.
    """
    b = [list(row) for row in basis]
    n = len(b)
    if n < 2:
        return b
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))
    # d[i] is d_i, the Gram determinant of rows 0 .. i-1; d[0] = 1
    d = [1, dot(b[0], b[0])] + [0] * (n - 1)
    l = [[0] * n for _ in range(n)]

    def reduce(k, j):
        if 2 * abs(l[k][j]) > d[j + 1]:
            q = (2 * l[k][j] + d[j + 1]) // (2 * d[j + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            l[k][j] -= q * d[j + 1]
            for i in range(j):
                l[k][i] -= q * l[j][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            l[k][j], l[k - 1][j] = l[k - 1][j], l[k][j]
        lam = l[k][k - 1]
        big = (d[k - 1] * d[k + 1] + lam * lam) // d[k]
        for i in range(k + 1, top + 1):
            t = l[i][k]
            l[i][k] = (d[k + 1] * l[i][k - 1] - lam * t) // d[k]
            l[i][k - 1] = (big * t + lam * l[i][k]) // d[k + 1]
        d[k] = big

    k, top = 1, 0
    while k < n:
        if k > top:
            top = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - l[k][i] * l[j][i]) // d[i]
                if j < k:
                    l[k][j] = u
                elif u == 0:
                    raise ValueError("rows are linearly dependent")
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        # Lovasz: d_(k+1) d_(k-1) >= (3/4) d_k^2 - l_(k,k-1)^2, times 4
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * l[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return b
