"""Integer Smith normal form with retained, verified transforms.

All arithmetic is arbitrary-precision Python integers, so intermediate
growth can never overflow.  The diagonalization keeps the row and
column transforms and multiplies them back against the input before
returning; a mismatch is an internal bug, not a user error.

``invariants`` follows the cokernel convention: one entry per input
column, nonzero entries first satisfying the divisibility chain, then a
zero for each free factor, so a presentation matrix (relators as rows,
generators as columns) yields the abelian invariants of the quotient
directly.
"""

from __future__ import annotations

from ..errors import InternalInvariantError

Matrix = list[list[int]]


def _as_matrix(rows) -> Matrix:
    out = [[int(x) for x in row] for row in rows]
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    return out


def _identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


class SmithForm:
    """Diagonalization result: invariant factors and the transforms.

    row_transform * input * col_transform equals the diagonal matrix
    whose diagonal is ``invariants`` truncated to min(rows, cols); both
    transforms are unimodular.
    """

    def __init__(
        self,
        invariants: tuple[int, ...],
        row_transform: tuple[tuple[int, ...], ...],
        col_transform: tuple[tuple[int, ...], ...],
        input_shape: tuple[int, int],
    ) -> None:
        self.invariants = invariants
        self.row_transform = row_transform
        self.col_transform = col_transform
        self.input_shape = input_shape
        nz = [d for d in self.invariants if d != 0]
        if any(d < 0 for d in self.invariants):
            raise ValueError("invariants must be nonnegative")
        for a, b in zip(nz, nz[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain broken: {a} then {b}")
        if list(self.invariants) != nz + [0] * (len(self.invariants) - len(nz)):
            raise ValueError("zero invariants must come last")
        if len(self.invariants) != self.input_shape[1]:
            raise ValueError("need one invariant per input column")


def smith_normal_form(rows, n_cols: int | None = None) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivot rule: smallest nonzero absolute value in the remaining block,
    ties broken by lowest row then lowest column index.  The transforms
    are accumulated and the product is re-checked against the input.
    ``n_cols`` is only needed when there are no rows at all.
    """
    a = _as_matrix(rows)
    m = len(a)
    n = len(a[0]) if a else (n_cols or 0)
    if a and n_cols is not None and n != n_cols:
        raise ValueError(f"matrix has {n} columns, caller said {n_cols}")
    original = [row[:] for row in a]
    u = _identity(m)
    v = _identity(n)

    def row_op(i, j, q):
        # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for t in range(n):
            ai[t] -= q * aj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            ui[t] -= q * uj[t]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    k = 0
    limit = min(m, n)
    while k < limit:
        pivot = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        dirty = False
        for i in range(k + 1, m):
            if a[i][k]:
                q = a[i][k] // a[k][k]
                row_op(i, k, q)
                if a[i][k]:
                    dirty = True  # remainder left; re-pick a smaller pivot
        for j in range(k + 1, n):
            if a[k][j]:
                q = a[k][j] // a[k][k]
                col_op(j, k, q)
                if a[k][j]:
                    dirty = True
        if dirty:
            continue
        # block is clean; enforce divisibility into the remaining block
        offender = None
        d = a[k][k]
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if a[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(k, offender, -1)  # pulls the offending row into row k
            continue
        if a[k][k] < 0:
            row_op(k, k, 2)  # negate the row: r -= 2r
        k += 1

    diag = [a[i][i] for i in range(limit)]
    invariants = tuple(diag) + (0,) * (n - limit)
    form = SmithForm(
        invariants,
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
        (m, n),
    )
    check = _matmul(_matmul(u, original), v)
    for i in range(m):
        for j in range(n):
            want = diag[i] if i == j and i < limit else 0
            if check[i][j] != want:
                raise InternalInvariantError("transform product mismatch")
    return form


def null_column_witness(form: SmithForm) -> tuple[int, ...] | None:
    """A column of the col transform annihilated by the input matrix.

    For a presentation matrix this is a surjection onto the integers:
    the column is part of a unimodular matrix, so its entries have
    gcd 1.  None when the cokernel is finite.
    """
    n = form.input_shape[1]
    for j in range(n):
        if form.invariants[j] == 0:
            return tuple(form.col_transform[i][j] for i in range(n))
    return None
