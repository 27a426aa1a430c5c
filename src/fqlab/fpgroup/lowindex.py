"""Exhaustive search for the normal subgroups of bounded index.

The search builds a partial coset table column-pair by column-pair,
propagating forced entries from relator traces and backtracking on
contradiction.  New cosets are numbered in order of first use at the
row-major first hole, so every completed table comes out standardized:
each subgroup is reached along exactly one search path.  Pruning uses a
left-multiplication table that must extend to a consistent quotient
multiplication; completed tables still get an independent certificate
check and regularity check, so the pruning only ever cuts the tree,
never decides membership.  The descent keeps its pending branches on an
explicit stack, so search depth is bounded by memory, not by the
interpreter's recursion limit.

Node budgets cap the work; exceeding one raises with the tables found
so far, never truncates.
"""

from __future__ import annotations

from collections import deque

from ..budgets import search_budget
from ..errors import InternalInvariantError, SearchBudgetError
from .coset import CosetTable, letter_to_col, verify_table
from .presentation import Presentation


def low_index_normal_subgroups(
    pres: Presentation, max_index: int, node_budget: int | None = None
) -> list[CosetTable]:
    """Every normal subgroup of bounded index, each exactly once.

    The action on cosets of a normal subgroup is the regular action of
    the quotient, so alongside the coset table T the search keeps the
    quotient's left-multiplication table L, with L[a][b] the product of
    cosets a and b.  Writing T[b][c] for the right action of column c,
    associativity of a * (b * letter(c)) gives two closure rules:

      L[a][b] = g, T[b][c] = d, T[g][c] = e   forces  L[a][d] = e
      L[a][b] = g, T[b][c] = d, L[a][d] = e   forces  T[g][c] = e

    and since each L[a] is a bijection, knowing L[a][b] = g and the
    product L[a][d] = e of the yet-unknown d = T[b][c] pins d down.
    Contradictions prune the branch.  A completed table is accepted on
    an independent check that its image acts regularly; the standard-
    ized table of a regular action looks the same from every base
    coset, so each kernel is reached exactly once and no deduplication
    is needed.

    Tables come back sorted by (index, flat table).  When the node
    budget runs out, the SearchBudgetError carries the tables completed
    so far, in the same order, as ``partial``.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    budget = search_budget() if node_budget is None else node_budget
    n_cols = 2 * pres.n_gens
    rel_cols = [tuple(letter_to_col(x) for x in r) for r in pres.relators]
    table: list[list[int | None]] = [[None] * n_cols]
    trail: list[tuple[int, int]] = []
    t_queue: deque[tuple[int, int]] = deque()
    lam: list[list[int | None]] = [[0]]
    lam_inv: list[list[int | None]] = [[0]]
    ltrail: list[tuple[int, int]] = []
    l_queue: deque[tuple[int, int]] = deque()
    found: list[CosetTable] = []

    def set_entry(a: int, c: int, b: int) -> bool:
        """Record coset a going to b under column c; False on clash."""
        cur = table[a][c]
        if cur is not None:
            return cur == b
        back = table[b][c ^ 1]
        if back is not None and back != a:
            return False
        table[a][c] = b
        trail.append((a, c))
        t_queue.append((a, c))
        if back is None:
            table[b][c ^ 1] = a
            trail.append((b, c ^ 1))
            t_queue.append((b, c ^ 1))
        return True

    def scan_relator(alpha: int, cols) -> bool:
        """Trace one relator from one coset, deducing across a 1-gap.

        False on a forced contradiction (closed trace landing wrong, or
        forward and backward scans overlapping on distinct cosets).
        """
        f, i = alpha, 0
        j = len(cols) - 1
        while i <= j:
            nxt = table[f][cols[i]]
            if nxt is None:
                break
            f = nxt
            i += 1
        if i > j:
            return f == alpha
        b = alpha
        while j >= i:
            prv = table[b][cols[j] ^ 1]
            if prv is None:
                break
            b = prv
            j -= 1
        if j < i:
            # both scans consumed position i on different edges, so the
            # trace is complete but lands on two distinct cosets
            return False
        if j == i:
            return set_entry(f, cols[i], b)
        return True

    def relator_fixpoint() -> bool:
        while True:
            before = len(trail)
            for a in range(len(table)):
                for cols in rel_cols:
                    if not scan_relator(a, cols):
                        return False
            if len(trail) == before:
                return True

    def set_lam(a: int, b: int, g: int) -> bool:
        cur = lam[a][b]
        if cur is not None:
            return cur == g
        if lam_inv[a][g] is not None and lam_inv[a][g] != b:
            return False
        lam[a][b] = g
        lam_inv[a][g] = b
        ltrail.append((a, b))
        l_queue.append((a, b))
        return True

    def add_coset() -> bool:
        g = len(table)
        table.append([None] * n_cols)
        for row, inv_row in zip(lam, lam_inv):
            row.append(None)
            inv_row.append(None)
        lam.append([None] * (g + 1))
        lam_inv.append([None] * (g + 1))
        # left and right multiplication by the identity coset
        return set_lam(g, 0, g) and set_lam(0, g, g)

    def fire_t(b: int, c: int, d: int) -> bool:
        # new action entry T[b][c] = d, in both premise roles
        for a in range(len(table)):
            g = lam[a][b]
            if g is not None:
                e = table[g][c]
                if e is not None:
                    if not set_lam(a, d, e):
                        return False
                else:
                    e = lam[a][d]
                    if e is not None and not set_entry(g, c, e):
                        return False
            # same entry in the T[g][c] = e role: here g := b, e := d
            bb = lam_inv[a][b]
            if bb is not None:
                dd = table[bb][c]
                if dd is not None:
                    if not set_lam(a, dd, d):
                        return False
                else:
                    dd = lam_inv[a][d]
                    if dd is not None and not set_entry(bb, c, dd):
                        return False
        return True

    def fire_l(a: int, b: int) -> bool:
        # new product entry L[a][b] = g, as the rule's anchor
        g = lam[a][b]
        for c in range(n_cols):
            d = table[b][c]
            e = table[g][c]
            if d is not None:
                if e is not None:
                    if not set_lam(a, d, e):
                        return False
                else:
                    e = lam[a][d]
                    if e is not None and not set_entry(g, c, e):
                        return False
            elif e is not None:
                d = lam_inv[a][e]
                if d is not None and not set_entry(b, c, d):
                    return False
        return True

    def propagate() -> bool:
        """Close T and L under the rules; False on a contradiction."""
        while True:
            while t_queue or l_queue:
                if t_queue:
                    a, c = t_queue.popleft()
                    if not fire_t(a, c, table[a][c]):
                        return False
                else:
                    a, b = l_queue.popleft()
                    if not fire_l(a, b):
                        return False
            before = len(trail)
            if not relator_fixpoint():
                return False
            if len(trail) == before and not t_queue and not l_queue:
                return True

    def undo_to(mark: int, lmark: int, n_keep: int) -> None:
        # a branch that failed may have left entries queued
        t_queue.clear()
        l_queue.clear()
        while len(trail) > mark:
            a, c = trail.pop()
            table[a][c] = None
        while len(ltrail) > lmark:
            a, b = ltrail.pop()
            g = lam[a][b]
            lam[a][b] = None
            lam_inv[a][g] = None
        if len(table) > n_keep:
            del table[n_keep:]
            del lam[n_keep:]
            del lam_inv[n_keep:]
            for row, inv_row in zip(lam, lam_inv):
                del row[n_keep:]
                del inv_row[n_keep:]

    def first_hole() -> tuple[int, int] | None:
        for a, row in enumerate(table):
            for c in range(n_cols):
                if row[c] is None:
                    return a, c
        return None

    def complete() -> None:
        t = CosetTable(pres, (), [list(row) for row in table])
        if not verify_table(t):
            raise InternalInvariantError("search completed an inconsistent table")
        if t.image_group().order == t.n_cosets:
            found.append(t)

    def search() -> None:
        nodes = 0
        # branches (a, c, b, marks of the node they leave from); trying
        # them in pop order visits the tree depth-first, candidates in
        # increasing b with the grow branch b = len(table) last
        pending: list[tuple[int, int, int, tuple[int, int, int]]] = []
        ok = propagate()
        while True:
            if ok:
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetError(f"search exceeded the {budget} node budget")
                hole = first_hole()
                if hole is None:
                    complete()
                else:
                    a, c = hole
                    n = len(table)
                    marks = (len(trail), len(ltrail), n)
                    if n < max_index:
                        pending.append((a, c, n, marks))
                    for b in reversed(range(n)):
                        if table[b][c ^ 1] is None:
                            pending.append((a, c, b, marks))
            if not pending:
                return
            a, c, b, marks = pending.pop()
            undo_to(*marks)
            ok = (b < len(table) or add_coset()) and set_entry(a, c, b) and propagate()

    def in_order() -> list[CosetTable]:
        out = sorted(found, key=lambda t: (t.n_cosets, t.flat()))
        if len({t.flat() for t in out}) != len(out):
            raise InternalInvariantError("search emitted a duplicate table")
        return out

    try:
        search()
    except SearchBudgetError as err:
        err.partial = in_order()
        raise
    return in_order()
