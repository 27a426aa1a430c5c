"""Exhaustive search for the normal subgroups of bounded index.

The search builds a partial coset table column-pair by column-pair,
propagating forced entries and backtracking on contradiction.  New
cosets are numbered in order of first use at the row-major first hole,
so every completed table comes out standardized: each subgroup is
reached along exactly one search path.  Pruning uses left
multiplication by each generator and inverse, which must commute with
the coset action; completed tables still get an independent certificate of
regularity and of the relators, so pruning only ever cuts the tree.
Pending branches sit on an explicit stack, so search depth is bounded
by memory, not by the interpreter's recursion limit.  A candidate whose
entry clashes with the left multiplication already known is dropped
before it is pushed; it would have died in propagation without becoming
a node, so node counts and every output are unchanged.

Relator deduction is incremental, as in HLT deduction processing (Sims,
*Computation with Finitely Presented Groups*, ch. 5): every rotation of
every relator is filed under its first column.  An entry and its
inverse, T[a][c] = b and T[b][inv[c]] = a, are set and cleared as one
pair, which scans the rotations starting with c from a and those
starting with inv[c] from b.  A trace changes only when one of its
entries is set, and a rotation scanned from a coset the trace reaches
reads that same trace, so this reaches the fixpoint of scanning every
relator from every coset.  A new coset scans each relator once, which
is all a length-1 relator needs.  The trails keep each pair once and
double as work queues from the node's marks on; backtracking cuts them
back to the marks.  Rows grow by doubling up to ``max_index`` and never
shrink: undoing the trail empties every entry past the live count.
Node budgets cap the work; exceeding one raises with the tables found
so far and how far the search got, never truncates.

A generator x whose relators include x² (spelled ``x^2``, ``x^-2`` or
``x = x^-1``) is an involution in every quotient, so one search column
serves both x and x⁻¹, as in coset enumerators such as Havas and
Ramsay's ACE.  ``inv`` maps each search column to its inverse column,
and an involution's column to itself.  The x² relator is not scanned:
the shared column already implies it.  The search tree is unchanged.
With two columns, the x² scan at a fixpoint fills T[a][x⁻¹] as soon as
T[a][x] is known.  And (a, x) comes before (a, x⁻¹) in row-major
order, so no node ever branched on an involution's inverse column.
Completed tables are expanded back to two columns per generator before
the certificate, which traces every relator, x² included.
"""

from __future__ import annotations

from operator import itemgetter

from ..budgets import search_budget
from ..errors import InternalInvariantError, SearchBudgetError
from .coset import CosetTable, letter_to_col, verify_regular_table
from .presentation import Presentation


def low_index_normal_subgroups(
    pres: Presentation, max_index: int, stats: dict[str, int] | None = None
) -> list[CosetTable]:
    """Every normal subgroup of bounded index, each exactly once.

    A subgroup is normal exactly when left multiplication by each letter
    x, a generator or its inverse, is a well-defined permutation of the
    cosets that commutes with the right action.  So beside the coset
    table T, with T[b][c] the right action of column c, the search keeps
    one row per letter, L[k][b] = x b for the letter x of search column
    k.  Rows k and inv[k] are inverse bijections, paired as T pairs c
    and inv[c], and are written together.  An involution's column has
    one row, itself an involution, since x b = g gives x g = x² b = b.
    Row 0 of T seeds them: T[0][c] = d gives L[c][0] = d.  Since
    x (b c) = (x b) c, in every quotient:

      L[x][b] = g, T[b][c] = d, T[g][c] = e   forces  L[x][d] = e
      L[x][b] = g, T[b][c] = d, L[x][d] = e   forces  T[g][c] = e

    The bijection rule, L[x][b] = g, L[x][d] = e, T[g][c] = e forcing
    T[b][c] = d, is the second rule for x⁻¹ anchored at g.  Each rule
    fills one edge of the square of x at (b, c) from the other three,
    and that square is also the one of x at (d, inv[c]).  So a new T
    pair reads each letter's square once, in three cases: x b and
    T[x b][c] give x d, x b and x d give T[x b][c], and x d and
    T[x d][inv[c]] give x b.  A new L pair x b = g reads the square of
    x at b for every column, which is the square of x⁻¹ at g.

    Contradictions prune the branch.  Propagation drains the new L
    pairs first, then takes the next new T pair: its squares, then its
    relator scans.  Most branches that die, die in a square: at (3,2)
    to 240, 15,005 of 15,769, against 764 in scans, so the L pairs go
    first.  Every rule is monotone and fires from each of its premises,
    so their closure is one fixpoint, or a contradiction, in any order.

    Every completed table is regular.  At completion propagation is at
    a fixpoint and T is complete and connected; the first rule extends
    each L[k] from its seed along every edge of T, so each L[k] is a
    bijection that commutes with every column and sends 0 to T[0][k].
    Their group moves 0 to every coset, so the image's centralizer is
    transitive, and a transitive group with a transitive centralizer is
    regular.  ``complete`` asserts this with ``verify_regular_table``
    on the finished table alone, raising InternalInvariantError.  The
    standardized table of a regular action looks the same from every
    base coset, so each kernel is reached exactly once.

    Tables come back sorted by (index, flat table).  When the node
    budget runs out, the SearchBudgetError carries the tables completed
    so far, in the same order, as ``partial``.  Given a ``stats`` dict,
    a completed search sets ``stats["nodes"]`` to the nodes it visited,
    the smallest node budget under which it completes, and
    ``stats["branches"]`` to the branches it popped: those that
    ``candidates`` did not refute at the branch point.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    budget = search_budget()
    # scol maps table columns to search columns; inv pairs search columns
    squares = {r for r in pres.relators if len(r) == 2 and r[0] == r[1]}
    scol: list[int] = []
    inv: list[int] = []
    for x in range(1, pres.n_gens + 1):
        c = len(inv)
        if (x, x) in squares or (-x, -x) in squares:
            scol += [c, c]
            inv.append(c)
        else:
            scol += [c, c + 1]
            inv += [c + 1, c]
    n_cols = len(inv)
    expand = itemgetter(*scol)
    rel_cols = [tuple(scol[letter_to_col(x)] for x in r) for r in pres.relators if r not in squares]
    rotations: list[list[tuple[int, ...]]] = [[] for _ in range(n_cols)]
    for rot in dict.fromkeys(cols[k:] + cols[:k] for cols in rel_cols for k in range(len(cols))):
        rotations[rot[0]].append(rot)
    # rows up to the capacity len(table), of which the first n are live
    table: list[list[int | None]] = []
    lrows: list[list[int | None]] = [[] for _ in range(n_cols)]
    trail: list[tuple[int, int]] = []
    ltrail: list[tuple[int, int]] = []
    n = peak = 0
    found: list[CosetTable] = []

    def set_entry(a: int, c: int, b: int) -> bool:
        """Record the pair T[a][c] = b, T[b][inv[c]] = a, trailed once as
        (a, c); False on clash.  Every caller has just read table[a][c]
        as None, and halves are set and cleared together, so a set
        table[b][inv[c]] is a clash.  An involution's fixed point is one
        entry, written twice."""
        row = table[b]
        c1 = inv[c]
        if row[c1] is not None:
            return False
        table[a][c] = b
        row[c1] = a
        trail.append((a, c))
        return True

    def scan_relator(alpha: int, cols) -> bool:
        """Trace one relator from one coset, deducing across a 1-gap;
        False on a closed trace landing wrong or overlapping scans."""
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
            prv = table[b][inv[cols[j]]]
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

    def set_lam(k: int, b: int, g: int) -> bool:
        """Record x b = g and x⁻¹ g = b for the letter x of column k; False on clash."""
        row, back = lrows[k], lrows[inv[k]]
        cur = row[b]
        if cur is not None:
            return cur == g
        if back[g] is not None:
            return False
        row[b] = g
        back[g] = b
        ltrail.append((k, b))
        return True

    def add_coset() -> bool:
        nonlocal n, peak
        if n == len(table):
            cap = min(2 * n or 1, max_index)
            for row in lrows:
                row.extend([None] * (cap - n))
            table.extend([None] * n_cols for _ in range(cap - n))
        n += 1
        peak = max(peak, n)
        return all(scan_relator(n - 1, r) for r in rel_cols)

    def propagate(t_at: int, l_at: int) -> bool:
        """Close T and L from the trail marks on; False on a contradiction."""
        while True:
            while l_at < len(ltrail):
                k, b = ltrail[l_at]
                l_at += 1
                row, back = lrows[k], lrows[inv[k]]
                g = row[b]
                tb, tg = table[b], table[g]
                for c in range(n_cols):
                    d = tb[c]
                    e = tg[c]
                    if d is not None:
                        if e is not None:
                            if row[d] != e and not set_lam(k, d, e):
                                return False
                        else:
                            e = row[d]
                            if e is not None and not set_entry(g, c, e):
                                return False
                    elif e is not None:
                        d = back[e]
                        if d is not None and not set_entry(b, c, d):
                            return False
            if t_at == len(trail):
                return True
            a, c = trail[t_at]
            t_at += 1
            b = table[a][c]
            c1 = inv[c]
            # either half at row 0 seeds L; then each letter's square at (a, c)
            if a == 0 and not set_lam(c, 0, b) or b == 0 and not set_lam(c1, 0, a):
                return False
            for k, row in enumerate(lrows):
                g = row[a]
                e = row[b]
                if g is not None:
                    f = table[g][c]
                    if f is not None:
                        if e != f and not set_lam(k, b, f):
                            return False
                    elif e is not None and not set_entry(g, c, e):
                        return False
                elif e is not None:
                    g = table[e][c1]
                    if g is not None and not set_lam(k, a, g):
                        return False
            for cols in rotations[c]:
                if not scan_relator(a, cols):
                    return False
            if b != a or c1 != c:
                for cols in rotations[c1]:
                    if not scan_relator(b, cols):
                        return False

    def undo_to(mark: int, lmark: int, n_keep: int) -> None:
        nonlocal n
        for a, c in trail[mark:]:
            row = table[a]
            table[row[c]][inv[c]] = None
            row[c] = None
        del trail[mark:]
        for k, b in ltrail[lmark:]:
            lrows[inv[k]][lrows[k][b]] = None
            lrows[k][b] = None
        del ltrail[lmark:]
        n = n_keep

    def candidates(a: int, c: int) -> list[int]:
        """The old cosets b that the branch T[a][c] = b does not refute.

        Each letter x commutes with the action, so T[a][c] = b forces
        T[x a][c] = x b where x a and x b are both known: the second rule
        for x.  At a node propagation is at a fixpoint with T[a][c] open,
        so that entry is not already set, or the second rule for x⁻¹,
        anchored at x a, would have set T[a][c] = b.  With c1 = inv[c],
        the inverse column, or c itself for an involution, a set
        T[x a][c] or T[x b][c1] is a clash that the new pair's square
        for x would hit, in ``set_lam`` or ``set_entry``.  The branch
        would die in ``propagate`` before becoming a node, so dropping it
        here leaves the tree, and every count but popped branches, as it
        was.  A new coset has no L entries: the grow branch always stays.

        The scan starts at row a: (a, c) is the first hole, so every row
        b < a is complete and its set T[b][c1] drops it anyway.  When
        T[x a][c] is set, every b with x b known clashes, so that letter
        keeps the b with x b unknown without reading T.
        """
        c1 = inv[c]
        live = [b for b in range(a, n) if table[b][c1] is None]
        for row in lrows:
            g = row[a]
            if g is not None:
                if table[g][c] is None:
                    live = [b for b in live if row[b] is None or table[row[b]][c1] is None]
                else:
                    live = [b for b in live if row[b] is None]
        return live

    def first_hole(start: int) -> tuple[int, int] | None:
        return next(((a, table[a].index(None)) for a in range(start, n) if None in table[a]), None)

    def complete() -> None:
        t = CosetTable(pres, [list(expand(row)) for row in table[:n]])
        if not verify_regular_table(t):
            raise InternalInvariantError("search completed a table that is not a regular quotient")
        found.append(t)

    def search() -> None:
        nodes = branches = a = 0
        # branches (a, c, b, marks of the node they leave from); trying
        # them in pop order visits the tree depth-first, candidates in
        # increasing b with the grow branch b = n last
        pending: list[tuple[int, int, int, tuple[int, int, int]]] = []
        ok = add_coset() and propagate(0, 0)
        while True:
            if ok:
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetError(
                        f"search exceeded the {budget} node budget after "
                        f"{len(found)} tables, at most {peak} live cosets"
                    )
                # along a path holes only move forward, so start at row a
                hole = first_hole(a)
                if hole is None:
                    complete()
                else:
                    a, c = hole
                    marks = (len(trail), len(ltrail), n)
                    if n < max_index:
                        pending.append((a, c, n, marks))
                    for b in reversed(candidates(a, c)):
                        pending.append((a, c, b, marks))
            if not pending:
                if stats is not None:
                    stats["nodes"] = nodes
                    stats["branches"] = branches
                return
            branches += 1
            a, c, b, (mark, lmark, n_keep) = pending.pop()
            undo_to(mark, lmark, n_keep)
            ok = (b < n or add_coset()) and set_entry(a, c, b) and propagate(mark, lmark)

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
