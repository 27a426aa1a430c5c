"""HLT Todd-Coxeter coset enumeration and the general table check, kept
as test oracles.

The normal low-index search in ``fqlab.fpgroup.lowindex`` is the only
coset engine the package ships.  This enumerator shares none of its
logic: it is relator-tracing with immediate coincidence merging and a
fixed definition order (scan the subgroup words at coset 0, then for
each live coset scan every relator, then fill the remaining holes in
column order).  Enumerating the subgroup that a search table's
Schreier generators span must rebuild that table exactly.

A live-coset ceiling and a total-definition budget bound the work;
hitting either raises ``EnumerationUndecided``, never returns a wrong
table.  Returned tables are compressed (no dead cosets) and
standardized (cosets numbered in breadth-first discovery order
scanning columns in order), so equal subgroups give equal tables.

Every table the package builds is of a normal subgroup and certified by
``coset.verify_regular_table``.  ``verify_table`` is the general check
for any subgroup, as Todd-Coxeter, the all-subgroup search and random
actions build them: it traces every relator from every coset and walks
the orbit of coset 0 itself.  ``is_regular`` asks the package's
regularity certificate about a well-formed table.
"""

from collections import deque
from itertools import repeat

from fqlab.fpgroup import free_reduce
from fqlab.fpgroup.coset import CosetTable, letter_to_col
from fqlab.orbit import is_regular_action, orbit


class EnumerationUndecided(Exception):
    """The enumeration hit its coset ceiling or definition budget."""


def verify_table(t):
    """Full check of any coset table, independent of how it was built.

    Complete with one entry per column, every entry an int in range(n);
    column c read at every entry of column c ^ 1 gives each coset back,
    so the columns of a generator are inverse permutations; coset 0
    reaches every coset; and every relator closes from every coset.
    """
    n = t.n_cosets
    if n == 0 or set(map(len, t.rows)) != {t.n_cols}:
        return False
    cols = list(zip(*t.rows))
    if not all(all(map(isinstance, col, repeat(int))) and min(col) >= 0 and max(col) < n for col in cols):
        return False
    cosets = list(range(n))
    if any(list(map(col.__getitem__, cols[c ^ 1])) != cosets for c, col in enumerate(cols)):
        return False
    if len(orbit(0, t.rows.__getitem__)) != n:
        return False
    return all(t.trace(a, r) == a for r in t.pres.relators for a in range(n))


def is_regular(t):
    """Whether a well-formed table is a regular action, by
    ``orbit.is_regular_action`` seeded with the image of coset 0 under
    each generator column."""
    return is_regular_action(t.rows, list(zip(*t.rows)), t.rows[0][::2])


def standardize_rows(rows, base):
    """Relabel cosets in breadth-first discovery order from a base.

    Requires a complete, transitive table; used both to canonicalize
    enumeration output and to compare conjugate subgroups.
    """
    n = len(rows)
    n_cols = len(rows[0])
    number = {base: 0}
    order = [base]
    for a in order:
        for c in range(n_cols):
            b = rows[a][c]
            if b not in number:
                number[b] = len(number)
                order.append(b)
    if len(order) != n:
        raise ValueError("table not transitive")
    out = [[None] * n_cols for _ in range(n)]
    for a in order:
        for c in range(n_cols):
            out[number[a]][c] = number[rows[a][c]]
    return out


class _Enumerator:
    """HLT coset enumeration state."""

    def __init__(self, pres, subgroup_words, max_cosets, define_budget):
        self.n_cols = 2 * pres.n_gens
        self.subgroup_words = subgroup_words
        self.max_cosets = max_cosets
        self.define_budget = define_budget
        self.table = [[None] * self.n_cols]
        self.parent = [0]
        self.alive = 1
        self.defined = 1
        self.queue = deque()
        self.rel_cols = [tuple(letter_to_col(x) for x in r) for r in pres.relators]

    def rep(self, k):
        r = k
        while self.parent[r] != r:
            r = self.parent[r]
        while self.parent[k] != r:
            self.parent[k], k = r, self.parent[k]
        return r

    def define(self, alpha, c):
        if self.alive >= self.max_cosets:
            raise EnumerationUndecided(f"enumeration exceeded {self.max_cosets} live cosets")
        if self.defined >= self.define_budget:
            raise EnumerationUndecided(
                f"enumeration exceeded the {self.define_budget} definition budget"
            )
        beta = len(self.table)
        self.table.append([None] * self.n_cols)
        self.parent.append(beta)
        self.alive += 1
        self.defined += 1
        self.table[alpha][c] = beta
        self.table[beta][c ^ 1] = alpha
        return beta

    def merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        self.alive -= 1
        self.queue.append(b)

    def coincidence(self, a, b):
        self.merge(a, b)
        while self.queue:
            gamma = self.queue.popleft()
            row = self.table[gamma]
            for c in range(self.n_cols):
                delta = row[c]
                if delta is None:
                    continue
                if self.table[delta][c ^ 1] == gamma:
                    self.table[delta][c ^ 1] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if self.table[mu][c] is not None:
                    self.merge(nu, self.table[mu][c])
                elif self.table[nu][c ^ 1] is not None:
                    self.merge(mu, self.table[nu][c ^ 1])
                else:
                    self.table[mu][c] = nu
                    self.table[nu][c ^ 1] = mu

    def scan_and_fill(self, alpha, cols):
        if not cols:
            return
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.rep(self.table[f][cols[i]])
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][cols[j] ^ 1] is not None:
                b = self.rep(self.table[b][cols[j] ^ 1])
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][cols[i] ^ 1] = f
                return
            self.define(f, cols[i])

    def run(self):
        for w in self.subgroup_words:
            self.scan_and_fill(0, tuple(letter_to_col(x) for x in w))
        alpha = 0
        while True:
            while alpha < len(self.table):
                if self.rep(alpha) != alpha:
                    alpha += 1
                    continue
                for cols in self.rel_cols:
                    self.scan_and_fill(alpha, cols)
                    if self.rep(alpha) != alpha:
                        break
                if self.rep(alpha) == alpha:
                    for c in range(self.n_cols):
                        if self.table[alpha][c] is None:
                            self.define(alpha, c)
                alpha += 1
            # coincidence cascades can punch holes in rows already scanned;
            # reprocess from the first such row until none remain
            holed = None
            for a in range(len(self.table)):
                if self.rep(a) == a and any(e is None for e in self.table[a]):
                    holed = a
                    break
            if holed is None:
                break
            alpha = holed
        live = [a for a in range(len(self.table)) if self.rep(a) == a]
        index_of = {old: new for new, old in enumerate(live)}
        rows = [[index_of[self.rep(x)] for x in self.table[old]] for old in live]
        return standardize_rows(rows, 0)


def todd_coxeter(pres, subgroup_words=(), max_cosets=10**4, define_budget=2_000_000):
    """Enumerate cosets of the subgroup generated by the given words.

    Deterministic: same input, same table.  A returned table is
    complete, passes ``verify_table`` and sends every subgroup word
    from coset 0 back to coset 0.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    words = tuple(free_reduce(w) for w in subgroup_words)
    t = CosetTable(pres, _Enumerator(pres, words, max_cosets, define_budget).run())
    if not verify_table(t) or any(t.trace(0, w) != 0 for w in words):
        raise AssertionError("enumeration produced an inconsistent table")
    return t
