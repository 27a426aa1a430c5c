"""Coset tables: enumeration, verification, and subgroup rewriting.

A table row holds one coset's images under every generator and inverse:
generator i acts through column 2i, its inverse through column 2i+1.
Tables returned by enumeration are compressed (no dead cosets) and
standardized (cosets numbered in breadth-first discovery order scanning
columns in order), so equal subgroups give byte-equal tables.

Enumeration is relator-tracing with immediate coincidence merging and a
fixed definition order: scan the subgroup words at coset 0, then for
each live coset scan every relator, then fill the remaining holes in
column order.  A live-coset ceiling and a total-definition budget bound
the work; hitting either raises, never returns a wrong table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..budgets import coset_budget
from ..errors import EnumerationUndecided, InternalInvariantError
from ..permgroup import Perm, PermGroup, close
from .presentation import Presentation, Word, free_reduce, invert_word, word_exponents

Row = list


def letter_to_col(x: int) -> int:
    return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1


def col_to_letter(c: int) -> int:
    return c // 2 + 1 if c % 2 == 0 else -(c // 2 + 1)


@dataclass
class CosetTable:
    """A complete or partial coset action of a presentation."""

    pres: Presentation
    subgroup_words: tuple[Word, ...]
    rows: list[Row] = field(default_factory=list)

    @property
    def n_cosets(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return 2 * self.pres.n_gens

    @property
    def complete(self) -> bool:
        return all(e is not None for row in self.rows for e in row)

    def trace(self, coset: int, word: Word) -> int | None:
        """Coset reached by applying the word; None on a hole."""
        for x in word:
            coset = self.rows[coset][letter_to_col(x)]
            if coset is None:
                return None
        return coset

    def column_perm(self, gen: int) -> Perm:
        return tuple(self.rows[a][2 * gen] for a in range(self.n_cosets))

    def image_group(self) -> PermGroup:
        """Permutation group generated by the generator columns."""
        if not self.complete:
            raise ValueError("table is not complete")
        return close(
            tuple(self.column_perm(i) for i in range(self.pres.n_gens)),
            self.n_cosets,
        )

    def flat(self) -> tuple[int, ...]:
        return tuple(e for row in self.rows for e in row)


def verify_table(t: CosetTable) -> bool:
    """Full certificate check, independent of how the table was built.

    Complete, inverse-paired, transitive, every relator closes from
    every coset, every subgroup word closes from coset 0.
    """
    n = t.n_cosets
    if n == 0 or not t.complete:
        return False
    for a in range(n):
        for c in range(t.n_cols):
            b = t.rows[a][c]
            if not isinstance(b, int) or not 0 <= b < n:
                return False
            if t.rows[b][c ^ 1] != a:
                return False
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for c in range(t.n_cols):
            b = t.rows[a][c]
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    if len(seen) != n:
        return False
    for r in t.pres.relators:
        for a in range(n):
            if t.trace(a, r) != a:
                return False
    for w in t.subgroup_words:
        if t.trace(0, w) != 0:
            return False
    return True


def standardize_rows(rows: list[Row], base: int) -> list[Row]:
    """Relabel cosets in breadth-first discovery order from a base.

    Requires a complete, transitive table; used both to canonicalize
    search output and to compare conjugate subgroups.
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

    def __init__(self, pres: Presentation, subgroup_words, max_cosets: int, define_budget: int):
        self.pres = pres
        self.n_cols = 2 * pres.n_gens
        self.subgroup_words = tuple(free_reduce(w) for w in subgroup_words)
        self.max_cosets = max_cosets
        self.define_budget = define_budget
        self.table: list[Row] = [[None] * self.n_cols]
        self.parent = [0]
        self.alive = 1
        self.defined = 1
        self.queue: deque[int] = deque()
        self.rel_cols = [tuple(letter_to_col(x) for x in r) for r in pres.relators]

    def rep(self, k: int) -> int:
        r = k
        while self.parent[r] != r:
            r = self.parent[r]
        while self.parent[k] != r:
            self.parent[k], k = r, self.parent[k]
        return r

    def define(self, alpha: int, c: int) -> int:
        if self.alive >= self.max_cosets:
            raise EnumerationUndecided(
                f"enumeration exceeded {self.max_cosets} live cosets"
            )
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

    def merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        self.alive -= 1
        self.queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
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

    def scan_and_fill(self, alpha: int, cols: tuple[int, ...]) -> None:
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

    def run(self) -> list[Row]:
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
        rows = []
        index_of = {}
        for new, old in enumerate(live):
            index_of[old] = new
        for old in live:
            rows.append([index_of[self.rep(x)] for x in self.table[old]])
        return standardize_rows(rows, 0)


def todd_coxeter(
    pres: Presentation,
    subgroup_words=(),
    max_cosets: int = 10**4,
    define_budget: int | None = None,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Deterministic HLT: same input, same table.  Raises when the live
    coset ceiling or the definition budget is hit; a returned table is
    always complete and verified.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    budget = coset_budget() if define_budget is None else define_budget
    enum = _Enumerator(pres, subgroup_words, max_cosets, budget)
    rows = enum.run()
    t = CosetTable(pres, tuple(free_reduce(w) for w in subgroup_words), rows)
    if not verify_table(t):
        raise InternalInvariantError("enumeration produced an inconsistent table")
    return t


def index_two_subgroups(pres: Presentation) -> list[CosetTable]:
    """All index-2 subgroups, via surjections onto the 2-element group.

    Each corresponds to a nonzero vector in the mod-2 nullspace of the
    relator exponent matrix; there are 2^r - 1 of them where r is that
    nullspace's dimension.  Tables are built directly and verified.
    """
    n = pres.n_gens
    rows_mod2 = []
    for r in pres.relators:
        bits = 0
        for j, e in enumerate(word_exponents(r, n)):
            if e % 2:
                bits |= 1 << j
        if bits:
            rows_mod2.append(bits)
    # Gaussian elimination over GF(2) on bitmask rows
    pivots = {}
    for bits in rows_mod2:
        while bits:
            low = bits & -bits
            if low in pivots:
                bits ^= pivots[low]
            else:
                pivots[low] = bits
                break
    pivot_cols = {p.bit_length() - 1 for p in pivots}
    free_cols = [j for j in range(n) if j not in pivot_cols]
    # back-substitute one basis vector per free column
    basis = []
    ordered = sorted(pivots.items(), key=lambda kv: -(kv[0].bit_length()))
    for j in free_cols:
        vec = 1 << j
        for low, row in ordered:
            rest = row & ~low
            if bin(rest & vec).count("1") % 2:
                vec ^= low
        basis.append(vec)
    out = []
    seen = set()
    for mask in range(1, 1 << len(basis)):
        vec = 0
        mm = mask
        idx = 0
        while mm:
            if mm & 1:
                vec ^= basis[idx]
            mm >>= 1
            idx += 1
        if vec == 0 or vec in seen:
            raise InternalInvariantError("dependent nullspace basis")
        seen.add(vec)
        rows = [[None] * 2 * n for _ in range(2)]
        for j in range(n):
            if vec >> j & 1:
                rows[0][2 * j] = rows[0][2 * j + 1] = 1
                rows[1][2 * j] = rows[1][2 * j + 1] = 0
            else:
                rows[0][2 * j] = rows[0][2 * j + 1] = 0
                rows[1][2 * j] = rows[1][2 * j + 1] = 1
        t = CosetTable(pres, (), rows)
        if not verify_table(t):
            raise InternalInvariantError("index-2 table failed verification")
        out.append((vec, t))
    out.sort(key=lambda vt: vt[0])
    return [t for _, t in out]


@dataclass(frozen=True)
class SchreierData:
    """Subgroup presentation on Schreier generators, with rewriting data.

    ``schreier_words`` spell each subgroup generator as a word in the
    original generators; ``rewrite`` carries subgroup elements (words in
    the original generators tracing back to coset 0) to words in the
    Schreier generators.
    """

    original: Presentation
    table: CosetTable
    presentation: Presentation
    schreier_words: tuple[Word, ...]
    transversal: tuple[Word, ...]
    _gen_of_pair: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    def rewrite(self, word: Word) -> Word:
        rows = self.table.rows
        beta = 0
        out = []
        for x in word:
            if x > 0:
                i = x - 1
                sg = self._gen_of_pair.get((beta, i))
                if sg is not None:
                    out.append(sg)
                beta = rows[beta][2 * i]
            else:
                i = -x - 1
                beta2 = rows[beta][2 * i + 1]
                sg = self._gen_of_pair.get((beta2, i))
                if sg is not None:
                    out.append(-sg)
                beta = beta2
        if beta != 0:
            raise ValueError("word does not lie in the subgroup")
        return free_reduce(out)


def schreier_data(pres: Presentation, t: CosetTable) -> SchreierData:
    """Rewrite the subgroup of a complete table onto Schreier generators.

    Spanning tree: breadth-first from coset 0 in column order.  One
    generator per non-tree (coset, original generator) pair; relators
    are the rewrites of every original relator traced from every coset.
    """
    if not verify_table(t):
        raise ValueError("need a complete, verified table")
    rows = t.rows
    n = t.n_cosets
    g = pres.n_gens
    transversal: list[Word | None] = [None] * n
    transversal[0] = ()
    order = [0]
    tree_pairs = set()
    for a in order:
        for c in range(2 * g):
            b = rows[a][c]
            if transversal[b] is None:
                transversal[b] = transversal[a] + (col_to_letter(c),)
                if c % 2 == 0:
                    tree_pairs.add((a, c // 2))
                else:
                    tree_pairs.add((b, c // 2))
                order.append(b)
    gen_of_pair: dict[tuple[int, int], int] = {}
    schreier_words: list[Word] = []
    for a in range(n):
        for i in range(g):
            if (a, i) in tree_pairs:
                continue
            b = rows[a][2 * i]
            word = free_reduce(transversal[a] + (i + 1,) + invert_word(transversal[b]))
            gen_of_pair[(a, i)] = len(schreier_words) + 1
            schreier_words.append(word)
    names = tuple(f"s{k}" for k in range(1, len(schreier_words) + 1))
    data = SchreierData(
        pres,
        t,
        Presentation(names, ()),  # placeholder, replaced below
        tuple(schreier_words),
        tuple(transversal),
        gen_of_pair,
    )
    # rewrite() starts at coset 0; tracing a relator from coset a is the
    # rewrite of t_a r t_a^-1
    relators = []
    seen = set()
    for a in range(n):
        ta = transversal[a]
        for r in pres.relators:
            w = data.rewrite(free_reduce(ta + r + invert_word(ta)))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    object.__setattr__(data, "presentation", Presentation(names, tuple(relators)))
    return data


def reidemeister_schreier(pres: Presentation, t: CosetTable) -> Presentation:
    """Presentation of the subgroup a complete table describes."""
    return schreier_data(pres, t).presentation
