"""Coset tables: verification, index-2 subgroups and Schreier rewriting.

A table row holds one coset's images under every generator and inverse:
generator i acts through column 2i, its inverse through column 2i+1.
Tables are built elsewhere (the normal low-index search) or directly
(the index-2 subgroups here); ``verify_table`` certifies any of them
without trusting how it was built.  ``schreier_data`` rewrites the
subgroup of a verified table onto Schreier generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InternalInvariantError
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
    rows: list[Row]

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

    Complete, inverse-paired, transitive, and every relator closes from
    every coset.
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
    return True


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
        t = CosetTable(pres, rows)
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

