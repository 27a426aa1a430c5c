"""Coset tables: verification and Schreier rewriting.

A table row holds one coset's images under every generator and inverse:
generator i acts through column 2i, its inverse through column 2i+1.
Tables are built elsewhere (the normal low-index search, or directly
for the index-2 subgroups in ``classify``), and every one of them is of
a normal subgroup.  ``verify_regular_table`` is their one certificate,
run once on each table without trusting how it was built: complete,
inverse-paired, transitive and regular, by the certificate that
``lattice`` also runs on the coset action of a quotient, with relators
traced from coset 0 only, which regularity makes enough.
``schreier_data`` rewrites the subgroup of a certified table onto
Schreier generators, with its transversal on ``orbit.spanning_tree``.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import TYPE_CHECKING

from ..orbit import is_regular_action, spanning_tree
from .presentation import Presentation, Word, free_reduce, invert_word

if TYPE_CHECKING:
    from ..permgroup import Perm, PermGroup

Row = list


def letter_to_col(x: int) -> int:
    return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1


def col_to_letter(c: int) -> int:
    return c // 2 + 1 if c % 2 == 0 else -(c // 2 + 1)


class CosetTable:
    """A complete or partial coset action of a presentation."""

    def __init__(self, pres: Presentation, rows: list[Row]) -> None:
        self.pres = pres
        self.rows = rows

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
        from ..permgroup import close

        if not self.complete:
            raise ValueError("table is not complete")
        return close(
            tuple(self.column_perm(i) for i in range(self.pres.n_gens)),
            self.n_cosets,
        )

    def flat(self) -> tuple[int, ...]:
        return tuple(e for row in self.rows for e in row)


def verify_regular_table(t: CosetTable) -> bool:
    """Whether a table is a coset table of a normal subgroup, checked
    from the table alone, whoever built it.

    Checked a column at a time on one transpose: a row for every coset
    and one entry per column, every entry an int in range(n), so the
    reads that follow neither raise nor wrap; then column c read at
    every entry of column c ^ 1 gives each coset back, which for both
    columns of a generator pairs them as inverse permutations.  Then
    ``orbit.is_regular_action``, seeded with the image of coset 0 under
    each generator column: its spanning tree from 0 reaches every
    coset, and its left multiplications generate a group that commutes
    with every column and moves 0 to every coset.  A permutation λ
    commuting with the columns carries the trace of a word from 0 to
    its trace from λ(0), so a relator that closes at 0 closes at every
    coset, and relators are traced from coset 0 only.
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
    return is_regular_action(t.rows, cols, t.rows[0][::2]) and all(t.trace(0, r) == 0 for r in t.pres.relators)


def _rewrite(rows: list[Row], gen_of_pair: dict[tuple[int, int], int], word: Word) -> Word:
    """Schreier generators met by the word traced from coset 0, which it must return to."""
    beta = 0
    out = []
    for x in word:
        i = abs(x) - 1
        if x > 0:
            sg, beta = gen_of_pair.get((beta, i)), rows[beta][2 * i]
        else:
            beta = rows[beta][2 * i + 1]
            sg = gen_of_pair.get((beta, i))
        if sg is not None:
            out.append(sg if x > 0 else -sg)
    if beta != 0:
        raise ValueError("word does not lie in the subgroup")
    return free_reduce(out)


class SchreierData:
    """Subgroup presentation on Schreier generators, with rewriting data.

    ``schreier_words`` spell each subgroup generator as a word in the
    original generators; ``rewrite`` carries subgroup elements (words in
    the original generators tracing back to coset 0) to words in the
    Schreier generators.
    """

    def __init__(
        self,
        table: CosetTable,
        presentation: Presentation,
        schreier_words: tuple[Word, ...],
        gen_of_pair: dict[tuple[int, int], int],
    ) -> None:
        self.table = table
        self.presentation = presentation
        self.schreier_words = schreier_words
        self._gen_of_pair = gen_of_pair

    def rewrite(self, word: Word) -> Word:
        return _rewrite(self.table.rows, self._gen_of_pair, word)


def schreier_data(pres: Presentation, t: CosetTable) -> SchreierData:
    """Rewrite the subgroup of a table onto Schreier generators.

    The table must be complete, well-formed and closed under the
    relators, as a certified one is; it is not checked again here.  The
    package's one caller, ``classify``, passes the index-2 tables that
    ``index_two_subgroups`` has just certified.

    Transversal: along ``orbit.spanning_tree`` from coset 0, in column
    order.  One generator per non-tree (coset, original generator) pair;
    relators are the rewrites of every original relator traced from
    every coset.
    """
    rows = t.rows
    n = t.n_cosets
    g = pres.n_gens
    transversal: list[Word] = [()] * n
    tree_pairs = set()
    for b, (a, c) in islice(spanning_tree(0, rows.__getitem__).items(), 1, None):
        transversal[b] = transversal[a] + (col_to_letter(c),)
        tree_pairs.add((a if c % 2 == 0 else b, c // 2))
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
    # rewriting starts at coset 0; tracing a relator from coset a is the
    # rewrite of t_a r t_a^-1
    relators = []
    seen = set()
    for a in range(n):
        ta = transversal[a]
        for r in pres.relators:
            w = _rewrite(rows, gen_of_pair, free_reduce(ta + r + invert_word(ta)))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    names = tuple(f"s{k}" for k in range(1, len(schreier_words) + 1))
    return SchreierData(t, Presentation(names, tuple(relators)), tuple(schreier_words), gen_of_pair)
