"""Coset tables: verification and Schreier rewriting.

A table row holds one coset's images under every generator and inverse:
generator i acts through column 2i, its inverse through column 2i+1.
Tables are built elsewhere (the normal low-index search, or directly
for the index-2 subgroups in ``classify``); ``verify_table`` certifies
any of them without trusting how it was built, and ``is_regular``
certifies that a well-formed table (complete, inverse-paired and
transitive) is a regular action, from the table alone, with the
certificate that ``lattice`` also runs on the coset action of a
quotient.
``verify_regular_table`` certifies a table that should be regular, as
the search's are, with both checks but relators traced from coset 0
only, which regularity makes enough.  ``schreier_data`` rewrites the
subgroup of a verified table onto Schreier generators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..orbit import is_regular_action, orbit
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


def _well_formed(t: CosetTable) -> bool:
    """Complete with one entry per column, inverse-paired and transitive."""
    n = t.n_cosets
    if n == 0 or not t.complete or any(len(row) != t.n_cols for row in t.rows):
        return False
    for a in range(n):
        for c in range(t.n_cols):
            b = t.rows[a][c]
            if not isinstance(b, int) or not 0 <= b < n:
                return False
            if t.rows[b][c ^ 1] != a:
                return False
    return len(orbit(0, t.rows.__getitem__)) == n


def verify_table(t: CosetTable) -> bool:
    """Full certificate check, independent of how the table was built.

    Well-formed (complete with one entry per column, inverse-paired,
    transitive), and every relator closes from every coset.
    """
    n = t.n_cosets
    return _well_formed(t) and all(t.trace(a, r) == a for r in t.pres.relators for a in range(n))


def is_regular(t: CosetTable) -> bool:
    """Whether a well-formed table is a regular action: the shared
    certificate ``orbit.is_regular_action``, seeded with the image of
    coset 0 under each generator column."""
    return is_regular_action(t.rows, t.rows[0][::2])


def verify_regular_table(t: CosetTable) -> bool:
    """``verify_table(t) and is_regular(t)``, tracing relators from coset 0 only.

    Once a well-formed table passes ``is_regular``, its left
    multiplications generate a group that commutes with every column and
    moves 0 to every coset.  A permutation λ commuting with the columns
    carries the trace of a word from 0 to its trace from λ(0), so a
    relator that closes at 0 closes at every coset.
    """
    return _well_formed(t) and is_regular(t) and all(t.trace(0, r) == 0 for r in t.pres.relators)


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
                tree_pairs.add((a if c % 2 == 0 else b, c // 2))
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
