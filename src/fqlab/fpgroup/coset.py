"""Coset tables and their one certificate.

A table row holds one coset's images under every generator and inverse:
generator i acts through column 2i, its inverse through column 2i+1.
Tables are built elsewhere (the normal low-index search, or directly
for the index-2 subgroups in ``classify``), and every one of them is of
a normal subgroup.  ``verify_regular_table`` is their one certificate,
run once on each table without trusting how it was built: complete,
inverse-paired, transitive and regular, by the certificate that
``lattice`` also runs on the coset action of a quotient, with relators
traced from coset 0 only, which regularity makes enough.  Nothing else
lives here: the walks that read a word's Fox derivative across a table
serve only the dihedral test and live in ``classify``.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

from ..orbit import is_regular_action
from .presentation import Presentation, Word

if TYPE_CHECKING:
    from ..permgroup import Perm, PermGroup

Row = list


def letter_to_col(x: int) -> int:
    return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1


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
