"""Density classification of a finitely presented group's quotient orders.

The set of finite quotient orders of a group has natural density 1, 1/2,
or 0 inside the positive integers, according to whether the group maps
onto the infinite cyclic group, else onto the infinite dihedral group,
else neither.  Both positive cases come with finite certificates:

* infinite cyclic: a primitive integer vector orthogonal to every
  relator's exponent vector (a surjection onto the integers);
* infinite dihedral: an index-2 subgroup H, a generator outside it, and
  a primitive functional on H's abelianization that the outside element
  negates and that kills its square.

The negative case is certified by exhaustion: the abelianization has no
free part, and every index-2 subgroup fails the dihedral test.  Each
positive witness passes its verifier before it is returned.  For the
infinite dihedral case the verifier rebuilds the same relation matrix
through the same Schreier rewriting, so it certifies the nullspace step
against that matrix, not the matrix or the rewriting themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InternalInvariantError
from .coset import CosetTable, index_two_subgroups, schreier_data, verify_table
from .presentation import Presentation, Word, concat_words, free_reduce, invert_word, word_exponents
from .snf import SmithForm, null_column_witness, smith_normal_form


def abelianization(pres: Presentation) -> SmithForm:
    """Smith form of the relator exponent matrix."""
    rows = [word_exponents(r, pres.n_gens) for r in pres.relators]
    return smith_normal_form(rows, n_cols=pres.n_gens)


def verify_cyclic_witness(pres: Presentation, witness) -> bool:
    """Whether sending generator i to witness[i] maps onto the integers.

    That holds when the vector is primitive and kills every relator.
    """
    w = tuple(witness)
    if len(w) != pres.n_gens or any(not isinstance(e, int) for e in w):
        return False
    if math.gcd(*w) != 1:
        return False
    for r in pres.relators:
        if sum(e * x for e, x in zip(word_exponents(r, pres.n_gens), w)) != 0:
            return False
    return True


def _reflection_generator(table: CosetTable) -> int:
    for i in range(table.pres.n_gens):
        if table.rows[0][2 * i] == 1:
            return i
    raise ValueError("no generator moves the base coset")


def _dihedral_matrix(pres: Presentation, table: CosetTable, gen: int):
    """Relation matrix whose integer nullspace holds dihedral functionals.

    For the index-2 subgroup H of the table and b the given generator
    outside it, a surjection onto the infinite dihedral group sending H
    onto the translations is exactly a primitive functional f on H with
    f(relator rewrites) = 0, f(m) + f(b^-1 m b) = 0 for each Schreier
    generator m, and f(b^2) = 0.  Those are the matrix rows, over the
    Schreier generators of H.
    """
    sd = schreier_data(pres, table)
    k = sd.presentation.n_gens
    b_word: Word = (gen + 1,)
    rows = [word_exponents(r, k) for r in sd.presentation.relators]
    for j, m in enumerate(sd.schreier_words):
        conj = sd.rewrite(free_reduce(concat_words(invert_word(b_word), m, b_word)))
        row = word_exponents(conj, k)
        row[j] += 1
        rows.append(row)
    rows.append(word_exponents(sd.rewrite(free_reduce(b_word + b_word)), k))
    return rows, k


def verify_dihedral_witness(
    pres: Presentation, table: CosetTable, gen: int, witness
) -> bool:
    """Whether the witness is a primitive dihedral functional on the table's subgroup.

    The table must be a verified index-2 table of the presentation with
    the generator outside its subgroup.
    """
    if table.pres is not pres and table.pres != pres:
        return False
    if table.n_cosets != 2 or not verify_table(table):
        return False
    if not 0 <= gen < pres.n_gens or table.rows[0][2 * gen] != 1:
        return False
    rows, k = _dihedral_matrix(pres, table, gen)
    w = tuple(witness)
    if len(w) != k or any(not isinstance(e, int) for e in w):
        return False
    if math.gcd(*w) != 1:
        return False
    return all(sum(e * x for e, x in zip(row, w)) == 0 for row in rows)


@dataclass(frozen=True)
class DensityClass:
    """Outcome of the classification, with its certificate."""

    tag: str  # infinite_cyclic | infinite_dihedral | density_zero
    abelian_invariants: tuple[int, ...]
    cyclic_witness: tuple[int, ...] | None = None
    dihedral_table: CosetTable | None = None
    dihedral_generator: int | None = None
    dihedral_functional: tuple[int, ...] | None = None
    index_two_checked: int | None = None

    @property
    def density_numerator(self) -> int:
        return {"infinite_cyclic": 2, "infinite_dihedral": 1, "density_zero": 0}[self.tag]


def classify_density(pres: Presentation) -> DensityClass:
    """Classify the natural density of the set of finite quotient orders.

    A surjection onto the integers gives every order (density 1); else
    a surjection onto the infinite dihedral group gives exactly 1 and
    the even orders (density 1/2); else the order set has density 0.
    A witness that fails its verifier raises InternalInvariantError.
    """
    form = abelianization(pres)
    invariants = form.invariants
    witness = null_column_witness(form)
    if witness is not None:
        if not verify_cyclic_witness(pres, witness):
            raise InternalInvariantError("cyclic witness failed verification")
        return DensityClass("infinite_cyclic", invariants, cyclic_witness=witness)
    tables = index_two_subgroups(pres)
    for table in tables:
        gen = _reflection_generator(table)
        rows, k = _dihedral_matrix(pres, table, gen)
        w = null_column_witness(smith_normal_form(rows, n_cols=k))
        if w is not None:
            if not verify_dihedral_witness(pres, table, gen, w):
                raise InternalInvariantError("dihedral witness failed verification")
            return DensityClass(
                "infinite_dihedral",
                invariants,
                dihedral_table=table,
                dihedral_generator=gen,
                dihedral_functional=w,
            )
    return DensityClass("density_zero", invariants, index_two_checked=len(tables))
