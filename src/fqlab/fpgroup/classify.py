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

One Smith form of the relator exponent matrix serves both searches: a
zero invariant gives the surjection onto the integers, and the column
transform spans the mod-2 nullspace that lists the index-2 subgroups.
The negative case is certified by exhaustion: the abelianization has no
free part, and every index-2 subgroup fails the dihedral test.  Each
positive witness passes its verifier before it is returned.  The
dihedral verifier maps the generators into the infinite dihedral group
and evaluates the original relators there, so it trusts neither the
relation matrix nor the Schreier rewriting that proposed the witness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import InternalInvariantError
from .coset import CosetTable, schreier_data, verify_table
from .presentation import Presentation, Word, concat_words, invert_word, word_exponents
from .snf import SmithForm, null_column_witness, smith_normal_form


def abelianization(pres: Presentation) -> SmithForm:
    """Smith form of the relator exponent matrix."""
    rows = [word_exponents(r, pres.n_gens) for r in pres.relators]
    return smith_normal_form(rows, n_cols=pres.n_gens)


def index_two_subgroups(pres: Presentation, form: SmithForm | None = None) -> list[CosetTable]:
    """All index-2 subgroups: one per nonzero mod-2 null vector of the relator matrix A.

    With U A V = D the Smith form of A, V is invertible mod 2, so that
    nullspace is spanned by the columns of V, reduced mod 2, whose
    invariant is even (zero included).  Tables are built directly,
    verified, and sorted by the bitmask of generators outside H.
    """
    form = abelianization(pres) if form is None else form
    n = pres.n_gens
    basis = [
        sum((form.col_transform[i][j] % 2) << i for i in range(n))
        for j in range(n)
        if form.invariants[j] % 2 == 0
    ]
    span = [0]
    for column in basis:
        span += [vec ^ column for vec in span]
    if len(set(span)) != len(span):
        raise InternalInvariantError("dependent nullspace basis")
    out = []
    for vec in sorted(span[1:]):
        # coset a goes to a XOR bit_j under generator j and its inverse
        t = CosetTable(pres, [[a ^ (vec >> (c // 2) & 1) for c in range(2 * n)] for a in range(2)])
        if not verify_table(t):
            raise InternalInvariantError("index-2 table failed verification")
        out.append(t)
    return out


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
        row = word_exponents(sd.rewrite(concat_words(invert_word(b_word), m, b_word)), k)
        row[j] += 1
        rows.append(row)
    rows.append(word_exponents(sd.rewrite(b_word + b_word), k))
    return rows, k


def verify_dihedral_witness(
    pres: Presentation, table: CosetTable, gen: int, witness
) -> bool:
    """Whether the witness defines a surjection onto the infinite dihedral group.

    The table must be a verified index-2 table of the presentation with
    the generator b outside its subgroup H, and the witness f one integer
    per Schreier generator of H.  On rewritten words, f maps a generator
    x to (f(x), +1) in D-infinity if x is in H, else to (f(x b^-1), -1),
    where (t, s) is x -> s x + t.  Accepted when every original relator
    maps to (0, +1) and the Schreier generators to translations with gcd
    1, so the rewriting only proposes the images.
    """
    if table.pres is not pres and table.pres != pres:
        return False
    if table.n_cosets != 2 or not verify_table(table):
        return False
    if not 0 <= gen < pres.n_gens or table.rows[0][2 * gen] != 1:
        return False
    sd = schreier_data(pres, table)
    w = tuple(witness)
    if len(w) != len(sd.schreier_words) or any(not isinstance(e, int) for e in w):
        return False

    def f(word: Word) -> int:
        return sum(w[x - 1] if x > 0 else -w[-x - 1] for x in sd.rewrite(word))

    images = [
        (f((i + 1,)), 1) if table.rows[0][2 * i] == 0 else (f((i + 1, -(gen + 1))), -1)
        for i in range(pres.n_gens)
    ]

    def evaluate(word: Word) -> tuple[int, int]:
        t, s = 0, 1
        for x in word:
            u, v = images[abs(x) - 1]
            if x < 0:
                u = -v * u
            t, s = t + s * u, s * v
        return t, s

    if any(evaluate(r) != (0, 1) for r in pres.relators):
        return False
    # Schreier words lie in H, so they map to translations
    return math.gcd(*(evaluate(m)[0] for m in sd.schreier_words)) == 1


class DensityClass(NamedTuple):
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
    one onto the infinite dihedral group gives every even order, and odd
    orders of density 0 (density 1/2); else the order set has density 0.
    A witness that fails its verifier raises InternalInvariantError.
    """
    form = abelianization(pres)
    invariants = form.invariants
    witness = null_column_witness(form)
    if witness is not None:
        if not verify_cyclic_witness(pres, witness):
            raise InternalInvariantError("cyclic witness failed verification")
        return DensityClass("infinite_cyclic", invariants, cyclic_witness=witness)
    tables = index_two_subgroups(pres, form)
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
