"""Density classification of a finitely presented group's quotient orders.

The set of finite quotient orders of a group has natural density 1, 1/2,
or 0 inside the positive integers, according to whether the group maps
onto the infinite cyclic group, else onto the infinite dihedral group,
else neither.  Both positive cases have one kind of certificate: an
image (t, s) of each generator in D-infinity, the map x -> s x + t of
the integers, with no reflection in the image of Z.  They are found as

* infinite cyclic: a primitive integer vector orthogonal to every
  relator's exponent vector, sent to the translations;
* infinite dihedral: an index-2 subgroup H whose sign character chi
  leaves the Fox rows dr/dx_j, evaluated at chi, of rank below n - 1
  (Fox, Ann. of Math. 57 (1953)).  Their kernel holds the crossed
  homomorphisms into Z twisted by chi, the coboundaries one dimension
  of it; by Shapiro's lemma the rest is the part of Hom(H, Z) that a
  generator b outside H negates.  The certificate is a primitive such
  functional that also kills b^2, over the non-tree (coset, generator)
  pairs of H's table, carried back to the generators.

``fox_walk`` is the one relation-matrix route: it reads a word across a
coset table as its Fox derivative per (coset, generator) pair.  The rows
at each character are relator walks, and so is the relation matrix that
only the winning subgroup builds; nothing is rewritten into Schreier
generators.  One Smith form of the relator exponent matrix serves both
searches: a zero invariant gives the surjection onto the integers, and
the column transform spans the mod-2 nullspace that lists the index-2
subgroups, at most ``budgets.MAX_INDEX_TWO_SUBGROUPS`` of them.  The
negative case is certified by exhaustion: the abelianization has no
free part, and every index-2 subgroup fails the rank test.  Each
positive case's images pass ``verify_images`` before they are returned.
It evaluates the original relators in D-infinity and reads the image's
translations off the images alone, so it trusts neither the Fox rows
nor the relation matrix that proposed them.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from ..budgets import MAX_INDEX_TWO_SUBGROUPS
from ..errors import InternalInvariantError, ResourceBudgetError
from .coset import CosetTable, Row, verify_regular_table
from .presentation import Presentation, Word, invert_word, word_exponents
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
    certified by ``verify_regular_table`` (an index-2 subgroup is
    normal, so its table is regular), and sorted by the bitmask of
    generators outside H.
    """
    form = abelianization(pres) if form is None else form
    n = pres.n_gens
    basis = [
        sum((form.col_transform[i][j] % 2) << i for i in range(n))
        for j in range(n)
        if form.invariants[j] % 2 == 0
    ]
    count = (1 << len(basis)) - 1
    if count > MAX_INDEX_TWO_SUBGROUPS:
        raise ResourceBudgetError(
            f"{count} index-2 subgroups to check, over the {MAX_INDEX_TWO_SUBGROUPS}-subgroup budget"
        )
    span = [0]
    for column in basis:
        span += [vec ^ column for vec in span]
    if len(set(span)) != len(span):
        raise InternalInvariantError("dependent nullspace basis")
    out = []
    for vec in sorted(span[1:]):
        # coset a goes to a XOR bit_j under generator j and its inverse
        t = CosetTable(pres, [[a ^ (vec >> (c // 2) & 1) for c in range(2 * n)] for a in range(2)])
        if not verify_regular_table(t):
            raise InternalInvariantError("index-2 table failed verification")
        out.append(t)
    return out


def verify_images(pres: Presentation, images) -> bool:
    """Whether generator i -> images[i] = (t, s), the map x -> s x + t,
    defines a surjection onto Z (every s is +1) or onto D-infinity.

    Accepted when there is one image per generator, each t an integer
    and each s +1 or -1, every relator evaluates to (0, +1), and the
    image's translations generate the integers.  Those translations are
    generated by the t with s = +1 and by t_k - t_j over the reflections
    k, for one fixed reflection j; composed with a translation, j gives
    x -> -x, so the image is then all of D-infinity.
    """
    imgs = tuple(images)
    if len(imgs) != pres.n_gens or not all(
        isinstance(t, int) and isinstance(s, int) and s in (1, -1) for t, s in imgs
    ):
        return False

    def evaluate(word: Word) -> tuple[int, int]:
        t, s = 0, 1
        for x in word:
            u, v = imgs[abs(x) - 1]
            if x < 0:
                u = -v * u
            t, s = t + s * u, s * v
        return t, s

    if any(evaluate(r) != (0, 1) for r in pres.relators):
        return False
    flips = [t for t, s in imgs if s == -1]
    return math.gcd(*(t for t, s in imgs if s == 1), *(t - flips[0] for t in flips)) == 1


def fox_walk(rows: list[Row], word: Word, coset: int) -> list[int]:
    """Fox derivative of a word across a coset table, read from a coset.

    Entry a*n + i, for n generators, is the (coset a, generator i) pair:
    a letter x_i read at coset a adds +1 there, and a letter x_i^-1 read
    at coset a adds -1 at the coset it leads to, T[a][x_i^-1].  So the
    entries are the Fox derivatives dw/dx_i in the permutation
    representation on the cosets.  On the pairs off a spanning tree, the
    walk of a word in H from coset 0 counts the Schreier generators that
    its Reidemeister-Schreier rewriting meets.
    """
    n = len(rows[0]) // 2
    out = [0] * (len(rows) * n)
    for x in word:
        i = abs(x) - 1
        if x > 0:
            out[coset * n + i] += 1
            coset = rows[coset][2 * i]
        else:
            coset = rows[coset][2 * i + 1]
            out[coset * n + i] -= 1
    return out


def _relator_walks(table: CosetTable, coset: int) -> list[list[int]]:
    return [fox_walk(table.rows, r, coset) for r in table.pres.relators]


def _character_rows(table: CosetTable) -> list[list[int]]:
    """Fox rows at the sign character of an index-2 table: each relator's
    walk from coset 0, coset 0's entry less coset 1's for each generator."""
    n = table.pres.n_gens
    return [[w[i] - w[n + i] for i in range(n)] for w in _relator_walks(table, 0)]


def _off_tree(walk: list[int], gen: int) -> list[int]:
    """A walk on an index-2 table without its one tree pair, (0, gen):
    ``orbit.spanning_tree`` from coset 0 reaches coset 1 first through
    the column of gen, the first generator outside H."""
    return walk[:gen] + walk[gen + 1 :]


def _dihedral_matrix(table: CosetTable, gen: int) -> list[list[int]]:
    """Relation matrix whose integer nullspace holds dihedral functionals,
    over the 2n - 1 non-tree pairs of an index-2 table.

    For the index-2 subgroup H of the table and b = x_gen outside it, a
    surjection onto the infinite dihedral group sending H onto the
    translations is a primitive functional f on H's abelianization, which
    the non-tree pairs generate.  f must kill each relator walked from
    each coset (zero and repeated rows dropped, first seen kept), satisfy
    f(m) + f(b^-1 m b) = 0 for the Schreier generator m = t_a x_i t_c^-1
    of each pair (a, i), whose transversal is t_0 = 1 and t_1 = b, and
    kill b^2.  The walk of b^-1 m b from coset 0 is the walk of m from
    coset 1.
    """
    rows = table.rows
    n = table.pres.n_gens
    transversal: tuple[Word, Word] = ((), (gen + 1,))
    matrix = []
    seen = set()
    for walk in _relator_walks(table, 0) + _relator_walks(table, 1):
        row = _off_tree(walk, gen)
        if any(row) and tuple(row) not in seen:
            seen.add(tuple(row))
            matrix.append(row)
    pairs = [divmod(k, n) for k in range(2 * n) if k != gen]  # (a, i) off the tree, in column order
    for j, (a, i) in enumerate(pairs):
        m = transversal[a] + (i + 1,) + invert_word(transversal[rows[a][2 * i]])
        row = _off_tree(fox_walk(rows, m, 1), gen)
        row[j] += 1
        matrix.append(row)
    matrix.append(_off_tree(fox_walk(rows, transversal[1] * 2, 0), gen))
    return matrix


def _dihedral_images(table: CosetTable, gen: int, functional) -> tuple[tuple[int, int], ...]:
    """Generator images of a dihedral functional f: a generator x goes to
    (f(x), +1) if it lies in H, else to (f(x b^-1), -1), for b = x_gen;
    f of a word in H is f dotted with the word's walk from coset 0."""

    def f(word: Word) -> int:
        return sum(map(operator.mul, functional, _off_tree(fox_walk(table.rows, word, 0), gen)))

    row = table.rows[0]
    return tuple(
        (f((i + 1,)), 1) if row[2 * i] == 0 else (f((i + 1, -(gen + 1))), -1)
        for i in range(table.pres.n_gens)
    )


class DensityClass(NamedTuple):
    """Outcome of the classification, with its certificate.  The first
    generator that ``images`` sends to a reflection is the one outside H
    that ``dihedral_functional`` was solved against; the functional has
    one entry per non-tree (coset, generator) pair of H's table, coset
    by coset, each coset's generators in order."""

    tag: str  # infinite_cyclic | infinite_dihedral | density_zero
    abelian_invariants: tuple[int, ...]
    images: tuple[tuple[int, int], ...] | None = None  # (t, s): x -> s x + t, either positive case
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
    Images that fail ``verify_images`` raise InternalInvariantError; more
    index-2 subgroups than the budget raise ResourceBudgetError before
    any is built.
    """
    form = abelianization(pres)
    invariants = form.invariants
    witness = null_column_witness(form)
    if witness is not None:
        images = tuple((e, 1) for e in witness)
        if not verify_images(pres, images):
            raise InternalInvariantError("cyclic images failed verification")
        return DensityClass("infinite_cyclic", invariants, images)
    tables = index_two_subgroups(pres, form)
    n = pres.n_gens
    for table in tables:
        rank = n - smith_normal_form(_character_rows(table), n_cols=n).invariants.count(0)
        if rank >= n - 1:
            continue
        gen = table.rows[0][::2].index(1)  # the first generator outside H
        w = null_column_witness(smith_normal_form(_dihedral_matrix(table, gen), n_cols=2 * n - 1))
        if w is None:
            raise InternalInvariantError("Fox rows and dihedral matrix disagree")
        images = _dihedral_images(table, gen, w)
        if not verify_images(pres, images):
            raise InternalInvariantError("dihedral images failed verification")
        return DensityClass("infinite_dihedral", invariants, images, w)
    return DensityClass("density_zero", invariants, index_two_checked=len(tables))
