"""Density classification of a finitely presented group's quotient orders.

The set of finite quotient orders of a group has natural density 1, 1/2,
or 0 inside the positive integers, according to whether the group maps
onto the infinite cyclic group, else onto the infinite dihedral group,
else neither.  Both positive cases have one kind of certificate: an
image (t, s) of each generator in D-infinity, the map x -> s x + t of
the integers, with no reflection in the image of Z.  They are found as

* infinite cyclic: a primitive integer vector orthogonal to every
  relator's exponent vector, sent to the translations;
* infinite dihedral: an index-2 subgroup H, a generator outside it, and
  a primitive functional on H's abelianization that the outside element
  negates and that kills its square, carried back to the generators
  through H's Schreier rewriting (``schreier_data``, kept here beside
  its one use; ``coset`` keeps only the table and its certificate).

One Smith form of the relator exponent matrix serves both searches: a
zero invariant gives the surjection onto the integers, and the column
transform spans the mod-2 nullspace that lists the index-2 subgroups.
The negative case is certified by exhaustion: the abelianization has no
free part, and every index-2 subgroup fails the dihedral test.  Each
positive case's images pass ``verify_images`` before they are returned.
It evaluates the original relators in D-infinity and reads the image's
translations off the images alone, so it trusts neither the relation
matrices nor the Schreier rewriting that proposed them.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

from ..errors import InternalInvariantError
from ..orbit import spanning_tree
from .coset import CosetTable, Row, verify_regular_table
from .presentation import Presentation, Word, concat_words, free_reduce, invert_word, word_exponents
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


def col_to_letter(c: int) -> int:
    return c // 2 + 1 if c % 2 == 0 else -(c // 2 + 1)


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


def schreier_data(t: CosetTable) -> SchreierData:
    """Rewrite the subgroup of a table onto Schreier generators.

    The table must be complete, well-formed and closed under the
    relators, as a certified one is; it is not checked again here.  Its
    one caller, ``_dihedral_matrix``, passes the index-2 tables that
    ``index_two_subgroups`` has just certified.

    Transversal: along ``orbit.spanning_tree`` from coset 0, in column
    order.  One generator per non-tree (coset, original generator) pair;
    relators are the rewrites of every original relator traced from
    every coset.
    """
    rows = t.rows
    n = t.n_cosets
    g = t.pres.n_gens
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
        for r in t.pres.relators:
            w = _rewrite(rows, gen_of_pair, free_reduce(ta + r + invert_word(ta)))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    names = tuple(f"s{k}" for k in range(1, len(schreier_words) + 1))
    return SchreierData(t, Presentation(names, tuple(relators)), tuple(schreier_words), gen_of_pair)


def _dihedral_matrix(table: CosetTable, gen: int):
    """Relation matrix whose integer nullspace holds dihedral functionals,
    with the Schreier data of the subgroup it is written over.

    For the index-2 subgroup H of the table and b the given generator
    outside it, a surjection onto the infinite dihedral group sending H
    onto the translations is exactly a primitive functional f on H with
    f(relator rewrites) = 0, f(m) + f(b^-1 m b) = 0 for each Schreier
    generator m, and f(b^2) = 0.  Those are the matrix rows, over the
    Schreier generators of H.
    """
    sd = schreier_data(table)
    k = sd.presentation.n_gens
    b_word: Word = (gen + 1,)
    rows = [word_exponents(r, k) for r in sd.presentation.relators]
    for j, m in enumerate(sd.schreier_words):
        row = word_exponents(sd.rewrite(concat_words(invert_word(b_word), m, b_word)), k)
        row[j] += 1
        rows.append(row)
    rows.append(word_exponents(sd.rewrite(b_word + b_word), k))
    return rows, sd


def _dihedral_images(sd: SchreierData, gen: int, functional) -> tuple[tuple[int, int], ...]:
    """Generator images of a dihedral functional f: a generator x goes to
    (f(x), +1) if it lies in H, else to (f(x b^-1), -1), for b the given
    generator outside H."""

    def f(word: Word) -> int:
        return sum(functional[x - 1] if x > 0 else -functional[-x - 1] for x in sd.rewrite(word))

    row = sd.table.rows[0]
    return tuple(
        (f((i + 1,)), 1) if row[2 * i] == 0 else (f((i + 1, -(gen + 1))), -1)
        for i in range(sd.table.pres.n_gens)
    )


class DensityClass(NamedTuple):
    """Outcome of the classification, with its certificate.  The first
    generator that ``images`` sends to a reflection is the one outside H
    that ``dihedral_functional`` was solved against."""

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
    Images that fail ``verify_images`` raise InternalInvariantError.
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
    for table in tables:
        gen = table.rows[0][::2].index(1)  # the first generator outside H
        rows, sd = _dihedral_matrix(table, gen)
        w = null_column_witness(smith_normal_form(rows, n_cols=sd.presentation.n_gens))
        if w is not None:
            images = _dihedral_images(sd, gen, w)
            if not verify_images(pres, images):
                raise InternalInvariantError("dihedral images failed verification")
            return DensityClass("infinite_dihedral", invariants, images, w)
    return DensityClass("density_zero", invariants, index_two_checked=len(tables))
