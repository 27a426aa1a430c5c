"""Reidemeister-Schreier rewriting and the dihedral test built on it,
kept as test oracles.

``classify`` decides the dihedral case from Fox rows at each index-2
character and prints its functional from walks across the winning
table; it writes no word in a subgroup's generators.  This is the route
it replaced: a presentation of the subgroup on Schreier generators, its
relation matrix over those generators, and generator images read back
through rewriting.  Transversal: along ``orbit.spanning_tree`` from
coset 0, in column order, as the walks number their columns.
"""

from itertools import islice

from fqlab.fpgroup import (
    Presentation,
    free_reduce,
    index_two_subgroups,
    invert_word,
    null_column_witness,
    smith_normal_form,
    word_exponents,
)
from fqlab.orbit import spanning_tree


def concat_words(*ws):
    out = []
    for w in ws:
        out.extend(w)
    return free_reduce(out)


def col_to_letter(c):
    return c // 2 + 1 if c % 2 == 0 else -(c // 2 + 1)


def _rewrite(rows, gen_of_pair, word):
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

    def __init__(self, table, presentation, schreier_words, gen_of_pair):
        self.table = table
        self.presentation = presentation
        self.schreier_words = schreier_words
        self._gen_of_pair = gen_of_pair

    def rewrite(self, word):
        return _rewrite(self.table.rows, self._gen_of_pair, word)


def schreier_data(t):
    """Rewrite the subgroup of a complete table onto Schreier generators.

    One generator per non-tree (coset, original generator) pair;
    relators are the rewrites of every original relator traced from
    every coset.
    """
    rows = t.rows
    n = t.n_cosets
    g = t.pres.n_gens
    transversal = [()] * n
    tree_pairs = set()
    for b, (a, c) in islice(spanning_tree(0, rows.__getitem__).items(), 1, None):
        transversal[b] = transversal[a] + (col_to_letter(c),)
        tree_pairs.add((a if c % 2 == 0 else b, c // 2))
    gen_of_pair = {}
    schreier_words = []
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


def dihedral_matrix(sd, gen):
    """Relation matrix over the Schreier generators of an index-2
    subgroup H whose integer nullspace holds the dihedral functionals:
    f(relator rewrites) = 0, f(m) + f(b^-1 m b) = 0 for each Schreier
    generator m, and f(b^2) = 0, for b the given generator outside H."""
    k = sd.presentation.n_gens
    b_word = (gen + 1,)
    rows = [word_exponents(r, k) for r in sd.presentation.relators]
    for j, m in enumerate(sd.schreier_words):
        row = word_exponents(sd.rewrite(concat_words(invert_word(b_word), m, b_word)), k)
        row[j] += 1
        rows.append(row)
    rows.append(word_exponents(sd.rewrite(b_word + b_word), k))
    return rows


def dihedral_images(sd, gen, functional):
    """Generator images of a dihedral functional f: a generator x goes to
    (f(x), +1) if it lies in H, else to (f(x b^-1), -1)."""

    def f(word):
        return sum(functional[x - 1] if x > 0 else -functional[-x - 1] for x in sd.rewrite(word))

    row = sd.table.rows[0]
    return tuple(
        (f((i + 1,)), 1) if row[2 * i] == 0 else (f((i + 1, -(gen + 1))), -1)
        for i in range(sd.table.pres.n_gens)
    )


def dihedral_route(pres):
    """The Schreier route on a presentation with no Z quotient, as
    ``classify`` ran it: the invariant factors of each index-2
    subgroup's matrix in table order, up to the first with a null
    column, and that subgroup's (images, functional), else None."""
    invariants = []
    for table in index_two_subgroups(pres):
        gen = table.rows[0][::2].index(1)
        sd = schreier_data(table)
        form = smith_normal_form(dihedral_matrix(sd, gen), n_cols=sd.presentation.n_gens)
        invariants.append(form.invariants)
        w = null_column_witness(form)
        if w is not None:
            return invariants, (dihedral_images(sd, gen, w), w)
    return invariants, None
