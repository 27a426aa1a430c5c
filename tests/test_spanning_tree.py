"""The one breadth-first spanning tree and the transversals built on it.

Oracles: ``orbit`` for the tree's points and order, and the
hand-rolled transversal loops that Schreier rewriting and stabilizer
generators ran before they shared ``orbit.spanning_tree``, kept here.
"""

from schreier_oracle import _rewrite, col_to_letter, schreier_data
from test_classify import INDEX_TWO_CASES

from fqlab.fpgroup import (
    index_two_subgroups,
    low_index_normal_subgroups,
    parse_presentation,
)
from fqlab.fpgroup.presentation import free_reduce, invert_word
from fqlab.graphs import build_sw, build_w
from fqlab.orbit import orbit, spanning_tree
from fqlab.permgroup import compose, identity, inverse, stabilizer_generators
from fqlab.sweeps import graph_fixtures


def schreier_oracle(pres, t):
    """Schreier words and relators from a transversal grown coset by
    coset, breadth-first from coset 0 in column order."""
    rows, n, g = t.rows, t.n_cosets, pres.n_gens
    transversal = [None] * n
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
    gen_of_pair = {}
    words = []
    for a in range(n):
        for i in range(g):
            if (a, i) not in tree_pairs:
                b = rows[a][2 * i]
                gen_of_pair[(a, i)] = len(words) + 1
                words.append(free_reduce(transversal[a] + (i + 1,) + invert_word(transversal[b])))
    relators = []
    for a in range(n):
        for r in pres.relators:
            w = _rewrite(rows, gen_of_pair, free_reduce(transversal[a] + r + invert_word(transversal[a])))
            if w and w not in relators:
                relators.append(w)
    return tuple(words), tuple(relators)


def stabilizer_oracle(gens, degree, base):
    """Schreier generators from a transversal grown inside the search step."""
    trans = {base: identity(degree)}

    def step(x):
        for g in gens:
            if g[x] not in trans:
                trans[g[x]] = compose(trans[x], g)
            yield g[x]

    out = []
    seen = set()
    for x in orbit(base, step):
        for g in gens:
            word = compose(compose(trans[x], g), inverse(trans[g[x]]))
            if word not in seen and word != identity(degree):
                seen.add(word)
                out.append(word)
    return out


def test_spanning_tree_is_the_breadth_first_orbit():
    # keys in orbit order, each reached along step(parent)[k], parents first
    for _, ga in graph_fixtures():
        adj = ga.graph.adjacency
        for seed in range(ga.graph.vertex_count):
            tree = spanning_tree(seed, adj.__getitem__)
            assert list(tree) == orbit(seed, adj.__getitem__)
            first = {seed: None}
            for x in tree:
                for k, y in enumerate(adj[x]):
                    first.setdefault(y, (x, k))
            assert tree == first


def test_schreier_data_matches_the_hand_rolled_transversal():
    # every index-2 table classify rewrites, then deeper trees: the
    # normal search's tables of (2,3,7) and (2,3,3) up to index 168
    cases = [(p, t) for p in map(parse_presentation, INDEX_TWO_CASES) for t in index_two_subgroups(p)]
    assert len(cases) > len(INDEX_TWO_CASES)
    for text in ("gens: a b\nrels: a^2, b^3, (a b)^7\n", "gens: a b\nrels: a^2, b^3, (a b)^3\n"):
        p = parse_presentation(text)
        cases += [(p, t) for t in low_index_normal_subgroups(p, 168)]
    assert max(t.n_cosets for _, t in cases) == 168
    for p, t in cases:
        sd = schreier_data(t)
        assert (sd.schreier_words, sd.presentation.relators) == schreier_oracle(p, t), (p, t.n_cosets)


def test_stabilizer_generators_match_the_hand_rolled_transversal():
    actions = [ga for _, ga in graph_fixtures()] + [build_w(3, 5), build_sw(2, 4)]
    for ga in actions:
        gens, n = ga.group.generators, ga.graph.vertex_count
        for v in range(n):
            assert stabilizer_generators(gens, n, v) == stabilizer_oracle(gens, n, v), (n, v)
