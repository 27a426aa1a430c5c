"""Low-index subgroup searches against exhaustive action enumeration.

The oracle enumerates every tuple of permutations satisfying the
relators, keeps the transitive ones, and canonicalizes each action by
restandardizing from every base point.  That is exactly one table per
conjugacy class of subgroup, computed without any backtracking logic.
"""

import itertools

import pytest

from fqlab.errors import SearchBudgetError
from fqlab.fpgroup import (
    low_index_normal_subgroups,
    low_index_subgroups,
    parse_presentation,
)
from fqlab.fpgroup.coset import standardize_rows
from fqlab.permgroup import compose, identity, inverse


def eval_word(word, gens, n):
    p = identity(n)
    for x in word:
        g = gens[x - 1] if x > 0 else inverse(gens[-x - 1])
        p = compose(p, g)
    return p


def transitive(gens, n):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (g[x], g.index(x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == n


def action_rows(gens, n):
    rows = []
    for x in range(n):
        row = []
        for g in gens:
            row.append(g[x])
            row.append(g.index(x))
        rows.append(row)
    return rows


def canonical(rows):
    return min(
        tuple(e for row in standardize_rows(rows, b) for e in row)
        for b in range(len(rows))
    )


def oracle_classes(pres, n, pools=None):
    """Canonical tables of all transitive degree-n actions honoring the relators."""
    k = pres.n_gens
    pools = pools or [list(itertools.permutations(range(n)))] * k
    out = set()
    for gens in itertools.product(*pools):
        if any(eval_word(r, gens, n) != identity(n) for r in pres.relators):
            continue
        if not transitive(gens, n):
            continue
        out.add(canonical(action_rows(gens, n)))
    return out


def perms_of_order_dividing(n, m):
    return [p for p in itertools.permutations(range(n)) if eval_word((1,) * m, (p,), n) == identity(n)]


def search_flats(tables, n):
    return {t.flat() for t in tables if t.n_cosets == n}


def test_infinite_cyclic_has_one_subgroup_per_index():
    p = parse_presentation("gens: x\nrels:\n")
    subs = low_index_subgroups(p, 8)
    assert [t.n_cosets for t in subs] == list(range(1, 9))
    assert all(t.image_group().order == t.n_cosets for t in subs)
    normal = low_index_normal_subgroups(p, 8)
    assert {t.flat() for t in subs} == {t.flat() for t in normal}


def test_modular_group_against_oracle():
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    subs = low_index_subgroups(p, 6)
    for n in range(1, 7):
        pools = [perms_of_order_dividing(n, 2), perms_of_order_dividing(n, 3)]
        assert search_flats(subs, n) == oracle_classes(p, n, pools), n
    # class counts per index for the modular group
    counts = [sum(1 for t in subs if t.n_cosets == n) for n in range(1, 7)]
    assert counts == [1, 1, 2, 2, 1, 8]


def test_free_group_rank_two_against_oracle():
    p = parse_presentation("gens: x y\nrels:\n")
    subs = low_index_subgroups(p, 4)
    for n in range(1, 5):
        assert search_flats(subs, n) == oracle_classes(p, n), n


def test_infinite_dihedral_against_oracle():
    p = parse_presentation("gens: a b\nrels: a^2, b^2\n")
    subs = low_index_subgroups(p, 6)
    for n in range(1, 7):
        pools = [perms_of_order_dividing(n, 2)] * 2
        assert search_flats(subs, n) == oracle_classes(p, n, pools), n


def test_normal_search_matches_filtered_full_search():
    texts = [
        "gens: a b\nrels: a^2, b^3\n",
        "gens: a b\nrels: a^2, b^2\n",
        "gens: a b\nrels: a^2, b^4, (a b)^3\n",
        "gens: x y\nrels:\n",
        "gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n",
    ]
    for text in texts:
        p = parse_presentation(text)
        allsubs = low_index_subgroups(p, 6)
        filtered = {t.flat() for t in allsubs if t.image_group().order == t.n_cosets}
        normal = {t.flat() for t in low_index_normal_subgroups(p, 6)}
        assert normal == filtered, text


def test_normal_tables_are_regular_and_verified():
    p = parse_presentation("gens: a b\nrels: a^2, b^4, (a b)^3\n")
    for t in low_index_normal_subgroups(p, 12):
        assert t.image_group().order == t.n_cosets
    orders = [t.n_cosets for t in low_index_normal_subgroups(p, 12)]
    # normal subgroups of S4 are S4, A4, V4, 1: indexes 1, 2, 6, 24
    assert orders == [1, 2, 6]


def test_max_index_one():
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    subs = low_index_subgroups(p, 1)
    assert len(subs) == 1
    assert subs[0].rows == [[0, 0, 0, 0]]


def test_deterministic_output():
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    a = [t.flat() for t in low_index_subgroups(p, 5)]
    b = [t.flat() for t in low_index_subgroups(p, 5)]
    assert a == b


def test_node_budget_raises_with_partial():
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    with pytest.raises(SearchBudgetError) as e:
        low_index_normal_subgroups(p, 24, node_budget=40)
    assert isinstance(e.value.partial, list)


def test_rejects_bad_max_index():
    p = parse_presentation("gens: x\nrels:\n")
    with pytest.raises(ValueError):
        low_index_subgroups(p, 0)
