"""The normal low-index search against two oracles.

``low_index_subgroups``, kept here as the reference, is a plain
recursive search for one coset table per conjugacy class of subgroup:
filtered to regular images it must equal the normal search.  It is in
turn checked against exhaustive action enumeration, which lists every
tuple of permutations satisfying the relators, keeps the transitive
ones, and canonicalizes each action by restandardizing from every base
point: exactly one table per conjugacy class, computed without any
backtracking logic.
"""

import itertools
import sys

import pytest

from fqlab.errors import SearchBudgetError
from fqlab.fpgroup import (
    CosetTable,
    Presentation,
    free_reduce,
    low_index_normal_subgroups,
    parse_presentation,
)
from fqlab.fpgroup.coset import letter_to_col, standardize_rows
from fqlab.permgroup import compose, identity, inverse


def low_index_subgroups(pres, max_index):
    """One coset table per conjugacy class of subgroup of index <= max_index.

    Fills the row-major first hole with every live coset whose inverse
    entry is free, then with a new coset, deducing across one-gap
    relator traces to a fixpoint.  Conjugate subgroups give the same
    action up to moving the base point, so a completed table is kept
    only when its flat form is least among its restandardizations.
    """
    n_cols = 2 * pres.n_gens
    rel_cols = [[letter_to_col(x) for x in r] for r in pres.relators]
    table = [[None] * n_cols]
    trail = []
    found = []

    def set_entry(a, c, b):
        if table[a][c] is not None:
            return table[a][c] == b
        if table[b][c ^ 1] not in (None, a):
            return False
        table[a][c] = b
        trail.append((a, c))
        if table[b][c ^ 1] is None:
            table[b][c ^ 1] = a
            trail.append((b, c ^ 1))
        return True

    def scan(alpha, cols):
        f, i, j = alpha, 0, len(cols) - 1
        while i <= j and table[f][cols[i]] is not None:
            f = table[f][cols[i]]
            i += 1
        if i > j:
            return f == alpha
        b = alpha
        while j >= i and table[b][cols[j] ^ 1] is not None:
            b = table[b][cols[j] ^ 1]
            j -= 1
        if j < i:
            return False
        return j > i or set_entry(f, cols[i], b)

    def fixpoint():
        while True:
            before = len(trail)
            if not all(scan(a, cols) for a in range(len(table)) for cols in rel_cols):
                return False
            if len(trail) == before:
                return True

    def descend():
        holes = [(a, c) for a in range(len(table)) for c in range(n_cols) if table[a][c] is None]
        if not holes:
            flat = tuple(e for row in table for e in row)
            if all(canonical_flat(table, base) >= flat for base in range(1, len(table))):
                found.append([list(row) for row in table])
            return
        a, c = holes[0]
        n = len(table)
        for b in [b for b in range(n) if table[b][c ^ 1] is None] + ([n] if n < max_index else []):
            mark = len(trail)
            if b == n:
                table.append([None] * n_cols)
            if set_entry(a, c, b) and fixpoint():
                descend()
            while len(trail) > mark:
                aa, cc = trail.pop()
                table[aa][cc] = None
            del table[n:]

    if fixpoint():
        descend()
    found.sort(key=lambda rows: (len(rows), [e for row in rows for e in row]))
    return [CosetTable(pres, (), rows) for rows in found]


def canonical_flat(rows, base):
    return tuple(e for row in standardize_rows(rows, base) for e in row)


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
    return min(canonical_flat(rows, b) for b in range(len(rows)))


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
    for search in (low_index_subgroups, low_index_normal_subgroups):
        subs = search(p, 1)
        assert len(subs) == 1
        assert subs[0].rows == [[0, 0, 0, 0]]


def test_deterministic_output():
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    a = [t.flat() for t in low_index_normal_subgroups(p, 24)]
    b = [t.flat() for t in low_index_normal_subgroups(p, 24)]
    assert a == b


def test_node_budget_raises_with_partial():
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    full = {t.flat() for t in low_index_normal_subgroups(p, 72)}
    for budget in (10, 40, 200):
        with pytest.raises(SearchBudgetError) as e:
            low_index_normal_subgroups(p, 72, node_budget=budget)
        keys = [(t.n_cosets, t.flat()) for t in e.value.partial]
        assert keys == sorted(keys), budget
        assert {flat for _, flat in keys} <= full, budget
    # the search tree itself: exactly 237 nodes
    with pytest.raises(SearchBudgetError):
        low_index_normal_subgroups(p, 72, node_budget=236)
    assert len(low_index_normal_subgroups(p, 72, node_budget=237)) == len(full)


def test_search_depth_needs_no_raised_recursion_limit(monkeypatch):
    # 150 nested choices with only 60 frames of headroom: the descent
    # must not recurse per level, nor raise the limit to make room
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    set_limit = sys.setrecursionlimit
    old = sys.getrecursionlimit()
    raised = []
    set_limit(depth + 60)
    try:
        monkeypatch.setattr(sys, "setrecursionlimit", raised.append)
        tables = low_index_normal_subgroups(parse_presentation("gens: x\nrels:\n"), 150)
    finally:
        set_limit(old)
    assert len(tables) == 150
    assert raised == []


def test_normal_search_matches_filtered_oracle_on_random_presentations():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    words = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6)
    relators = st.lists(words.map(free_reduce).filter(bool).map(tuple), max_size=3)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @hypothesis.given(relators)
    def check(rels):
        p = Presentation(("a", "b"), tuple(rels))
        regular = {t.flat() for t in low_index_subgroups(p, 6) if t.image_group().order == t.n_cosets}
        assert {t.flat() for t in low_index_normal_subgroups(p, 6)} == regular

    check()


def test_rejects_bad_max_index():
    p = parse_presentation("gens: x\nrels:\n")
    with pytest.raises(ValueError):
        low_index_normal_subgroups(p, 0)
