"""The normal low-index search against three oracles.

``low_index_subgroups``, kept here as the reference, is a plain
recursive search for one coset table per conjugacy class of subgroup:
filtered to regular images it must equal the normal search.  It is in
turn checked against exhaustive action enumeration, which lists every
tuple of permutations satisfying the relators, keeps the transitive
ones, and canonicalizes each action by restandardizing from every base
point: exactly one table per conjugacy class, computed without any
backtracking logic.  Todd-Coxeter enumeration of the subgroup spanned
by each table's Schreier generators must rebuild that table exactly.
"""

import collections
import itertools
import random
import sys
import tracemalloc

import pytest
from coset_oracle import is_regular, standardize_rows, todd_coxeter, verify_table

import fqlab.fpgroup.lowindex as lowindex
from fqlab.errors import InternalInvariantError, SearchBudgetError
from fqlab.fpgroup import (
    CosetTable,
    Presentation,
    free_reduce,
    low_index_normal_subgroups,
    parse_presentation,
    schreier_data,
    verify_regular_table,
)
from fqlab.fpgroup.coset import letter_to_col
from fqlab.orbit import orbit
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
    return [CosetTable(pres, rows) for rows in found]


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


FULL_SEARCH_CASES = [
    ("gens: a b\nrels: a^2, b^3\n", 6),
    ("gens: a b\nrels: a^2, b^2\n", 6),
    ("gens: a b\nrels: a^2, b^4, (a b)^3\n", 6),
    ("gens: x y\nrels:\n", 6),
    ("gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n", 6),
    # a length-1 relator, deduced only by the scan of each new coset
    ("gens: a b\nrels: a, b^6\n", 12),
    ("gens: a b\nrels: a b a^-1 b^-2\n", 16),
]


def assert_matches_filtered_full_search(p, max_index):
    allsubs = low_index_subgroups(p, max_index)
    filtered = {t.flat() for t in allsubs if t.image_group().order == t.n_cosets}
    assert {t.flat() for t in low_index_normal_subgroups(p, max_index)} == filtered, p.relators


def test_normal_search_matches_filtered_full_search():
    for text, max_index in FULL_SEARCH_CASES:
        assert_matches_filtered_full_search(parse_presentation(text), max_index)


def test_is_regular_matches_closure_order():
    # the closure order is the definition: a transitive image is regular
    # exactly when it has as many elements as points
    def agrees(tables):
        for t in tables:
            assert is_regular(t) == (t.image_group().order == t.n_cosets), t.flat()
        return sum(not is_regular(t) for t in tables)

    non_regular = 0
    for text, max_index in FULL_SEARCH_CASES:
        non_regular += agrees(low_index_subgroups(parse_presentation(text), max_index))
    assert non_regular > 700
    normal = [
        ("gens: a b\nrels: a^3, b^2\n", 120),
        ("gens: a b\nrels: a^3, b^3, (a b)^3\n", 243),
        ("gens: a b\nrels: a^2, b^4, (a b)^4\n", 64),
        ("gens: a b\nrels: a^2, b^3, (a b)^7\n", 200),
    ]
    for text, max_index in normal:
        assert agrees(low_index_normal_subgroups(parse_presentation(text), max_index)) == 0
    # every transitive action of the free group of rank 2 on up to 4 points
    free = parse_presentation("gens: x y\nrels:\n")
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        tables = [
            CosetTable(free, [[x[a], inverse(x)[a], y[a], inverse(y)[a]] for a in range(n)])
            for x in perms
            for y in perms
        ]
        agrees([t for t in tables if verify_table(t)])


def test_is_regular_rejects_a_verified_non_regular_table():
    # S3 on 3 points: a transitive action of a^3, b^2, (a b)^2 whose
    # image has 6 elements; left multiplication by a sends 0 to 1, but b
    # fixes 0 and not 1
    p = parse_presentation("gens: a b\nrels: a^3, b^2, (a b)^2\n")
    t = CosetTable(p, [[1, 2, 0, 0], [2, 0, 2, 2], [0, 1, 1, 1]])
    assert verify_table(t)
    assert t.image_group().order == 6
    assert not is_regular(t)


def test_regular_certificate_refuses_a_relator_failing_at_coset_0():
    # C4's regular table read under a^2: regular, but a^2 moves 0 to 2
    t = CosetTable(parse_presentation("gens: a\nrels: a^2\n"), [[1, 3], [2, 0], [3, 1], [0, 2]])
    assert is_regular(t)
    assert t.trace(0, (1, 1)) == 2
    assert not verify_regular_table(t)


def test_regular_certificate_refuses_a_verified_non_regular_table():
    # S3 on the three cosets of <a>: every relator closes from every
    # coset, but a fixes 0 and not 1
    p = parse_presentation("gens: a b\nrels: a^2, b^3, (a b)^2\n")
    t = CosetTable(p, [[0, 0, 1, 2], [2, 2, 2, 0], [1, 1, 0, 1]])
    assert verify_table(t)
    assert not is_regular(t)
    assert not verify_regular_table(t)


def test_regular_certificate_agrees_with_the_full_check():
    # the coset-0 certificate decides exactly what verify_table and
    # is_regular decide together: on every search table, on regular
    # tables read under other relators, and on random actions
    def outcome(t):
        full = verify_table(t)
        assert verify_regular_table(t) == (full and is_regular(t)), (t.pres.relators, t.rows)
        # is_regular asks for a well-formed table; these are complete and
        # inverse-paired, so transitivity is what is left to ask
        transitive = len(orbit(0, t.rows.__getitem__)) == t.n_cosets
        return full, is_regular(t) if transitive else None

    regular_rows = collections.defaultdict(list)
    for text, max_index, _, _ in SEARCH_TREES:
        p = parse_presentation(text)
        for t in low_index_normal_subgroups(p, max_index):
            assert outcome(t) == (True, True)
            if t.n_cosets <= 24:
                regular_rows[p.n_gens].append(t.rows)
    rng = random.Random(23)
    seen = collections.Counter()
    for _ in range(400):
        g = rng.choice((1, 2, 2, 3))
        letters = [s * (i + 1) for i in range(g) for s in (1, -1)]
        words = [free_reduce(tuple(rng.choices(letters, k=rng.randint(1, 8)))) for _ in range(rng.randint(0, 3))]
        p = Presentation(("a", "b", "c")[:g], tuple(w for w in words if w))
        if g in regular_rows and rng.random() < 0.5:
            rows = rng.choice(regular_rows[g])
        else:
            n = rng.randint(1, 6)
            perms = [rng.sample(range(n), n) for _ in range(g)]
            rows = [[e for x in perms for e in (x[a], x.index(a))] for a in range(n)]
        seen[outcome(CosetTable(p, rows))] += 1
    # regular and certified, regular with a relator failing, verified but
    # not regular, and not transitive: every way to pass or fail occurs
    assert set(seen) == {(True, True), (False, True), (True, False), (False, False), (False, None)}, seen


def test_normal_search_tables_rebuilt_by_todd_coxeter():
    cases = [
        ("gens: a b\nrels: a^2, b^3\n", 72, 17),
        ("gens: a b\nrels: a^2, b^3, (a b)^7\n", 200, 2),
        ("gens: x y\nrels:\n", 8, 63),
        ("gens: a b\nrels: a^3, b^3, (a b)^3\n", 81, 20),
    ]
    for text, max_index, count in cases:
        p = parse_presentation(text)
        tables = low_index_normal_subgroups(p, max_index)
        assert len(tables) == count, text
        for t in tables:
            rebuilt = todd_coxeter(p, schreier_data(p, t).schreier_words)
            assert rebuilt.rows == t.rows, (text, t.n_cosets)


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


# the search trees themselves, fixed by the propagation closure: the
# search must raise one node short of each size and complete at exactly
# it; the popped branches count the candidates the branch point keeps
SEARCH_TREES = [
    ("gens: a b\nrels: a^2, b^3\n", 72, 256, 510),
    ("gens: a b\nrels: a^2, b^3, (a b)^7\n", 200, 355, 1377),
    ("gens: x y\nrels:\n", 10, 285, 323),
    ("gens: a b\nrels: a^3, b^2\n", 120, 936, 2267),
    ("gens: a b\nrels: a^3, b^3, (a b)^3\n", 81, 153, 201),
    ("gens: a b c\nrels: a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^3\n", 60, 90, 192),
    ("gens: a b\nrels: a^2, b^4, (a b)^4\n", 64, 193, 314),
    ("gens: x y\nrels:\n", 8, 163, 167),
    ("gens: a b\nrels: a b a^-1 b^-1\n", 20, 971, 976),
    ("gens: a b\nrels: a^3, b^2\n", 240, 5190, 20958),
]


def assert_tree_size(monkeypatch, pres, max_index, nodes, branches):
    """The search pops ``branches`` branches, raises one node short of
    the tree's size and completes at exactly it, with the tables of an
    unlimited search."""
    monkeypatch.delenv("FQLAB_BUDGET", raising=False)
    stats = {}
    full = [t.flat() for t in low_index_normal_subgroups(pres, max_index, stats)]
    assert stats == {"nodes": nodes, "branches": branches}
    monkeypatch.setenv("FQLAB_BUDGET", str(nodes - 1))
    with pytest.raises(SearchBudgetError):
        low_index_normal_subgroups(pres, max_index)
    monkeypatch.setenv("FQLAB_BUDGET", str(nodes))
    assert [t.flat() for t in low_index_normal_subgroups(pres, max_index)] == full
    monkeypatch.delenv("FQLAB_BUDGET")


def test_node_budget_raises_with_partial(monkeypatch):
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    full = {t.flat() for t in low_index_normal_subgroups(p, 72)}
    for budget in (10, 40, 200):
        monkeypatch.setenv("FQLAB_BUDGET", str(budget))
        with pytest.raises(SearchBudgetError) as e:
            low_index_normal_subgroups(p, 72)
        keys = [(t.n_cosets, t.flat()) for t in e.value.partial]
        assert keys == sorted(keys), budget
        assert {flat for _, flat in keys} <= full, budget
    for text, max_index, nodes, branches in SEARCH_TREES:
        assert_tree_size(monkeypatch, parse_presentation(text), max_index, nodes, branches)
    # in the last tree, (3,2) to 240, three in four popped branches die
    # after the branch point, so its pins guard the propagation order
    assert len(low_index_normal_subgroups(parse_presentation("gens: a b\nrels: a^3, b^2\n"), 240)) == 47


def test_certificate_traces_relators_from_coset_0_only(monkeypatch):
    # the search scans relators incrementally, never through trace; each
    # of the 2 tables costs one trace per relator, not one per coset
    traced = []
    trace = CosetTable.trace
    monkeypatch.setattr(CosetTable, "trace", lambda t, a, w: traced.append(a) or trace(t, a, w))
    tables = low_index_normal_subgroups(parse_presentation("gens: a b\nrels: a^2, b^3, (a b)^7\n"), 200)
    assert [t.n_cosets for t in tables] == [1, 168]
    assert traced == [0] * 6


def test_node_count_does_not_depend_on_relator_order(monkeypatch):
    # every rule fires from every premise, so each node's closure, and
    # with it the search tree, is the same in any firing order
    for text, max_index, nodes, branches in [
        ("gens: a b c\nrels: a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^3\n", 60, 90, 192),
        ("gens: a b\nrels: a^2, b^3, (a b)^7\n", 200, 355, 1377),
        ("gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n", 32, 604, 1224),
        ("gens: a b\nrels: a^2, b^4, (a b)^4\n", 64, 193, 314),
    ]:
        p = parse_presentation(text)
        assert_tree_size(monkeypatch, p, max_index, nodes, branches)
        for rels in itertools.permutations(p.relators):
            for k in (0, 1):
                q = Presentation(p.generator_names, tuple(r[k:] + r[:k] for r in rels))
                stats = {}
                low_index_normal_subgroups(q, max_index, stats)
                assert stats == {"nodes": nodes, "branches": branches}, (text, rels, k)


def test_inverting_one_generator_keeps_the_table_indices():
    # x -> x⁻¹ in every relator is an automorphism of the free group, so
    # the two presentations define the same group and their normal
    # subgroups have the same indices; the search treats x and x⁻¹ as a
    # pair of letter rows and must favour neither
    for text, max_index in [
        ("gens: a b\nrels: a^3, b^2\n", 120),
        ("gens: a b\nrels: a^2, b^3, (a b)^7\n", 200),
        ("gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n", 32),
        ("gens: a b\nrels: a^2, b^4, (a b)^4\n", 64),
        ("gens: a b\n", 8),
    ]:
        p = parse_presentation(text)
        want = [t.n_cosets for t in low_index_normal_subgroups(p, max_index)]
        for i in range(1, p.n_gens + 1):
            rels = tuple(tuple(-x if abs(x) == i else x for x in r) for r in p.relators)
            got = low_index_normal_subgroups(Presentation(p.generator_names, rels), max_index)
            assert [t.n_cosets for t in got] == want, (text, i)


def test_search_memory_follows_live_cosets_not_max_index():
    # Z/5 never has more than 5 live cosets; preallocating one table
    # row per possible coset would take tens of megabytes here
    p = parse_presentation("gens: a\nrels: a^5\n")
    tracemalloc.start()
    try:
        tables = low_index_normal_subgroups(p, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.n_cosets for t in tables] == [1, 5]
    assert peak < 1_000_000


def test_search_memory_follows_generators_not_cosets():
    # left multiplication is kept for the search columns only: one for
    # the involution a, two for b; a row per live coset would be
    # 400 x 400 entries here, about 8 MB
    p = parse_presentation("gens: a b\nrels: a^2, b^3, (a b)^7\n")
    tracemalloc.start()
    try:
        tables = low_index_normal_subgroups(p, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.n_cosets for t in tables] == [1, 168]
    assert peak < 2_000_000


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
    # the second pass puts x² for one generator x, spelled x^2 or x^-2,
    # at a random place among the relators, so x has one shared column
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    for names, max_index, examples in [(("a", "b"), 6, 40), (("a", "b", "c"), 4, 20)]:
        letters = [s * (i + 1) for i in range(len(names)) for s in (1, -1)]
        words = st.lists(st.sampled_from(letters), min_size=1, max_size=6)
        relators = st.lists(words.map(free_reduce).filter(bool).map(tuple), max_size=3)
        with_square = st.builds(
            lambda x, rels, at: [*rels[:at], (x, x), *rels[at:]],
            st.sampled_from(letters), relators, st.integers(0, 3),
        )
        for strategy in (relators, with_square):

            @hypothesis.settings(derandomize=True, deadline=None, max_examples=examples, database=None)
            @hypothesis.given(strategy)
            def check(rels):
                assert_matches_filtered_full_search(Presentation(names, tuple(rels)), max_index)

            check()


def test_conjugated_square_gives_the_same_tables():
    # y x² y⁻¹ defines the same group as x², but the search does not
    # read it as an involution, so x keeps two columns there and the
    # relator is scanned; the tables must agree, while node counts may
    # differ, since that scan deduces at other nodes than the shared
    # column does
    for text, max_index in [
        ("gens: a b\nrels: a^3, b^2\n", 120),
        ("gens: a b\nrels: a^2, b^3, (a b)^7\n", 200),
        ("gens: a b\nrels: a^2, b^4, (a b)^4\n", 64),
        ("gens: a b\nrels: a^2, b^2\n", 12),
    ]:
        p = parse_presentation(text)
        want = [t.flat() for t in low_index_normal_subgroups(p, max_index)]
        for i, r in enumerate(p.relators):
            if len(r) == 2 and r[0] == r[1]:
                y = 2 if abs(r[0]) == 1 else 1
                rels = (*p.relators[:i], (y, *r, -y), *p.relators[i + 1 :])
                got = low_index_normal_subgroups(Presentation(p.generator_names, rels), max_index)
                assert [t.flat() for t in got] == want, (text, i)


def test_every_spelling_of_an_involution_searches_alike(monkeypatch):
    # x^2, x^-2 and x = x^-1 all give x one shared column
    for text, max_index, nodes, branches in [SEARCH_TREES[1], SEARCH_TREES[3]]:
        square = "a^2" if "a^2" in text else "b^2"
        x = square[0]
        for spelling in (f"{x}^-2", f"{x} = {x}^-1"):
            p = parse_presentation(text.replace(square, spelling))
            assert_tree_size(monkeypatch, p, max_index, nodes, branches)


def test_involution_edge_cases():
    def search(text, max_index, stats=None):
        return low_index_normal_subgroups(parse_presentation(text), max_index, stats)

    assert [t.n_cosets for t in search("gens: a\nrels: a^2\n", 10)] == [1, 2]
    assert [t.n_cosets for t in search("gens: a\nrels: a^2, a^3\n", 10)] == [1]
    once, twice = {}, {}
    single = [t.flat() for t in search("gens: a b\nrels: a^2, b^3\n", 72, once)]
    assert [t.flat() for t in search("gens: a b\nrels: a^2, a^2, b^3\n", 72, twice)] == single
    assert once == twice == {"nodes": 256, "branches": 510}


def test_rejects_bad_max_index():
    p = parse_presentation("gens: x\nrels:\n")
    with pytest.raises(ValueError):
        low_index_normal_subgroups(p, 0)


def test_non_regular_completed_table_raises(monkeypatch):
    # regularity is proven for every completed table, so a failing check
    # is a fault to report, not a table to skip; here no table passes it
    monkeypatch.setattr(lowindex, "verify_regular_table", lambda t: False)
    with pytest.raises(InternalInvariantError):
        low_index_normal_subgroups(parse_presentation("gens: x\nrels:\n"), 3)
