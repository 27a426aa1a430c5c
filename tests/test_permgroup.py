"""Permutation group tests.

Oracles: a subgroup-lattice walk (extend-by-one-element fixpoint) and
joins closed from generators (``lattice_oracle``) for the
normal-subgroup enumeration, full-element conjugation scans for
normality, and the defining formulas for compose and perm_order.
Everything order-restricted is cross-checked against plain
element filtering.
"""

import math
import random

import pytest
from lattice_oracle import closure_join_lattice

from fqlab.catalog import (
    DEFAULT_CATALOG,
    cycle_decomposition,
    extend_perm,
    format_perm,
    load_catalog,
    parse_catalog,
    parse_perm,
    serialize_catalog,
)
from fqlab.errors import GroupTooLargeError, InputSyntaxError, InternalInvariantError
from fqlab.lattice import (
    ElementIndex,
    element_index,
    is_normal,
    normal_subgroups,
    quotient,
    quotient_with_map,
    torsion_subgroup,
)
from fqlab.numtheory import np_contains
from fqlab.orbit import orbit
from fqlab.permgroup import (
    PermGroup,
    close,
    compose,
    conjugate,
    identity,
    inverse,
    is_transitive,
    orbits,
    orbits_of,
    perm_order,
    shape,
    stabilizer_generators,
)
from fqlab.sweeps import (
    is_quasiprimitive,
    normal_sylow_quotient,
    verify_odd_quotient,
    verify_quasiprimitive_odd,
    verify_restricted_quotient,
)

CAT = load_catalog()


def oracle_all_subgroups(G):
    # lattice walk: start at the trivial group, extend by one element at a time
    triv = frozenset({identity(G.degree)})
    gens_of = {triv: ()}
    worklist = [triv]
    while worklist:
        H = worklist.pop()
        for g in G.elements:
            if g in H:
                continue
            ext = close(gens_of[H] + (g,), G.degree)
            key = ext.element_set
            if key not in gens_of:
                gens_of[key] = gens_of[H] + (g,)
                worklist.append(key)
    return set(gens_of)


def oracle_is_normal(G, elem_set):
    return all(conjugate(n, g) in elem_set for n in elem_set for g in G.elements)


def naive_closure(generators, degree):
    # breadth-first search multiplying every element by every generator
    known = {identity(degree)}
    frontier = list(known)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = compose(x, g)
                if y not in known:
                    known.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(known))


def test_perm_primitives():
    g = parse_perm("(1 2 3)")
    h = parse_perm("(1 2)", degree=3)
    assert compose(g, h) == parse_perm("(2 3)", degree=3)
    assert compose(h, g) == parse_perm("(1 3)", degree=3)
    assert inverse(g) == parse_perm("(1 3 2)")
    assert perm_order(g) == 3
    assert perm_order(identity(5)) == 1
    assert perm_order(parse_perm("(1 2)(3 4 5)")) == 6
    assert cycle_decomposition(parse_perm("(2 4)(3 5 6)")) == [(1, 3), (2, 4, 5)]


def random_perms(rng, count):
    for _ in range(count):
        g = list(range(rng.randint(1, 9)))
        rng.shuffle(g)
        yield tuple(g)


def test_compose_matches_comprehension():
    rng = random.Random(12)
    degrees = set()
    for g in random_perms(rng, 2000):
        h = list(g)
        rng.shuffle(h)
        h = tuple(h)
        degrees.add(len(g))
        assert compose(g, h) == tuple(h[x] for x in g), (g, h)
    assert {1, 2} <= degrees
    assert compose((0,), (0,)) == (0,)


def test_perm_order_matches_cycle_lengths():
    def lcm_of_cycles(g):
        return math.lcm(*(len(c) for c in cycle_decomposition(g)))

    rng = random.Random(13)
    for g in random_perms(rng, 2000):
        assert perm_order(g) == lcm_of_cycles(g), g
    for name, G in CAT.items():
        for g in G.elements:
            assert perm_order(g) == lcm_of_cycles(g), (name, format_perm(g))


def test_format_parse_roundtrip():
    for text in ("(1 2 3)", "(1 2)(3 4)", "(2 5)(3 4)", "()"):
        g = parse_perm(text, degree=5)
        assert parse_perm(format_perm(g), degree=5) == g
    assert format_perm(identity(4)) == "()"
    assert format_perm(parse_perm("(3 1 2)")) == "(1 2 3)"


def test_parse_perm_rejections():
    with pytest.raises(InputSyntaxError):
        parse_perm("(1 2 2)")  # repeated point
    with pytest.raises(InputSyntaxError):
        parse_perm("(1 2)(2 3)")  # repeated across cycles
    with pytest.raises(InputSyntaxError):
        parse_perm("(1 2")  # unclosed
    with pytest.raises(InputSyntaxError):
        parse_perm("(0 1)")  # points are 1-based
    with pytest.raises(InputSyntaxError):
        parse_perm("1 2 3")  # missing parentheses
    with pytest.raises(InputSyntaxError):
        parse_perm("")
    with pytest.raises(InputSyntaxError):
        parse_perm("(1 5)", degree=3)  # beyond the degree


def test_close_orders():
    assert close((parse_perm("(1 2 3)"),)).order == 3
    assert close((parse_perm("(1 2)", 3), parse_perm("(1 2 3)"))).order == 6
    assert close((parse_perm("(1 2 3)", 4), parse_perm("(1 2)(3 4)"))).order == 12


def test_close_is_sorted_and_deterministic():
    G = close((parse_perm("(1 2 3)", 4), parse_perm("(1 2)(3 4)")))
    assert list(G.elements) == sorted(G.elements)
    H = close((parse_perm("(1 2)(3 4)"), parse_perm("(1 2 3)", 4)))
    assert G.elements == H.elements


def test_sifted_closure_matches_naive_closure():
    for name, G in CAT.items():
        want = naive_closure(G.generators, G.degree)
        assert G.elements == want, name
        assert close(G.elements, G.degree).elements == want, name
        assert close(G.elements[::-1], G.degree).elements == want, name
        e = identity(G.degree)
        gens = G.generators
        products = tuple(compose(a, b) for a in gens for b in gens)
        padded = (e,) + gens + products + gens[::-1] + (e, e)
        assert close(padded, G.degree).elements == want, name
        part = G.elements[::7]
        assert close(part, G.degree).elements == naive_closure(part, G.degree), name


def test_close_cap():
    with pytest.raises(GroupTooLargeError):
        close(CAT["S5"].generators, element_cap=50)


def test_group_validation():
    with pytest.raises(ValueError):
        PermGroup(3, ((0, 0, 2),))
    with pytest.raises(ValueError):
        PermGroup(0, ())


def test_orbits_and_transitivity():
    G = CAT["C15"]  # a 3-cycle times a 5-cycle on 8 points
    assert orbits(G) == [(0, 1, 2), (3, 4, 5, 6, 7)]
    assert not is_transitive(G)
    assert is_transitive(CAT["S4"])
    assert orbits(close((), 3)) == [(0,), (1,), (2,)]


def element_filter_stabilizer(G, point):
    return {g for g in G.elements if g[point] == point}


def test_stabilizer_element_filter():
    G = CAT["S4"]
    S = close(stabilizer_generators(G.generators, G.degree, 3), G.degree)
    assert S.order == 6
    assert all(g[3] == 3 for g in S.elements)
    assert S.element_set == element_filter_stabilizer(G, 3)


def test_stabilizer_generators_match_filter():
    for name, base in (("S4", 0), ("A5", 2), ("D10", 1), ("F20", 0), ("PSL27", 0)):
        G = CAT[name]
        gens = stabilizer_generators(G.generators, G.degree, base)
        got = close(gens, G.degree)
        assert got.element_set == element_filter_stabilizer(G, base), name


def odd(k):
    return k % 2 == 1


def divides(a):
    return lambda k: a % k == 0


def test_torsion_subgroup_examples():
    assert torsion_subgroup(CAT["S3"], odd).order == 3
    assert torsion_subgroup(CAT["C8"], odd).order == 1
    K = torsion_subgroup(CAT["A4"], divides(2))
    assert K.order == 4
    # the Klein four-group: normal, every element an involution or 1
    assert is_normal(CAT["A4"], K)
    assert all(perm_order(g) <= 2 for g in K.elements)


def test_torsion_subgroup_selectors():
    G = CAT["C12"]
    assert torsion_subgroup(G, odd).order == 3
    assert torsion_subgroup(G, divides(4)).order == 4
    assert torsion_subgroup(G, divides(6)).order == 6
    assert torsion_subgroup(G, lambda k: odd(k) and 6 % k == 0).order == 3
    assert torsion_subgroup(G, lambda k: True).order == 12


def test_odd_part_is_normal():
    for name in ("S3", "S4", "A4", "D12", "F20", "C2xA4", "S3xS3"):
        G = CAT[name]
        O = torsion_subgroup(G, odd)
        assert oracle_is_normal(G, O.element_set), name


def test_restricted_part_containment():
    # the odd-and-dividing part always sits inside the dividing part
    for name, G in CAT.items():
        if G.order > 60:
            continue
        for a in range(1, 13):
            inner = torsion_subgroup(G, lambda k: odd(k) and a % k == 0)
            outer = torsion_subgroup(G, divides(a))
            assert inner.element_set <= outer.element_set, (name, a)


def test_conjugacy_class_orbit_matches_conjugates_by_every_element():
    # the orbit under conjugation by the generators is the whole class
    for name, G in CAT.items():
        for g in G.elements:
            cls = orbit(g, lambda x: (conjugate(x, b) for b in G.generators))
            assert cls[0] == g and len(cls) == len(set(cls)), (name, format_perm(g))
            assert set(cls) == {conjugate(g, b) for b in G.elements}, (name, format_perm(g))


def test_element_index_rows_match_composition():
    # every row is checked against the tuples it replaces
    for name, G in CAT.items():
        ix = element_index(G)
        els = ix.elements
        assert els == G.elements and els[0] == identity(G.degree), name
        for i in range(0, len(els), 7):
            want_right = [ix.position[compose(x, els[i])] for x in els]
            want_left = [ix.position[compose(els[i], x)] for x in els]
            assert list(ix.row(i)) == want_right and ix.left_row(i) == want_left, (name, i)
        assert ix.orders == [perm_order(x) for x in els], name
        classes = {frozenset(cls) for cls in ix.classes}
        assert classes == {
            frozenset(ix.position[conjugate(x, b)] for b in els) for x in els
        }, name


def test_is_normal():
    S3 = CAT["S3"]
    A3 = close((parse_perm("(1 2 3)"),))
    T2 = close((parse_perm("(1 2)", 3),))
    assert is_normal(S3, A3)
    assert not is_normal(S3, T2)
    V4 = close((parse_perm("(1 2)(3 4)"), parse_perm("(1 3)(2 4)")))
    assert is_normal(CAT["A4"], V4)
    with pytest.raises(ValueError):
        is_normal(S3, close((parse_perm("(1 2 3 4)"),)))


def test_is_normal_matches_conjugation_by_every_element():
    # every normal subgroup and every cyclic subgroup of each catalog group
    non_normal = 0
    for name, G in CAT.items():
        subs = {N.element_set: N for N in normal_subgroups(G)}
        for g in G.elements:
            C = close((g,), G.degree)
            subs.setdefault(C.element_set, C)
        for elem_set, H in subs.items():
            want = oracle_is_normal(G, elem_set)
            assert is_normal(G, H) == want, (name, H.generators)
            non_normal += not want
    assert non_normal > 0
    T2 = close((parse_perm("(1 2)", 3),))
    assert not oracle_is_normal(CAT["S3"], T2.element_set)
    assert not is_normal(CAT["S3"], T2)


def test_normal_subgroups_computed_once():
    G = close(CAT["S4"].generators, 4)
    first = normal_subgroups(G)
    assert G._normal is not None
    orders = [N.order for N in first]
    first.clear()
    again = normal_subgroups(G)
    assert [N.order for N in again] == orders == [1, 4, 12, 24]
    assert again is not normal_subgroups(G)
    assert all(a is b for a, b in zip(again, normal_subgroups(G)))


def test_normal_subgroups_counts():
    assert [N.order for N in normal_subgroups(CAT["C6"])] == [1, 2, 3, 6]
    assert [N.order for N in normal_subgroups(CAT["S3"])] == [1, 3, 6]
    assert [N.order for N in normal_subgroups(CAT["A4"])] == [1, 4, 12]
    assert [N.order for N in normal_subgroups(CAT["S4"])] == [1, 4, 12, 24]
    assert [N.order for N in normal_subgroups(CAT["Q8"])] == [1, 2, 4, 4, 4, 8]


def test_normal_subgroups_against_lattice_oracle():
    for name in (
        "C6", "V4", "S3", "D8", "Q8", "C3xC3", "A4", "D10", "F20", "S4", "A5",
        "C2xC2xC2", "C2xC6", "D12", "C3xS3", "C5xC5",
    ):
        G = CAT[name]
        want = {H for H in oracle_all_subgroups(G) if oracle_is_normal(G, H)}
        got = {N.element_set for N in normal_subgroups(G)}
        assert got == want, name
        assert len(got) == len(normal_subgroups(G)), name  # exactly once


def block_product_groups(seed, count):
    """Fixed-seed groups of order 24 to 2,000, each generated by two or
    three permutations that move the points of two blocks separately."""
    rng = random.Random(seed)
    groups = []
    while len(groups) < count:
        a, b = rng.randint(2, 5), rng.randint(2, 5)

        def perm():
            return tuple(rng.sample(range(a), a) + [a + x for x in rng.sample(range(b), b)])

        try:
            G = close([perm() for _ in range(rng.randint(2, 3))], a + b, element_cap=2000)
        except GroupTooLargeError:
            continue
        if G.order >= 24:
            groups.append(G)
    return groups


def test_normal_subgroups_match_closure_join_oracle():
    # joins as coset unions give the same lattice as joins closed from generators
    S6 = close((parse_perm("(1 2 3 4 5 6)"), parse_perm("(1 2)", 6)))
    assert S6.order == 720
    others = block_product_groups(1, 4)
    assert [G.order for G in others] == [36, 120, 240, 720]
    for G in [*CAT.values(), S6, *others]:
        got = [N.element_set for N in normal_subgroups(G)]
        assert len(got) == len(set(got)), G.generators
        assert set(got) == closure_join_lattice(G), G.generators


def test_quotient_index_odd_part_matches_torsion_closure():
    # on every quotient verify builds, the odd part on the quotient's own
    # index is the odd-generated subgroup closed in full, read at point 0
    for name, G in CAT.items():
        for N in normal_subgroups(G):
            Q, _ = quotient_with_map(G, N)
            want = {q[0] for q in torsion_subgroup(Q, odd).elements}
            assert ElementIndex(Q.generators).torsion(odd)[0] == want, (name, N.order)


def test_quotient_index_matches_the_listed_quotient():
    # the index on G/N's generator tuples against the index composed
    # from the listed quotient's elements, with q read as the point q[0]
    for name, G in CAT.items():
        for N in normal_subgroups(G):
            Q, _ = quotient_with_map(G, N)
            got = ElementIndex(Q.generators)
            listed = element_index(close(Q.generators, Q.degree))
            point = [q[0] for q in listed.elements]
            assert got.orders == [
                k for _, k in sorted(zip(point, listed.orders))
            ], (name, N.order)
            assert {frozenset(c) for c in got.classes} == {
                frozenset(point[i] for i in c) for c in listed.classes
            }, (name, N.order)
            want = {point[i] for i in listed.torsion(odd)[0]}
            assert got.torsion(odd)[0] == want, (name, N.order)


def test_quotient_certificate_refuses_a_non_normal_subgroup(monkeypatch):
    # with the normality test bypassed, S4 on the cosets of <(1 2)(3 4)>
    # gives permutation columns that do not act regularly
    import fqlab.lattice as lattice

    S4, H = CAT["S4"], close((parse_perm("(1 2)(3 4)"),))
    monkeypatch.setattr(lattice, "is_normal", lambda group, sub: True)
    with pytest.raises(InternalInvariantError):
        quotient_with_map(S4, H)


def test_odd_quotient_check_reads_the_quotient_side(monkeypatch):
    # the check compares the quotient's own odd part with the image of
    # G's, so a wrong quotient side must fail it
    import fqlab.sweeps as sweeps

    assert verify_odd_quotient(CAT["S3"]).passed

    class TrivialOddPart(ElementIndex):
        def torsion(self, pred):
            return {0}, []

    monkeypatch.setattr(sweeps, "ElementIndex", TrivialOddPart)
    assert not verify_odd_quotient(CAT["S3"]).passed


def test_normal_subgroups_cap():
    S7 = close((parse_perm("(1 2 3 4 5 6 7)"), parse_perm("(1 2)", 7)))
    assert S7.order == 5040
    with pytest.raises(GroupTooLargeError):
        normal_subgroups(S7)


def test_quotient_examples():
    S3 = CAT["S3"]
    assert quotient(S3, close((), 3)).order == 6
    A3 = close((parse_perm("(1 2 3)"),))
    assert quotient(S3, A3).order == 2
    V4 = close((parse_perm("(1 2)(3 4)"), parse_perm("(1 3)(2 4)")))
    assert quotient(CAT["A4"], V4).order == 3
    with pytest.raises(ValueError):
        quotient(S3, close((parse_perm("(1 2)", 3),)))


def test_quotient_order_product():
    for name in ("C12", "S3", "D12", "A4", "S4", "F20", "Q8", "C3xS3"):
        G = CAT[name]
        for N in normal_subgroups(G):
            Q = quotient(G, N)
            assert Q.order * N.order == G.order, name
            assert Q.degree == G.order // N.order, name


def image_map(G, Q, label):
    # Q acts regularly, so the image of the element numbered i is the q
    # moving coset 0 to label[i]
    by_first = {q[0]: q for q in Q.elements}
    assert len(by_first) == Q.order
    return {x: by_first[label[i]] for i, x in enumerate(G.elements)}


def test_quotient_map_is_homomorphism():
    G = CAT["S4"]
    N = [M for M in normal_subgroups(G) if M.order == 4][0]
    Q, label = quotient_with_map(G, N)
    phi = image_map(G, Q, label)
    els = G.elements
    for g in els[::5]:
        for h in els[::7]:
            assert phi[compose(g, h)] == compose(phi[g], phi[h])


def test_quotient_map_numbers_cosets_by_least_element():
    # reference: key each element by the least element of its coset,
    # and number the cosets in increasing order of that key
    for name, G in CAT.items():
        for N in normal_subgroups(G):
            key = {g: min(compose(n, g) for n in N.elements) for g in G.elements}
            reps = sorted(set(key.values()))
            index_of = {rep: i for i, rep in enumerate(reps)}
            want = {g: tuple(index_of[key[compose(rep, g)]] for rep in reps) for g in G.elements}
            Q, label = quotient_with_map(G, N)
            assert label == [index_of[key[g]] for g in G.elements], (name, N.order)
            assert image_map(G, Q, label) == want, (name, N.order)
            assert Q.element_set == frozenset(want.values()), (name, N.order)
            assert Q.generators == tuple(want[g] for g in G.generators), (name, N.order)


def test_shape_examples():
    assert shape(CAT["C7"]) == ("cyclic", 7) or shape(CAT["C7"]).tag == "cyclic"
    assert shape(CAT["C7"]).parameter == 7
    assert shape(CAT["S3"]).tag == "dihedral"
    assert shape(CAT["S3"]).parameter == 3
    assert shape(CAT["A4"]).tag == "other"


def test_shape_degenerate_conventions():
    assert shape(CAT["C1"]).tag == "cyclic"
    assert shape(CAT["C2"]).tag == "cyclic"  # tie resolved to cyclic
    assert shape(CAT["C4"]).tag == "cyclic"
    assert shape(CAT["V4"]) .tag == "dihedral"
    assert shape(CAT["V4"]).parameter == 2
    assert shape(CAT["D8"]).tag == "dihedral"
    assert shape(CAT["Q8"]).tag == "other"
    assert shape(CAT["C2xC4"]).tag == "other"


def test_shape_relabeling_invariance():
    relabel = parse_perm("(1 4)(2 3)(5 8 6)", degree=8)
    for name in ("S3", "C6", "D12", "C2xC6"):
        G = CAT[name]
        gens = tuple(conjugate(extend_perm(g, 8), relabel) for g in G.generators)
        assert shape(close(gens, 8)) == shape(G), name


def reference_shape(G):
    """Shape from the definitions: cyclic when some element has order |G|,
    dihedral of order 2h when an involution b outside <r> inverts an
    element r of order h."""
    n = G.order
    e = identity(G.degree)

    def powers(g):
        out = [g]
        while out[-1] != e:
            out.append(compose(out[-1], g))
        return out

    cyclic = {g: powers(g) for g in G.elements}
    if any(len(c) == n for c in cyclic.values()):
        return ("cyclic", n)
    for r, rs in cyclic.items():
        if 2 * len(rs) != n:
            continue
        for b, bs in cyclic.items():
            if len(bs) == 2 and b not in rs and compose(compose(b, r), b) == inverse(r):
                return ("dihedral", len(rs))
    return ("other", 0)


def random_involution(rng, degree):
    pts = list(range(degree))
    rng.shuffle(pts)
    image = list(range(degree))
    for a, b in zip(pts[: rng.randint(1, degree // 2) * 2 : 2], pts[1::2]):
        image[a], image[b] = b, a
    return tuple(image)


def test_shape_matches_definition_on_catalog_and_quotients():
    seen = set()
    for name, G in CAT.items():
        for N in normal_subgroups(G):
            Q = quotient(G, N)
            sh = shape(Q)
            assert (sh.tag, sh.parameter) == reference_shape(Q), (name, N.order)
            seen.add(sh.tag)
    assert seen == {"cyclic", "dihedral", "other"}


def test_shape_matches_definition_on_random_groups():
    # each generator is a uniform permutation or an involution, so pairs
    # of involutions bring in dihedral groups; groups over 200 are skipped
    rng = random.Random(0)
    seen = []
    while len(seen) < 1000:
        degree = rng.randint(2, 7)
        gens = [
            random_involution(rng, degree)
            if rng.random() < 0.5
            else tuple(rng.sample(range(degree), degree))
            for _ in range(rng.randint(2, 3))
        ]
        try:
            G = close(gens, degree, element_cap=200)
        except GroupTooLargeError:
            continue
        sh = shape(G)
        assert (sh.tag, sh.parameter) == reference_shape(G), gens
        seen.append(sh.tag)
    assert min(seen.count(tag) for tag in ("cyclic", "dihedral", "other")) >= 100


def test_normal_sylow_quotient_examples():
    r = normal_sylow_quotient(CAT["S3"], 3)
    assert r.quotient.order == 6 and r.kernel_order == 1 and r.complement_order == 2
    r = normal_sylow_quotient(CAT["C15"], 5)
    assert r.quotient.order == 5 and r.kernel_order == 3 and r.complement_order == 1
    r = normal_sylow_quotient(CAT["F21"], 7)
    assert r.quotient.order == 21 and r.complement_order == 3
    assert (7 - 1) % r.complement_order == 0
    r = normal_sylow_quotient(CAT["F20"], 5)
    assert r.quotient.order == 20 and r.complement_order == 4


def test_normal_sylow_quotient_rejects_unanchored():
    with pytest.raises(ValueError):
        normal_sylow_quotient(CAT["A4"], 2)  # 4 divides 12
    with pytest.raises(ValueError):
        normal_sylow_quotient(CAT["F21"], 3)  # 7 = 1 mod 3 divides 21


def test_normal_sylow_quotient_catalog_sweep():
    hits = 0
    for name, G in CAT.items():
        for p in (2, 3, 5, 7, 11, 13):
            if p > G.order or not np_contains(G.order, p):
                continue
            r = normal_sylow_quotient(G, p)
            assert r.quotient_order == p * r.complement_order
            assert (p - 1) % r.complement_order == 0, (name, p)
            assert r.quotient.order * r.kernel_order == G.order, (name, p)
            hits += 1
    assert hits >= 12


def test_verify_odd_quotient_examples():
    assert verify_odd_quotient(CAT["S3"]).passed
    assert len(verify_odd_quotient(CAT["S3"]).entries) == 3
    assert verify_odd_quotient(CAT["C4"]).passed
    rep = verify_odd_quotient(CAT["S4"])
    assert rep.passed and len(rep.entries) == 4


def test_verify_odd_quotient_more():
    for name in ("C12", "D12", "A4", "F20", "F21", "Q8", "C3xS3", "C2xA4"):
        assert verify_odd_quotient(CAT[name]).passed, name


def test_quasiprimitive():
    assert is_quasiprimitive(CAT["C5"])
    assert is_quasiprimitive(CAT["C2"])
    assert is_quasiprimitive(CAT["S3"])
    assert is_quasiprimitive(CAT["A4"])
    assert is_quasiprimitive(CAT["D10"])
    assert is_quasiprimitive(CAT["F20"])
    assert is_quasiprimitive(CAT["PSL27"])
    assert not is_quasiprimitive(CAT["C6"])
    assert not is_quasiprimitive(CAT["C4"])
    with pytest.raises(ValueError):
        is_quasiprimitive(CAT["C15"])  # intransitive on 8 points


def test_verify_quasiprimitive_odd():
    r = verify_quasiprimitive_odd(CAT["C5"])
    assert r.quasiprimitive and r.odd_part_transitive and r.passed
    r = verify_quasiprimitive_odd(CAT["C2"])
    assert r.quasiprimitive and r.exempt and not r.odd_part_transitive and r.passed
    r = verify_quasiprimitive_odd(CAT["S3"])
    assert r.quasiprimitive and r.odd_part_transitive and r.passed


def test_verify_quasiprimitive_odd_catalog_sweep():
    for name, G in CAT.items():
        if len(orbits(G)) != 1:
            continue
        assert verify_quasiprimitive_odd(G).passed, name


def test_verify_restricted_quotient():
    r = verify_restricted_quotient(CAT["S3"], 2)
    assert r.status == "verified"
    assert r.quotient_shape.tag == "dihedral"
    for name, a in (("F21", 3), ("C15", 2), ("S4", 2), ("A4", 6), ("C7", 1)):
        assert verify_restricted_quotient(CAT[name], a).status == "hypotheses fail", name
    for name in ("D10", "D14"):
        assert verify_restricted_quotient(CAT[name], 2).status == "verified", name


def test_verify_restricted_quotient_never_violated():
    for name, G in CAT.items():
        if G.order > 60:
            continue
        for a in range(1, 13):
            assert verify_restricted_quotient(G, a).passed, (name, a)


def test_catalog_roundtrip():
    text = serialize_catalog(CAT)
    again = parse_catalog(text)
    assert list(again) == list(CAT)
    for name in CAT:
        assert again[name] == CAT[name]


def test_catalog_rejections():
    with pytest.raises(InputSyntaxError):
        parse_catalog("X (1 2)")  # missing colon
    with pytest.raises(InputSyntaxError):
        parse_catalog("X: (1 2)\nX: (1 3)")  # duplicate
    with pytest.raises(InputSyntaxError):
        parse_catalog("X:")  # no generators
    with pytest.raises(InputSyntaxError):
        parse_catalog("X: (1 1)")  # not a bijection
    try:
        parse_catalog("ok: (1 2)\nbad: (1 2")
    except InputSyntaxError as e:
        assert "line 2" in str(e)
    else:
        raise AssertionError("expected a syntax error")


def test_catalog_orders():
    expected = {
        "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7,
        "C8": 8, "C9": 9, "C10": 10, "C12": 12, "C15": 15, "V4": 4,
        "C2xC4": 8, "C2xC2xC2": 8, "C2xC6": 12, "C3xC3": 9, "C5xC5": 25,
        "S3": 6, "D8": 8, "D10": 10, "D12": 12, "D14": 14, "Q8": 8,
        "A4": 12, "S4": 24, "A5": 60, "S5": 120, "F20": 20, "F21": 21,
        "F39": 39, "F55": 55, "C3xS3": 18, "C2xA4": 24, "S3xS3": 36,
        "PSL27": 168,
    }
    assert {n: G.order for n, G in CAT.items()} == expected
