"""Permutation group tests.

Oracles: a subgroup-lattice walk (extend-by-one-element fixpoint) for
the normal-subgroup enumeration, and full-element conjugation scans for
normality.  Everything order-restricted is cross-checked against plain
element filtering.
"""

import math

import pytest

from fqlab.catalog import DEFAULT_CATALOG, load_catalog, parse_catalog, serialize_catalog
from fqlab.errors import GroupTooLargeError, InputSyntaxError, InternalInvariantError
from fqlab.numtheory import np_contains
from fqlab.permgroup import (
    PermGroup,
    close,
    compose,
    conjugate,
    cycle_decomposition,
    extend_perm,
    format_perm,
    identity,
    inverse,
    is_normal,
    is_quasiprimitive,
    is_transitive,
    normal_closure,
    normal_subgroups,
    normal_sylow_quotient,
    orbits,
    orbits_of,
    parse_perm,
    perm_order,
    quotient,
    quotient_with_map,
    shape,
    stabilizer_generators,
    torsion_subgroup,
    trivial_group,
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
    assert orbits(trivial_group(3)) == [(0,), (1,), (2,)]


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
        got = close(gens, G.degree) if gens else trivial_group(G.degree)
        assert got.element_set == element_filter_stabilizer(G, base), name


def test_torsion_subgroup_examples():
    assert torsion_subgroup(CAT["S3"], "odd").order == 3
    assert torsion_subgroup(CAT["C8"], "odd").order == 1
    K = torsion_subgroup(CAT["A4"], "divides:2")
    assert K.order == 4
    # the Klein four-group: normal, every element an involution or 1
    assert is_normal(CAT["A4"], K)
    assert all(perm_order(g) <= 2 for g in K.elements)


def test_torsion_subgroup_selectors():
    G = CAT["C12"]
    assert torsion_subgroup(G, "odd").order == 3
    assert torsion_subgroup(G, "divides:4").order == 4
    assert torsion_subgroup(G, "divides:6").order == 6
    assert torsion_subgroup(G, "odd_and_divides:6").order == 3
    assert torsion_subgroup(G, lambda k: True).order == 12
    with pytest.raises(ValueError):
        torsion_subgroup(G, "divides:0")
    with pytest.raises(ValueError):
        torsion_subgroup(G, "weird")


def test_odd_part_is_normal():
    for name in ("S3", "S4", "A4", "D12", "F20", "C2xA4", "S3xS3"):
        G = CAT[name]
        O = torsion_subgroup(G, "odd")
        assert oracle_is_normal(G, O.element_set), name


def test_restricted_part_containment():
    # the odd-and-dividing part always sits inside the dividing part
    for name, G in CAT.items():
        if G.order > 60:
            continue
        for a in range(1, 13):
            inner = torsion_subgroup(G, f"odd_and_divides:{a}")
            outer = torsion_subgroup(G, f"divides:{a}")
            assert inner.element_set <= outer.element_set, (name, a)


def test_normal_closure():
    G = CAT["S3"]
    assert normal_closure(G, (parse_perm("(1 2 3)"),)).order == 3
    assert normal_closure(G, (parse_perm("(1 2)", 3),)).order == 6
    assert normal_closure(CAT["A4"], (parse_perm("(1 2)(3 4)"),)).order == 4
    with pytest.raises(ValueError):
        normal_closure(G, (parse_perm("(1 2 3 4)"),))


def test_normal_closure_matches_closure_of_all_conjugates():
    # one seed per cyclic subgroup of every catalog group, against the
    # closure of the seed's conjugates by every element
    for name, G in CAT.items():
        seen = set()
        for g in G.elements:
            cyclic = frozenset(naive_closure((g,), G.degree))
            if cyclic in seen:
                continue
            seen.add(cyclic)
            conjugates = sorted({conjugate(g, b) for b in G.elements})
            want = naive_closure(conjugates, G.degree)
            assert normal_closure(G, (g,)).elements == want, (name, format_perm(g))


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


def test_normal_subgroups_counts():
    assert [N.order for N in normal_subgroups(CAT["C6"])] == [1, 2, 3, 6]
    assert [N.order for N in normal_subgroups(CAT["S3"])] == [1, 3, 6]
    assert [N.order for N in normal_subgroups(CAT["A4"])] == [1, 4, 12]
    assert [N.order for N in normal_subgroups(CAT["S4"])] == [1, 4, 12, 24]
    assert [N.order for N in normal_subgroups(CAT["Q8"])] == [1, 2, 4, 4, 4, 8]


def test_normal_subgroups_against_lattice_oracle():
    for name in ("C6", "V4", "S3", "D8", "Q8", "C3xC3", "A4", "D10", "F20", "S4", "A5"):
        G = CAT[name]
        want = {H for H in oracle_all_subgroups(G) if oracle_is_normal(G, H)}
        got = {N.element_set for N in normal_subgroups(G)}
        assert got == want, name
        assert len(got) == len(normal_subgroups(G)), name  # exactly once


def test_normal_subgroups_cap():
    with pytest.raises(GroupTooLargeError):
        normal_subgroups(CAT["S4"], order_cap=10)


def test_quotient_examples():
    S3 = CAT["S3"]
    assert quotient(S3, trivial_group(3)).order == 6
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


def test_quotient_map_is_homomorphism():
    G = CAT["S4"]
    N = [M for M in normal_subgroups(G) if M.order == 4][0]
    Q, phi = quotient_with_map(G, N)
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
            Q, phi = quotient_with_map(G, N)
            assert phi == want, (name, N.order)
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
