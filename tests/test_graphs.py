"""Graph families, transitivity reports, local actions, odd cores, census."""

import itertools
import math
import random

import pytest

from fqlab.budgets import ELEMENT_CAP, MAX_GRAPH_EDGES
import fqlab.census as census
from fqlab.census import CensusEntry, amalgam_census, cubic_census
from fqlab.errors import InputSyntaxError, InternalInvariantError, ResourceBudgetError, SearchBudgetError
from fqlab.fpgroup import (
    free_product_of_cyclics,
    low_index_normal_subgroups,
    parse_presentation,
    subgroup_image,
)
from fqlab.fpgroup.coset import col_to_letter
from fqlab.graphs import (
    Graph,
    GraphAction,
    TransitivityReport,
    build_sw,
    build_w,
    graph_from_edges,
    graph_from_text,
    graph_to_text,
    implication_violations,
    local_action,
    transitivity_report,
)
from fqlab.graphs import _induced_on
from fqlab.permgroup import (
    GroupShape,
    PermGroup,
    _commutators_commute,
    close,
    is_transitive,
    shape,
)
from fqlab.sweeps import OddCoreReport, graph_fixtures, odd_edge_core


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph_from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def dihedral_on_cycle(n):
    return close(
        [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))], n
    )


def star4():
    # center 0, leaves 1..3, full symmetry = leaf permutations
    graph = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    return GraphAction(graph, close([(0, 2, 1, 3), (0, 2, 3, 1)], 4))


def k4_alternating():
    return GraphAction(complete(4), close([(1, 2, 0, 3), (1, 0, 3, 2)], 4))


def k33():
    return graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])


K33_ROT_TOP = (1, 2, 0, 3, 4, 5)
K33_SWAP_TOP = (1, 0, 2, 3, 4, 5)
K33_ROT_BOT = (0, 1, 2, 4, 5, 3)
K33_SWAP_BOT = (0, 1, 2, 4, 3, 5)
K33_SIDES = (3, 4, 5, 0, 1, 2)


def cube():
    graph = graph_from_edges(
        8, [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)]
    )
    bitswap = tuple((i & 4) | ((i & 1) << 1) | ((i >> 1) & 1) for i in range(8))
    bitrot = tuple(((i << 1) & 6) | ((i >> 2) & 1) for i in range(8))
    xor1 = tuple(i ^ 1 for i in range(8))
    return GraphAction(graph, close([xor1, bitswap, bitrot], 8))


def petersen():
    pairs = sorted(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[p], index[q])
        for p in pairs
        for q in pairs
        if p < q and not set(p) & set(q)
    ]
    graph = graph_from_edges(10, edges)

    def induced(f):
        return tuple(index[tuple(sorted((f[a], f[b])))] for a, b in pairs)

    return GraphAction(graph, close([induced((1, 0, 2, 3, 4)), induced((1, 2, 3, 4, 0))], 10))


def two_triangles():
    # disconnected: swap plus one rotation per triangle
    graph = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return GraphAction(graph, close([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3), (3, 4, 5, 0, 1, 2)], 6))


def test_graph_validation():
    g = Graph(3, ((1, 2), (0,), (0,)))
    assert g.edge_count == 2
    with pytest.raises(ValueError):
        Graph(2, ((1,),))
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))
    with pytest.raises(ValueError):
        Graph(2, ((1, 1), (0,)))
    with pytest.raises(ValueError):
        Graph(1, ((0,),))
    with pytest.raises(ValueError):
        Graph(2, ((5,), (0,)))
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 3)])
    # repeats collapse instead of erroring
    assert graph_from_edges(2, [(0, 1), (1, 0)]).edge_count == 1


def test_graph_basics():
    c4 = cycle(4)
    assert c4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert len(c4.arcs) == 8
    assert len(c4.adjacency[0]) == 2
    assert c4.valencies == (2,)
    assert c4.is_regular
    assert c4.is_connected
    assert c4.has_edge(0, 3) and not c4.has_edge(0, 2)
    two = graph_from_edges(4, [(0, 1), (2, 3)])
    assert not two.is_connected
    assert graph_from_edges(1, []).is_connected
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    assert path.valencies == (1, 2)
    assert not path.is_regular


def test_graph_text_round_trip():
    star = star4().graph
    text = graph_to_text(star)
    assert text == "4 3\n0 1\n0 2\n0 3\n"
    back = graph_from_text(text)
    assert back == star
    assert graph_from_text("2 0\n") == graph_from_edges(2, [])
    with pytest.raises(InputSyntaxError):
        graph_from_text("")
    with pytest.raises(InputSyntaxError):
        graph_from_text("4 9\n0 1\n")
    with pytest.raises(InputSyntaxError):
        graph_from_text("2 1\n0 x\n")
    with pytest.raises(InputSyntaxError):
        graph_from_text("2 1\n0 0\n")
    with pytest.raises(InputSyntaxError):
        graph_from_text("2 1\n0 1 2\n")


def test_graph_action_validation():
    c4 = cycle(4)
    GraphAction(c4, close([(1, 2, 3, 0)], 4))
    # swapping two adjacent vertices breaks edges of the 4-cycle
    with pytest.raises(ValueError):
        GraphAction(c4, close([(1, 0, 2, 3)], 4))
    with pytest.raises(ValueError):
        GraphAction(c4, close([(1, 2, 0)], 3))


def transitivity(rep):
    """Vertex-, edge-, arc- and local transitivity, in that order."""
    return (rep.vertex_transitive, rep.edge_transitive, rep.arc_transitive, rep.locally_transitive)


def test_report_cycle_full_dihedral():
    rep = transitivity_report(GraphAction(cycle(5), dihedral_on_cycle(5)))
    assert transitivity(rep) == (True, True, True, True)
    assert rep.vertex_orbit_count == 1 and rep.edge_orbit_count == 1
    assert rep.local_shapes == ((0, GroupShape("cyclic", 2)),)


def test_report_cycle_rotation_only():
    # rotations of an even cycle: edge- but not arc- or locally transitive,
    # allowed because the graph is regular of even valency
    rep = transitivity_report(GraphAction(cycle(6), close([tuple((i + 1) % 6 for i in range(6))], 6)))
    assert rep.vertex_transitive and rep.edge_transitive
    assert not rep.arc_transitive and not rep.locally_transitive


def test_report_star():
    rep = transitivity_report(star4())
    assert transitivity(rep) == (False, True, False, True)
    assert rep.vertex_orbit_count == 2 and rep.edge_orbit_count == 1
    assert rep.local_shapes == ((0, GroupShape("dihedral", 3)), (1, GroupShape("cyclic", 1)))


def test_report_k4():
    rep = transitivity_report(k4_alternating())
    assert all(transitivity(rep))
    assert rep.local_shapes == ((0, GroupShape("cyclic", 3)),)


def test_report_k33_subgroups():
    full = GraphAction(k33(), close([K33_ROT_TOP, K33_SWAP_TOP, K33_ROT_BOT, K33_SWAP_BOT, K33_SIDES], 6))
    rep = transitivity_report(full)
    assert all(transitivity(rep))

    one_sided = GraphAction(k33(), close([K33_ROT_TOP, K33_SWAP_TOP, K33_ROT_BOT, K33_SWAP_BOT], 6))
    rep = transitivity_report(one_sided)
    assert transitivity(rep) == (False, True, False, True)
    assert rep.vertex_orbit_count == 2
    assert all(s.tag == "dihedral" and s.parameter == 3 for _, s in rep.local_shapes)


def test_report_two_triangles():
    # disconnected: edge-transitive with trivial local actions is possible
    rep = transitivity_report(two_triangles())
    assert rep.vertex_transitive and rep.edge_transitive
    assert not rep.arc_transitive and not rep.locally_transitive


def fixture_corpus():
    yield GraphAction(cycle(5), dihedral_on_cycle(5))
    yield GraphAction(cycle(6), close([tuple((i + 1) % 6 for i in range(6))], 6))
    yield GraphAction(cycle(6), dihedral_on_cycle(6))
    yield star4()
    yield k4_alternating()
    yield GraphAction(k33(), close([K33_ROT_TOP, K33_SWAP_TOP, K33_ROT_BOT, K33_SWAP_BOT, K33_SIDES], 6))
    yield GraphAction(k33(), close([K33_ROT_TOP, K33_SWAP_TOP, K33_ROT_BOT, K33_SWAP_BOT], 6))
    yield GraphAction(k33(), close([K33_ROT_TOP, K33_ROT_BOT], 6))
    yield cube()
    yield petersen()
    yield two_triangles()
    # path on 3 vertices: its reflection is edge-transitive
    yield GraphAction(graph_from_edges(3, [(0, 1), (1, 2)]), close([(2, 1, 0)], 3))
    # path on 4 vertices: reflection leaves two edge orbits
    yield GraphAction(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), close([(3, 2, 1, 0)], 4))
    yield build_w(2, 3)
    yield build_w(1, 5)
    yield build_w(3, 4)
    yield build_sw(2, 2)
    yield build_sw(1, 4)
    yield build_sw(2, 3)


def test_implication_sweep():
    # the classical implications, re-checked from outside on every fixture
    checked = 0
    for ga in fixture_corpus():
        graph = ga.graph
        rep = transitivity_report(ga)
        assert implication_violations(rep, graph) == []
        if rep.arc_transitive:
            assert rep.edge_transitive
        if graph.is_connected and rep.locally_transitive:
            assert rep.edge_transitive
        if rep.edge_transitive and all(graph.adjacency):
            assert rep.vertex_orbit_count <= 2
        regular_even = graph.is_regular and graph.valencies[0] % 2 == 0
        if graph.is_connected and rep.edge_transitive and not regular_even:
            assert rep.locally_transitive
        if graph.is_connected and graph.edge_count:
            u, v = graph.edges[0]
            pair = is_transitive(local_action(ga, u)) and is_transitive(local_action(ga, v))
            assert pair == rep.locally_transitive
        checked += 1
    assert checked == 19


def test_implication_violations_name_each_broken_implication():
    def report(edge, arc, locally, vertex_orbits):
        return TransitivityReport(
            vertex_orbits == 1, edge, arc, locally, vertex_orbits, 1 if edge else 2, ()
        )

    c5 = cycle(5)
    assert implication_violations(report(True, True, True, 1), c5) == []
    assert implication_violations(report(False, True, False, 1), c5) == [
        "arc-transitive action missed edge-transitivity"
    ]
    assert implication_violations(report(False, False, True, 1), c5) == [
        "locally transitive action missed edge-transitivity"
    ]
    assert implication_violations(report(True, False, True, 3), c5) == [
        "edge-transitive action with three vertex orbits"
    ]
    assert implication_violations(report(True, False, False, 2), star4().graph) == [
        "edge-transitive, not regular of even valency, yet not locally transitive"
    ]
    # a regular graph of even valency may be edge- but not locally transitive
    assert implication_violations(report(True, False, False, 1), c5) == []


def family_actions_under_the_cap():
    # the W(k, r) group is S_k wr D_r, of order (k!)^r * 2r
    for k in range(1, 5):
        for r in range(3, 9):
            order = math.factorial(k) ** r * 2 * r
            if order <= ELEMENT_CAP:
                ga = build_w(k, r)
                assert ga.group.order == order, (k, r)
                yield ga
    for k in range(1, 5):
        for r in range(2, 7):
            yield build_sw(k, r)


def test_local_action_matches_element_filter():
    # Schreier generators against the full element list of the stabilizer
    actions = [ga for _, ga in graph_fixtures()] + list(family_actions_under_the_cap())
    assert len(actions) == 11 + 16 + 20
    for ga in actions:
        for v, neighbors in enumerate(ga.graph.adjacency):
            if neighbors:
                stab = [g for g in ga.group.elements if g[v] == v]
                want = _induced_on(neighbors, stab)
                assert local_action(ga, v) == want, (ga.graph.vertex_count, v)


def test_local_action_cycle():
    ga = GraphAction(cycle(7), dihedral_on_cycle(7))
    for v in range(7):
        L = local_action(ga, v)
        assert L.degree == 2 and L.order == 2
    rotation_only = GraphAction(cycle(7), close([tuple((i + 1) % 7 for i in range(7))], 7))
    assert local_action(rotation_only, 0).order == 1


def test_local_action_k4():
    L = local_action(k4_alternating(), 2)
    assert L.degree == 3 and L.order == 3
    assert is_transitive(L)
    assert L.elements == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_local_action_k33():
    ga = GraphAction(k33(), close([K33_ROT_TOP, K33_SWAP_TOP, K33_ROT_BOT, K33_SWAP_BOT], 6))
    for v in (0, 3):
        L = local_action(ga, v)
        assert L.degree == 3 and L.order == 6 and is_transitive(L)


def test_local_action_errors():
    lonely = GraphAction(graph_from_edges(3, [(0, 1)]), close([(1, 0, 2)], 3))
    with pytest.raises(ValueError):
        local_action(lonely, 2)
    with pytest.raises(ValueError):
        local_action(lonely, 7)


def test_w_family_sweep():
    for k in range(1, 5):
        for r in range(3, 9):
            ga = build_w(k, r)
            assert ga.graph.vertex_count == k * r
            assert ga.graph.valencies == (2 * k,)
            assert ga.graph.is_connected
            rep = transitivity_report(ga)
            assert rep.vertex_transitive and rep.arc_transitive


def test_w_small_cases():
    assert build_w(1, 5).graph.adjacency == cycle(5).adjacency
    ga = build_w(2, 3)
    assert ga.graph.vertex_count == 6 and ga.graph.valencies == (4,)
    rep = transitivity_report(ga)
    assert rep.edge_transitive and rep.arc_transitive
    with pytest.raises(ValueError):
        build_w(0, 5)
    with pytest.raises(ValueError):
        build_w(2, 2)


def test_w_reports_past_the_element_cap():
    # the local action (S_k x S_k) x| C2 has 2 (k!)^2 elements, over the
    # cap from k = 6 on; the commutator screen calls it other unlisted
    for k in (6, 40):
        rep = transitivity_report(build_w(k, 3))
        assert rep.vertex_transitive and rep.arc_transitive and rep.locally_transitive, k
        assert rep.local_shapes == ((0, GroupShape("other", 0)),), k


def test_w_6_3_report_lists_no_elements(monkeypatch):
    def refuse(group):
        raise AssertionError(f"listed the elements of {group!r}")

    ga = build_w(6, 3)
    monkeypatch.setattr(PermGroup, "elements", property(refuse))
    rep = transitivity_report(ga)
    assert rep.locally_transitive and rep.local_shapes[0][1].tag == "other"


def test_commutator_screen_passes_cyclic_and_dihedral_groups():
    # a cyclic or dihedral group has a cyclic derived subgroup, so the
    # screen must pass it on whatever generates it: here every element,
    # in shuffled orders, of C_n, D_n (V4 is D_2) on n or 2n points
    rng = random.Random(5)
    groups = []
    for n in range(1, 13):
        rot = tuple((i + 1) % n for i in range(n))
        groups.append(close([rot], n))
        if n >= 3:
            groups.append(dihedral_on_cycle(n))
    groups.append(close([(1, 0, 3, 2), (2, 3, 0, 1)], 4))
    for n in range(2, 7):
        # D_n acting regularly on 2n points
        rot = tuple((i + 1) % n for i in range(n)) + tuple(n + (i - 1) % n for i in range(n))
        flip = tuple(n + i for i in range(n)) + tuple(range(n))
        groups.append(close([rot, flip], 2 * n))
    for G in groups:
        assert shape(G).tag in ("cyclic", "dihedral"), G.generators
        for _ in range(5):
            gens = list(G.elements)
            rng.shuffle(gens)
            assert _commutators_commute(gens), G.generators
    # and it does call S4 other from its commutators alone
    assert not _commutators_commute([(1, 2, 3, 0), (1, 0, 2, 3), (0, 2, 1, 3)])


def test_family_edge_budget_is_checked_before_building():
    # W(k, r) has k^2 r edges and SW(k, r) has k r + k^2 r; W(100, 10)
    # sits at the budget, and a family past it is refused from the
    # parameters alone
    assert MAX_GRAPH_EDGES == 100 * 100 * 10
    with pytest.raises(ResourceBudgetError, match="W\\(100,11\\) has 110000 edges"):
        build_w(100, 11)
    with pytest.raises(ResourceBudgetError, match="SW\\(100,10\\) has 101000 edges"):
        build_sw(100, 10)


def test_sw_family_sweep():
    for k in range(1, 5):
        for r in range(2, 7):
            ga = build_sw(k, r)
            assert ga.graph.vertex_count == 2 * k * r
            assert ga.graph.valencies == (k + 1,)
            assert ga.graph.is_connected
            assert transitivity_report(ga).vertex_transitive


def test_sw_small_cases():
    # one-column case degenerates to an even cycle, in vertex order
    assert build_sw(1, 4).graph.adjacency == cycle(8).adjacency
    ga = build_sw(2, 2)
    assert ga.graph.vertex_count == 8 and ga.graph.valencies == (3,)
    assert ga.graph.is_connected
    with pytest.raises(ValueError):
        build_sw(0, 3)
    with pytest.raises(ValueError):
        build_sw(2, 1)


def test_odd_core_k4():
    report = odd_edge_core(k4_alternating(), (0, 1))
    assert report.core.order == 12
    assert report.odd_restriction_commutes == (True, True)
    assert report.odd_local_transitive == (True, True)
    assert report.core_edge_transitive
    assert report.core_orbit_sizes == (4, 4)
    assert report.passed


def test_odd_core_c5():
    # order-2 stabilizers have trivial odd part: conditional checks are vacuous
    report = odd_edge_core(GraphAction(cycle(5), dihedral_on_cycle(5)), (0, 1))
    assert report.core.order == 1
    assert report.odd_local_transitive == (False, False)
    assert report.odd_restriction_commutes == (True, True)
    assert not report.core_edge_transitive
    assert report.core_orbit_sizes == (1, 1)
    assert report.passed


def test_odd_core_odd_stabilizers():
    # all-odd stabilizers: the core is the whole group and the vertex
    # count splits as the sum of the two point orbits
    ga = GraphAction(k33(), close([K33_ROT_TOP, K33_ROT_BOT], 6))
    report = odd_edge_core(ga, (0, 3))
    assert report.core.order == 9
    assert report.odd_local_transitive == (True, True)
    assert report.core_edge_transitive
    assert report.core_orbit_sizes == (3, 3)
    assert report.passed


def test_odd_core_edge_orbit_matches_group():
    # when the premise holds, the core already reaches every edge the
    # full group reaches
    for ga, edge in ((k4_alternating(), (0, 1)), (petersen(), (0, 7))):
        report = odd_edge_core(ga, edge)
        if all(report.odd_local_transitive):
            assert report.core_edge_transitive == transitivity_report(ga).edge_transitive


def test_odd_core_of_action_over_the_element_cap():
    # the acting group of W(3,6) is over the cap; its vertex stabilizers are not
    ga = build_w(3, 6)
    assert math.factorial(3) ** 6 * 2 * 6 > ELEMENT_CAP
    report = odd_edge_core(ga, ga.graph.edges[0])
    assert report.passed
    assert report.core.order == 729


def test_odd_core_errors():
    with pytest.raises(ValueError):
        odd_edge_core(k4_alternating(), (0, 9))
    ga = GraphAction(graph_from_edges(3, [(0, 1), (1, 2)]), close([(2, 1, 0)], 3))
    with pytest.raises(ValueError):
        odd_edge_core(ga, (0, 2))


def test_cubic_census_small():
    result = cubic_census(24)
    assert result.complete
    assert [(e.order, e.certificate_index, e.flagged) for e in result.entries] == [
        (2, 6, True),
        (4, 12, False),
        (6, 18, False),
        (8, 24, False),
    ]


def bfs_words(table):
    m = table.n_cosets
    words = [None] * m
    words[0] = ()
    queue = [0]
    while queue:
        a = queue.pop(0)
        for c in range(table.n_cols):
            b = table.rows[a][c]
            if words[b] is None:
                words[b] = words[a] + (col_to_letter(c),)
                queue.append(b)
    return words


def coset_graph_action(table):
    """Vertices: cycles of the order-3 column; edges via the order-2
    column; symmetry: left translations, block by block."""
    h = table.column_perm(0)
    a = table.column_perm(1)
    m = table.n_cosets
    block = [-1] * m
    nblocks = 0
    for start in range(m):
        if block[start] < 0:
            cur = start
            while block[cur] < 0:
                block[cur] = nblocks
                cur = h[cur]
            nblocks += 1
    edges = {tuple(sorted((block[x], block[a[x]]))) for x in range(m)}
    graph = graph_from_edges(nblocks, edges)
    words = bfs_words(table)
    gens = []
    for g in (1, 2):
        start = table.trace(0, (g,))
        lam = [table.trace(start, words[x]) for x in range(m)]
        blockperm = [-1] * nblocks
        for x in range(m):
            if blockperm[block[x]] < 0:
                blockperm[block[x]] = block[lam[x]]
            else:
                assert blockperm[block[x]] == block[lam[x]]
        gens.append(tuple(blockperm))
    return GraphAction(graph, close(gens, nblocks))


def test_cubic_census_certificates_give_arc_transitive_graphs():
    result = cubic_census(48)
    assert tuple(e.order for e in result.entries) == (2, 4, 6, 8, 14, 16)
    for entry in result.entries:
        if entry.flagged:
            assert entry.order < 4
            continue
        ga = coset_graph_action(entry.table)
        assert ga.graph.vertex_count == entry.order
        assert ga.graph.valencies == (3,)
        assert ga.graph.is_connected
        rep = transitivity_report(ga)
        assert rep.vertex_transitive and rep.arc_transitive
    # the order-4 certificate is the complete graph
    four = next(e for e in result.entries if e.order == 4)
    assert coset_graph_action(four.table).graph.adjacency == complete(4).adjacency


def test_cubic_orders_frozen():
    orders = tuple(e.order for e in cubic_census(120).entries)
    assert orders == (2, 4, 6, 8, 14, 16, 18, 20, 24, 26, 32, 38, 40)
    assert 4 in orders
    assert all(n % 2 == 0 for n in orders)
    assert len(orders) / 120 < 0.5


def assert_stabilizer_embeds(pres, s, result):
    """Oracle by closure: in every certificate the stabilizer columns
    generate exactly s permutations, and the last generator's column is
    not one of them."""
    last = pres.n_gens - 1
    for e in result.entries:
        cols = [e.table.column_perm(i) for i in range(last)]
        stabilizer = set(close(cols, e.certificate_index).elements)
        assert len(stabilizer) == s, (e.order, e.certificate_index)
        assert e.table.column_perm(last) not in stabilizer, (e.order, e.certificate_index)


def test_cubic_census_stabilizer_embeds():
    result = cubic_census(240)
    assert len(result.entries) == 25
    assert_stabilizer_embeds(free_product_of_cyclics((3, 2)), 3, result)


def test_amalgam_census():
    pres = parse_presentation("gens: s t\nrels: s^2, t^3")
    result = amalgam_census(pres, 2, 24)
    # C2 is gone: there t maps to 1, inside the stabilizer
    assert [(e.order, e.certificate_index) for e in result.entries] == [
        (3, 6),
        (6, 12),
        (9, 18),
        (12, 24),
    ]
    assert [e.flagged for e in result.entries] == [True, False, False, False]
    assert_stabilizer_embeds(pres, 2, result)
    trivial = amalgam_census(pres, 1, 12)
    assert [(e.order, e.certificate_index) for e in trivial.entries] == [(3, 3)]
    assert_stabilizer_embeds(pres, 1, trivial)
    with pytest.raises(ValueError):
        amalgam_census(pres, 0, 12)


def test_amalgam_census_drops_a_trivial_stabilizer():
    # x^-3 and x^4 make x trivial, so no quotient holds a stabilizer of order 4
    pres = parse_presentation("gens: x y\nrels: x^4, x^-3")
    result = amalgam_census(pres, 4, 24)
    assert result.complete and result.entries == ()


def test_amalgam_census_keeps_the_stabilizer_order():
    pres = parse_presentation("gens: x y\nrels: x^6, y^2")
    result = amalgam_census(pres, 6, 30)
    assert [(e.order, e.certificate_index) for e in result.entries] == [
        (2, 12),
        (3, 18),
        (4, 24),
        (5, 30),
    ]
    assert_stabilizer_embeds(pres, 6, result)
    # order 1 drops out: y lies in <x> in every index-6 table where x has order 6
    six = [t for t in low_index_normal_subgroups(pres, 6) if t.n_cosets == 6]
    full = [t for t in six if len(subgroup_image(t, (0,))) == 6]
    assert len(full) == 2
    assert all(t.rows[0][2] in subgroup_image(t, (0,)) for t in full)


def test_census_checks_lagrange(monkeypatch):
    # an image of s cosets that misses the reverser, forced on every
    # table, meets the trivial quotient first, where 3 does not divide 1
    monkeypatch.setattr(census, "subgroup_image", lambda t, gens: [-1, -1, -1])
    with pytest.raises(InternalInvariantError, match="order 1"):
        cubic_census(12)


def test_census_budget(monkeypatch):
    monkeypatch.setenv("FQLAB_BUDGET", "10")
    with pytest.raises(SearchBudgetError):
        cubic_census(120)
    partial = cubic_census(120, allow_partial=True)
    assert not partial.complete
