"""Whole-system acceptance checks, one test per shipped guarantee.

Each test is self-contained and ends with an explicit pass line, so a
verbose run reads as a checklist.  Runtime ceilings are asserted where
a guarantee includes one.
"""

import functools
import math
import time

from coset_oracle import verify_table

import fqlab.numtheory as numtheory
from fqlab.catalog import load_catalog
from fqlab.cli import dispatch
from fqlab.fpgroup import (
    fq_up_to,
    classify_density,
    parse_presentation,
    smith_normal_form,
    smooth_quotients,
)
from fqlab.census import cubic_census
from fqlab.graphs import build_sw, build_w, transitivity_report
from fqlab.numtheory import SieveSet, density_series, factor, np_contains
from fqlab.permgroup import is_transitive
from fqlab.sweeps import (
    is_quasiprimitive,
    normal_sylow_quotient,
    verify_odd_quotient,
    verify_quasiprimitive_odd,
)

FREE_RANK_ONE = "gens: x\n"
TWO_INVOLUTIONS = "gens: a b\nrels: a^2, b^2\n"
PLANE_QUARTER_TURN = "gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n"
INVOLUTION_MEETS_CUBE = "gens: a b\nrels: a^2, b^3\n"


class stopwatch:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.start


def passed(name):
    print(f"PASS {name}")


def test_sieve_agrees_with_divisor_oracle():
    limit = 10**5
    with stopwatch() as sw:
        for p in (2, 3, 5, 7, 11, 13):
            bits = SieveSet("np", p).segment_bits(1, limit + 1)
            mismatches = [
                n for n in range(1, limit + 1) if bool(bits[n - 1]) != np_contains(n, p)
            ]
            assert mismatches == [], (p, mismatches[:5])
    assert sw.seconds < 30
    passed("sieve agrees with the divisor oracle on 1..10^5 for six primes")


def test_density_trends_at_large_checkpoints():
    checkpoints = [10**4, 10**5, 10**6, 10**7]
    with stopwatch() as sw:
        series = density_series("np:3", checkpoints)
    assert sw.seconds < 10
    densities = [cp.count / cp.limit for cp in series.checkpoints]
    assert all(a > b for a, b in zip(densities, densities[1:]))
    sp = density_series("sp:6", [10**3, 10**6])
    early, late = [cp.count / cp.limit for cp in sp.checkpoints]
    assert early < late
    assert late > 0.5
    passed("anchored-set density falls, union-set density rises past one half")


def test_density_classifications():
    cases = [
        (FREE_RANK_ONE, "infinite_cyclic"),
        (TWO_INVOLUTIONS, "infinite_dihedral"),
        (PLANE_QUARTER_TURN, "density_zero"),
        (INVOLUTION_MEETS_CUBE, "density_zero"),
    ]
    for text, tag in cases:
        pres = parse_presentation(text)
        with stopwatch() as sw:
            dc = classify_density(pres)
        assert dc.tag == tag, text
        assert sw.seconds < 5, text
    passed("all four fixture presentations land in their density class")


def test_quotient_orders_carry_checkable_certificates():
    with stopwatch() as sw:
        free = fq_up_to(parse_presentation(FREE_RANK_ONE), 30)
        dinf = fq_up_to(parse_presentation(TWO_INVOLUTIONS), 30)
    assert sw.seconds < 60
    assert free.orders == tuple(range(1, 31))
    assert dinf.orders == (1, 2) + tuple(range(4, 31, 2))
    for result in (free, dinf):
        for order in result.orders:
            table = result.certificates[order]
            assert table.n_cosets == order
            assert verify_table(table)
            assert table.image_group().order == table.n_cosets
    passed("quotient order lists match and every certificate re-traces regularly")


def test_catalog_group_sweeps():
    groups = load_catalog()
    assert len(groups) >= 15
    assert all(g.order <= 200 for g in groups.values())
    failures = []
    for name, group in groups.items():
        if not verify_odd_quotient(group).passed:
            failures.append(("odd_quotient", name))
    for name, group in groups.items():
        n = group.order
        for p, _ in factor(n):
            if not np_contains(n, p):
                continue
            rep = normal_sylow_quotient(group, p)
            if rep.group_order != rep.kernel_order * rep.quotient_order:
                failures.append(("sylow_order", name, p))
            if (p - 1) % rep.complement_order != 0:
                failures.append(("sylow_complement", name, p))
    for name, group in groups.items():
        if group.degree < 3 or not is_transitive(group):
            continue
        if not is_quasiprimitive(group):
            continue
        if not verify_quasiprimitive_odd(group).passed:
            failures.append(("quasiprimitive_odd", name))
    assert failures == []
    passed("odd-part, anchored-Sylow and quasiprimitive sweeps have zero failures")


def lcg(seed=20_260_819):
    state = seed
    while True:
        state = (1103515245 * state + 12345) % (1 << 31)
        yield state


def matmul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def det(a):
    # Laplace expansion along the first row; the matrices here are at most 4x4
    if not a:
        return 1
    return sum(
        (-1) ** j * x * det([row[:j] + row[j + 1 :] for row in a[1:]]) for j, x in enumerate(a[0])
    )


def test_diagonalization_on_pseudo_exhaustive_matrices():
    stream = lcg()
    shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    checked = 0
    while checked < 1000:
        for n_rows, n_cols in shapes:
            mat = tuple(
                tuple(next(stream) % 19 - 9 for _ in range(n_cols)) for _ in range(n_rows)
            )
            form = smith_normal_form(mat)
            product = matmul(matmul(form.row_transform, mat), form.col_transform)
            for i in range(n_rows):
                for j in range(n_cols):
                    expected = form.invariants[j] if i == j else 0
                    assert product[i][j] == expected, mat
            nonzero = [d for d in form.invariants if d]
            assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), mat
            assert det(form.row_transform) in (1, -1), mat
            assert det(form.col_transform) in (1, -1), mat
            if n_rows == n_cols:
                diag = 1
                for i in range(n_rows):
                    diag *= product[i][i]
                assert det(mat) in (diag, -diag), mat
            checked += 1
            if checked == 1000:
                break
    passed("1000 small matrices diagonalize exactly with dividing invariants")


def check_implications(action, violations):
    """Re-check the classical implications on a full report."""
    graph = action.graph
    rep = transitivity_report(action)
    if rep.arc_transitive and not rep.edge_transitive:
        violations.append(("arc_without_edge", graph.vertex_count))
    if graph.is_connected and rep.locally_transitive and not rep.edge_transitive:
        violations.append(("local_without_edge", graph.vertex_count))
    if rep.edge_transitive and all(graph.adjacency) and rep.vertex_orbit_count > 2:
        violations.append(("too_many_vertex_orbits", graph.vertex_count))
    regular_even = graph.is_regular and len(graph.adjacency[0]) % 2 == 0
    if (
        graph.is_connected
        and rep.edge_transitive
        and not regular_even
        and not rep.locally_transitive
    ):
        violations.append(("edge_without_local", graph.vertex_count))


def test_graph_families_and_implications():
    violations = []
    full_reports = 0
    for k in range(1, 5):
        for r in range(3, 9):
            action = build_w(k, r)
            graph = action.graph
            assert graph.vertex_count == k * r
            assert graph.valencies == (2 * k,)
            assert graph.is_connected
            check_implications(action, violations)
            full_reports += 1
    for k in range(1, 5):
        for r in range(2, 7):
            action = build_sw(k, r)
            graph = action.graph
            assert graph.vertex_count == 2 * k * r
            assert graph.valencies == (k + 1,)
            assert graph.is_connected
            check_implications(action, violations)
            full_reports += 1
    assert violations == []
    assert full_reports == 44
    passed("both graph families check out and the implication suite is clean")


def test_cubic_census_slice():
    with stopwatch() as sw:
        orders = tuple(e.order for e in cubic_census(120).entries)
    assert sw.seconds < 120
    assert 4 in orders
    assert all((3 * m) % 6 == 0 for m in orders)
    members_up_to_120 = [m for m in orders if m <= 120]
    assert len(members_up_to_120) / 120 < 0.5
    passed("census slice holds the complete graph case and stays sparse")


def test_smooth_quotients_embed_in_full_quotients():
    for s, t in ((2, 2), (2, 3), (3, 3)):
        smooth = smooth_quotients((s, t), 48).orders
        pres = parse_presentation(f"gens: x y\nrels: x^{s}, y^{t}\n")
        full = fq_up_to(pres, 48).orders
        assert set(smooth) <= set(full), (s, t)
        step = math.lcm(s, t)
        assert all(m % step == 0 for m in smooth), (s, t)
        assert smooth, (s, t)
    passed("factor-preserving quotient orders embed and respect the lcm")


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys, monkeypatch):
    z_path = tmp_path / "z.pres"
    z_path.write_text(FREE_RANK_ONE)
    dinf_path = tmp_path / "dinf.pres"
    dinf_path.write_text(TWO_INVOLUTIONS)
    cases = [
        ["sieve", "--set", "np:3", "--limit", "100000"],
        ["density", "--set", "np:3", "--checkpoints", "10000,100000"],
        ["density", "--set", "sp:6", "--checkpoints", "1000,100000"],
        ["classify", "--presentation", str(dinf_path)],
        ["fq", "--presentation", str(z_path), "--max-index", "30"],
        ["smooth", "--orders", "2,3", "--max-index", "48"],
        ["census", "--max-index", "120"],
        ["graphs", "--family", "w", "--k", "3", "--r", "5"],
        ["verify"],
    ]
    for argv in cases:
        outputs = []
        for _ in range(2):
            assert dispatch(argv) == 0, argv
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv
        assert outputs[0], argv
    argv = ["density", "--set", "np:3", "--checkpoints", "10000,100000"]
    assert dispatch(argv) == 0
    whole = capsys.readouterr().out
    small = functools.partial(density_series, segment_size=4099)
    monkeypatch.setattr(numtheory, "density_series", small)
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == whole
    passed("repeated runs, in one segment or many, emit byte-identical output")
