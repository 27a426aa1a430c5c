"""The verification sweeps behind ``fqlab verify``.

Each row checks one structural fact on one subject and reads pass or
fail; a violated internal invariant counts as a fail.  The subjects are
the groups of a catalog and a fixed list of graph actions.  Only
``verify`` loads this module.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .graphs import (
    GraphAction,
    build_sw,
    build_w,
    graph_from_edges,
    odd_edge_core,
    transitivity_report,
)
from .numtheory import factor, np_contains
from .permgroup import (
    PermGroup,
    close,
    is_transitive,
    normal_sylow_quotient,
    verify_odd_quotient,
    verify_quasiprimitive_odd,
    verify_restricted_quotient,
)

RESTRICTED_MODULI = (1, 2, 3, 4, 5, 6)

ODD_CORE_FIXTURES = ("cycle5_dihedral", "k4_even", "k33_two_sided")


def graph_fixtures() -> list[tuple[str, GraphAction]]:
    """Named graph actions: small hand-built ones, then W and SW members."""

    def cycle(n: int):
        return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    k4 = graph_from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    k33 = graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    rot5 = tuple((i + 1) % 5 for i in range(5))
    ref5 = tuple(-i % 5 for i in range(5))
    rot6 = tuple((i + 1) % 6 for i in range(6))
    return [
        ("cycle5_dihedral", GraphAction(cycle(5), close((rot5, ref5), 5))),
        ("cycle6_rotations", GraphAction(cycle(6), close((rot6,), 6))),
        ("star4_leaf_swaps", GraphAction(star, close(((0, 2, 1, 3), (0, 1, 3, 2)), 4))),
        ("k4_even", GraphAction(k4, close(((1, 2, 0, 3), (1, 0, 3, 2)), 4))),
        (
            "k33_two_sided",
            GraphAction(
                k33,
                close(((1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3), (3, 4, 5, 0, 1, 2)), 6),
            ),
        ),
        ("w_1_5", build_w(1, 5)),
        ("w_2_3", build_w(2, 3)),
        ("w_2_4", build_w(2, 4)),
        ("sw_1_3", build_sw(1, 3)),
        ("sw_2_2", build_sw(2, 2)),
        ("sw_2_3", build_sw(2, 3)),
    ]


def verification_rows(groups: dict[str, PermGroup]) -> list[tuple[str, str, str]]:
    """(check, subject, result) rows for the catalog groups, then the graph fixtures."""
    rows: list[tuple[str, str, str]] = []

    def add(check: str, subject: str, check_passes) -> None:
        """Run check_passes; a violated invariant counts as a fail."""
        try:
            ok = bool(check_passes())
        except InternalInvariantError:
            ok = False
        rows.append((check, subject, "pass" if ok else "fail"))

    for name, group in groups.items():
        add("odd_quotient", name, lambda: verify_odd_quotient(group).passed)

    for name, group in groups.items():
        n = group.order
        for p, _ in factor(n):
            if np_contains(n, p):
                subject = f"{name}@{p}"
                add("sylow_quotient", subject, lambda: normal_sylow_quotient(group, p) is not None)

    for name, group in groups.items():
        add(
            "restricted_quotient",
            name,
            lambda: all(verify_restricted_quotient(group, a).passed for a in RESTRICTED_MODULI),
        )

    for name, group in groups.items():
        if is_transitive(group):
            add("quasiprimitive_odd", name, lambda: verify_quasiprimitive_odd(group).passed)

    fixtures = graph_fixtures()
    for name, action in fixtures:
        add("graph_implications", name, lambda: transitivity_report(action) is not None)

    for name, action in fixtures:
        if name in ODD_CORE_FIXTURES:
            edge = action.graph.edges[0]
            add("odd_edge_core", name, lambda: odd_edge_core(action, edge).passed)

    return rows
