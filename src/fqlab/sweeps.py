"""The verification sweeps behind ``fqlab verify``, and the checks they run.

Each row checks one structural fact on one subject and reads pass or
fail; a violated internal invariant counts as a fail, and an exhausted
budget stops the sweep, naming the check, the subject and the rows
done.  The subjects are the groups of a catalog and a fixed list of
graph actions.  Only ``verify`` loads this module.

The facts: the odd-generated subgroup maps onto its counterpart in any
quotient; an order anchored at a prime p gives a cyclic-by-p split
quotient with complement order dividing p - 1; quasiprimitive groups
of order above 2 have a transitive odd-generated part; and the odd
parts of two adjacent vertex stabilizers generate an edge core whose
orbits local transitivity constrains.  The core lists only the vertex
stabilizers, each closed once from its Schreier generators; the local
actions it compares come unclosed from ``graphs`` and are listed only
there.

The group checks run on each catalog group's element index
(``lattice``): its lattice, torsion subgroups, Sylow quotients and
coset labels are numbers.  Each quotient arrives certified regular by
``orbit.is_regular_action``, the certificate the quotient search runs
on its tables, so its generator tuples are the rows of its own element
index, and the quotient side of the odd-part check runs the torsion
closure of ``torsion_subgroup`` on that index without closing it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GroupTooLargeError, InternalInvariantError
from .graphs import (
    GraphAction,
    _act_edge,
    _induced_on,
    _orbit_reps,
    build_sw,
    build_w,
    graph_from_edges,
    transitivity_report,
)
from .lattice import (
    ElementIndex,
    element_index,
    is_normal,
    normal_subgroups,
    quotient,
    quotient_with_map,
    torsion_subgroup,
)
from .orbit import orbit
from .permgroup import (
    GroupShape,
    PermGroup,
    close,
    is_transitive,
    shape,
    stabilizer_generators,
)
from .pointwise import factor, np_contains, sp_contains


class OddPartEntry(NamedTuple):
    kernel_order: int
    matched: bool


class OddPartReport(NamedTuple):
    """Per-kernel comparison of odd-generated parts across a quotient."""

    group_order: int
    entries: tuple[OddPartEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.matched for e in self.entries)


def verify_odd_quotient(group: PermGroup) -> OddPartReport:
    """Check, for every normal subgroup N, N = 1 and N = G included, that
    quotienting commutes with taking the odd-generated part.

    ``quotient_with_map`` returns a Q certified regular on the |G:N|
    cosets, so Q's generator tuples are the rows of its own element
    index, and Q's odd part is the torsion closure on that index,
    computed apart from G's odd part mapped through the coset labels.
    """
    odd_part, _ = element_index(group).torsion(lambda k: k % 2 == 1)
    entries = []
    for N in normal_subgroups(group):
        Q, label = quotient_with_map(group, N)
        lhs, _ = ElementIndex(Q.generators).torsion(lambda k: k % 2 == 1)
        entries.append(OddPartEntry(N.order, lhs == {label[i] for i in odd_part}))
    return OddPartReport(group.order, tuple(entries))


class SylowQuotientReport(NamedTuple):
    """Witness decomposition of the distinguished quotient at a prime.

    The quotient has order prime * complement_order, a normal subgroup
    of order prime, and a cyclic complement quotient whose order divides
    prime - 1.
    """

    prime: int
    group_order: int
    kernel_order: int
    complement_order: int
    quotient: PermGroup

    @property
    def quotient_order(self) -> int:
        return self.prime * self.complement_order


def normal_sylow_quotient(group: PermGroup, p: int) -> SylowQuotientReport:
    """Quotient by the coprime part of the centralizer of the Sylow p-part.

    Requires the group order to be anchored at p (p divides exactly
    once, no divisor above 1 in the class of 1 mod p): then the Sylow
    p-subgroup P is normal, its centralizer splits as P times a
    p-coprime part K, K is normal, and G/K is a split extension of P by
    a cyclic group of order dividing p - 1.  Every subgroup is built and
    every quotient taken on the element index of G.
    """
    n = group.order
    if not np_contains(n, p):
        raise ValueError(f"group order {n} is not anchored at {p}")
    ix = element_index(group)
    zi = next((i for i, k in enumerate(ix.orders) if k == p), None)
    if zi is None:
        raise InternalInvariantError(f"no element of order {p} found")
    P = ix.subgroup(*ix.closure([zi]))
    if not is_normal(group, P):
        raise InternalInvariantError("Sylow subgroup not normal despite anchored order")
    # x z = z x
    cent = [i for i, (a, b) in enumerate(zip(ix.row(zi), ix.left_row(zi))) if a == b]
    k_elems = [i for i in cent if math.gcd(ix.orders[i], p) == 1]
    members, kept = ix.closure(k_elems)
    if len(members) != len(k_elems):
        raise InternalInvariantError("coprime part of the centralizer is not closed")
    if len(cent) != p * len(k_elems):
        raise InternalInvariantError("centralizer does not split as expected")
    K = ix.subgroup(members, kept)
    if not is_normal(group, K):
        raise InternalInvariantError("coprime part of the centralizer is not normal")
    Q = quotient(group, K)
    # the image of P in Q is K P / K; Q over it is G / K P
    KP = ix.subgroup(*ix.closure(kept + [zi]))
    if KP.order != p * K.order or not is_normal(group, KP):
        raise InternalInvariantError("image of the Sylow part is not normal of order p")
    comp = quotient(group, KP)
    sh = shape(comp)
    if sh.tag != "cyclic" or (p - 1) % comp.order != 0:
        raise InternalInvariantError("complement is not cyclic of order dividing p - 1")
    return SylowQuotientReport(p, n, K.order, comp.order, Q)


def is_quasiprimitive(group: PermGroup) -> bool:
    """Is every nontrivial normal subgroup transitive?  Requires transitivity."""
    if not is_transitive(group):
        raise ValueError("group is not transitive")
    return all(N.order == 1 or is_transitive(N) for N in normal_subgroups(group))


class QuasiprimitiveOddReport(NamedTuple):
    group_order: int
    quasiprimitive: bool
    odd_part_transitive: bool
    exempt: bool

    @property
    def passed(self) -> bool:
        if not self.quasiprimitive or self.exempt:
            return True
        return self.odd_part_transitive


def verify_quasiprimitive_odd(group: PermGroup) -> QuasiprimitiveOddReport:
    """Quasiprimitive groups of order above 2 must have a transitive
    odd-generated part; order 2 is the lone exception."""
    qp = is_quasiprimitive(group)
    odd_part = torsion_subgroup(group, lambda k: k % 2 == 1)
    return QuasiprimitiveOddReport(group.order, qp, is_transitive(odd_part), group.order == 2)


class RestrictedQuotientReport(NamedTuple):
    """Outcome of the non-cyclic-quotient check at a modulus."""

    group_order: int
    status: str  # "verified", "violated", or "hypotheses fail"
    quotient_shape: GroupShape | None = None

    @property
    def passed(self) -> bool:
        return self.status != "violated"


def verify_restricted_quotient(group: PermGroup, a: int) -> RestrictedQuotientReport:
    """When the order sits in the admissible union set for a and elements
    of order dividing a generate the whole group, the quotient by the
    odd-order-dividing-a part must not be cyclic."""
    n = group.order
    if not sp_contains(n, a):
        return RestrictedQuotientReport(n, "hypotheses fail")
    if torsion_subgroup(group, lambda k: a % k == 0).order != n:
        return RestrictedQuotientReport(n, "hypotheses fail")
    core = torsion_subgroup(group, lambda k: k % 2 == 1 and a % k == 0)
    sh = shape(quotient(group, core))
    status = "violated" if sh.tag == "cyclic" else "verified"
    return RestrictedQuotientReport(n, status, sh)


class OddCoreReport(NamedTuple):
    """The subgroup generated by the odd-order parts of the two endpoint
    stabilizers of one edge, with its structural checks.

    ``check_restriction`` demands that restricting the odd part to the
    neighborhood equals taking the odd part of the restriction, at both
    endpoints.  ``check_edge_transitivity`` and ``check_vertex_count``
    are conditional: they bind only when both odd parts act
    transitively on their neighborhoods and the graph is connected,
    and pass vacuously otherwise (odd parts of 2-groups are trivial,
    so small stabilizers fail the premise, not the check).
    """

    edge: tuple[int, int]
    core: PermGroup
    odd_restriction_commutes: tuple[bool, bool]
    odd_local_transitive: tuple[bool, bool]
    core_edge_transitive: bool
    core_orbit_sizes: tuple[int, int]
    check_restriction: bool
    check_edge_transitivity: bool
    check_vertex_count: bool

    @property
    def passed(self) -> bool:
        return (
            self.check_restriction
            and self.check_edge_transitivity
            and self.check_vertex_count
        )


def odd_edge_core(ga: GraphAction, edge) -> OddCoreReport:
    """Generate a subgroup from the odd-order elements of the two
    endpoint stabilizers and check what that forces.

    When both odd parts are transitive on their neighborhoods (and the
    graph is connected), the core must be edge-transitive and the
    vertex count must equal one point-orbit size or the sum of the two.
    Restriction is a homomorphism, so the local action and the restricted
    odd part are closed from the restrictions of their generators.
    """
    u, v = edge
    graph = ga.graph
    n = graph.vertex_count
    if not graph.has_edge(u, v):
        raise ValueError(f"{u}-{v} is not an edge")

    commutes = []
    transitive = []
    odd_parts = []
    for x in (u, v):
        schreier = stabilizer_generators(ga.group.generators, n, x)
        odd_part = torsion_subgroup(close(schreier, n), lambda k: k % 2 == 1)
        odd_parts.append(odd_part)
        restricted = _induced_on(graph.adjacency[x], odd_part.generators)
        local = _induced_on(graph.adjacency[x], schreier)
        commutes.append(restricted == torsion_subgroup(local, lambda k: k % 2 == 1))
        transitive.append(is_transitive(restricted))

    core = close(odd_parts[0].generators + odd_parts[1].generators, n)
    edge_reps = _orbit_reps(graph.edges, core.generators, _act_edge)
    core_edge_transitive = len(edge_reps) <= 1
    orbit_sizes = tuple(
        len(orbit(x, lambda y: (g[y] for g in core.generators))) for x in (u, v)
    )

    premise = all(transitive) and graph.is_connected
    return OddCoreReport(
        edge=(u, v),
        core=core,
        odd_restriction_commutes=(commutes[0], commutes[1]),
        odd_local_transitive=(transitive[0], transitive[1]),
        core_edge_transitive=core_edge_transitive,
        core_orbit_sizes=orbit_sizes,
        check_restriction=all(commutes),
        check_edge_transitivity=(not premise) or core_edge_transitive,
        check_vertex_count=(not premise)
        or n in (orbit_sizes[0], orbit_sizes[0] + orbit_sizes[1]),
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
        except GroupTooLargeError as err:
            raise GroupTooLargeError(f"{err}, in {check} on {subject} after {len(rows)} rows") from None
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
