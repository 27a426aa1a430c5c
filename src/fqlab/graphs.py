"""Finite simple graphs acted on by permutation groups.

Two parametric symmetric families built from modular coordinates,
orbit-count transitivity reports with the classical implications
re-checked at construction time, and induced local actions at
vertices.  The odd edge core of an action is a ``verify`` check and
lives in ``sweeps``; graph-order censuses live in ``census``.

Transitivity of the built-in generator sets is certified by orbit
counting on vertices and arcs, never by closing the generated group:
the group order grows factorially in the parameters while the orbit
computations stay linear in the number of arcs.  Local actions come
from Schreier generators of the vertex stabilizer restricted to the
neighborhood, so a transitivity report never lists the group either.
"""

from __future__ import annotations

from typing import NamedTuple

from .budgets import MAX_GRAPH_EDGES
from .errors import InputSyntaxError, InternalInvariantError, ResourceBudgetError
from .orbit import orbit
from .permgroup import (
    GroupShape,
    Perm,
    PermGroup,
    close,
    is_transitive,
    orbits_of,
    shape,
    stabilizer_generators,
)


class Graph:
    """Finite simple undirected graph on vertices 0..vertex_count-1.

    Neighbor lists are sorted tuples; construction rejects loops,
    repeated neighbors, and any asymmetry in the edge relation.
    """

    def __init__(self, vertex_count: int, adjacency: tuple[tuple[int, ...], ...]):
        self.vertex_count = n = vertex_count
        self.adjacency = adjacency
        if n < 0:
            raise ValueError("vertex_count must be >= 0")
        if len(self.adjacency) != n:
            raise ValueError("adjacency must have one row per vertex")
        for v, row in enumerate(self.adjacency):
            if list(row) != sorted(set(row)):
                raise ValueError(f"neighbor list of vertex {v} is not sorted and repeat-free")
            for w in row:
                if not 0 <= w < n:
                    raise ValueError(f"neighbor {w} of vertex {v} is out of range")
                if w == v:
                    raise ValueError(f"loop at vertex {v}")
                if v not in self.adjacency[w]:
                    raise ValueError(f"edge {v}-{w} is missing its reverse")

    def __eq__(self, other) -> bool:
        return type(other) is Graph and vars(self) == vars(other)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (low, high) pairs in lexicographic order."""
        return tuple(
            (v, w)
            for v in range(self.vertex_count)
            for w in self.adjacency[v]
            if v < w
        )

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (v, w) for v in range(self.vertex_count) for w in self.adjacency[v]
        )

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @property
    def valencies(self) -> tuple[int, ...]:
        """Sorted distinct vertex degrees."""
        return tuple(sorted({len(row) for row in self.adjacency}))

    @property
    def is_regular(self) -> bool:
        return len(self.valencies) <= 1

    @property
    def is_connected(self) -> bool:
        n = self.vertex_count
        return n <= 1 or len(orbit(0, self.adjacency.__getitem__)) == n


def graph_from_edges(vertex_count: int, edges) -> Graph:
    """Graph from an iterable of endpoint pairs; repeats collapse."""
    neighbor_sets: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge {u}-{v} out of range")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    return Graph(vertex_count, tuple(tuple(sorted(s)) for s in neighbor_sets))


def graph_to_text(graph: Graph) -> str:
    """One-line header `n m`, then one `u v` line per edge."""
    lines = [f"{graph.vertex_count} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Inverse of :func:`graph_to_text`; tolerant of blank lines."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise InputSyntaxError("expected a `vertices edges` header line", line=1)
    try:
        parsed = [tuple(int(f) for f in row) for row in rows]
    except ValueError as err:
        raise InputSyntaxError(f"non-integer field: {err}") from None
    n, m = parsed[0]
    if len(parsed) - 1 != m:
        raise InputSyntaxError(f"header promises {m} edges, found {len(parsed) - 1}")
    if any(len(row) != 2 for row in parsed[1:]):
        raise InputSyntaxError("each edge line needs exactly two endpoints")
    try:
        return graph_from_edges(n, parsed[1:])
    except ValueError as err:
        raise InputSyntaxError(str(err)) from None


class GraphAction:
    """A permutation group acting on a graph through automorphisms.

    Construction checks every generator against every edge, so holding
    a GraphAction certifies the action without ever listing group
    elements.
    """

    def __init__(self, graph: Graph, group: PermGroup):
        self.graph = graph
        self.group = group
        if self.group.degree != self.graph.vertex_count:
            raise ValueError("group degree must equal the vertex count")
        edge_set = set(self.graph.edges)
        for g in self.group.generators:
            for u, v in edge_set:
                image = (g[u], g[v]) if g[u] < g[v] else (g[v], g[u])
                if image not in edge_set:
                    raise ValueError(
                        f"generator maps edge {u}-{v} to non-edge {image[0]}-{image[1]}"
                    )


def _act_edge(g: Perm, e: tuple[int, int]) -> tuple[int, int]:
    a, b = g[e[0]], g[e[1]]
    return (a, b) if a < b else (b, a)


def _act_arc(g: Perm, a: tuple[int, int]) -> tuple[int, int]:
    return (g[a[0]], g[a[1]])


def _orbit_reps(items, generators, act):
    """First-seen orbit representatives, in input order."""
    reps = []
    seen = set()
    for item in items:
        if item not in seen:
            reps.append(item)
            seen.update(orbit(item, lambda x: (act(g, x) for g in generators)))
    return reps


class TransitivityReport(NamedTuple):
    """Orbit-level symmetry summary of a graph action.

    ``local_shapes`` pairs one representative vertex per vertex orbit
    (skipping isolated vertices) with the coarse shape of the induced
    local action there.  Vertices with no neighbors contribute
    vacuously to the locally-transitive flag.
    """

    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    locally_transitive: bool
    vertex_orbit_count: int
    edge_orbit_count: int
    local_shapes: tuple[tuple[int, GroupShape], ...]


def local_action(ga: GraphAction, v: int) -> PermGroup:
    """Permutation group induced on the neighborhood of v by its stabilizer.

    Points of the result are positions in the sorted neighbor list of
    v.  The stabilizer enters through its Schreier generators, and
    restriction to the neighborhood is a homomorphism, so closing the
    restricted generators gives the induced group exactly.  Only that
    group, on at most valency-many points, is ever listed, so the
    acting group need not fit under the element cap.
    """
    if not 0 <= v < ga.graph.vertex_count:
        raise ValueError(f"no vertex {v}")
    neighbors = ga.graph.adjacency[v]
    if not neighbors:
        raise ValueError(f"vertex {v} has no neighbors")
    return _induced_on(
        neighbors, stabilizer_generators(ga.group.generators, ga.graph.vertex_count, v)
    )


def _induced_on(neighbors: tuple[int, ...], perms) -> PermGroup:
    """Group generated by the restrictions of perms, each of which must
    map the neighbor list onto itself."""
    position = {w: i for i, w in enumerate(neighbors)}
    restricted = sorted({tuple(position[g[w]] for w in neighbors) for g in perms})
    return close(restricted, len(neighbors))


def transitivity_report(ga: GraphAction) -> TransitivityReport:
    """Count vertex, edge and arc orbits and probe the local actions.

    Local transitivity is decided at one representative per vertex
    orbit, then re-derived from the two endpoints of each edge orbit
    representative; on a connected graph both routes must agree, and a
    disagreement or a broken implication between the flags raises
    InternalInvariantError because it can only come from a bug.
    """
    graph, group = ga.graph, ga.group
    gens = group.generators
    vertex_orbits = orbits_of(gens, graph.vertex_count) if graph.vertex_count else []
    edges = graph.edges
    edge_reps = _orbit_reps(edges, gens, _act_edge)
    arc_reps = _orbit_reps(graph.arcs, gens, _act_arc)

    local_ok: dict[int, bool] = {}

    def local_transitive_at(x: int) -> bool:
        if x not in local_ok:
            local_ok[x] = is_transitive(local_action(ga, x))
        return local_ok[x]

    shapes = []
    locally = True
    for vertex_orbit in vertex_orbits:
        rep = vertex_orbit[0]
        if not graph.adjacency[rep]:
            continue
        group_at_rep = local_action(ga, rep)
        local_ok[rep] = is_transitive(group_at_rep)
        locally = locally and local_ok[rep]
        shapes.append((rep, shape(group_at_rep)))

    report = TransitivityReport(
        vertex_transitive=len(vertex_orbits) <= 1,
        edge_transitive=len(edge_reps) <= 1,
        arc_transitive=len(arc_reps) <= 1,
        locally_transitive=locally,
        vertex_orbit_count=len(vertex_orbits),
        edge_orbit_count=len(edge_reps),
        local_shapes=tuple(shapes),
    )

    if graph.is_connected and edges:
        for u, v in edge_reps:
            pair = local_transitive_at(u) and local_transitive_at(v)
            if pair != report.locally_transitive:
                raise InternalInvariantError(
                    "edge-endpoint probe disagrees with the orbit sweep"
                )
    violations = implication_violations(report, graph)
    if violations:
        raise InternalInvariantError(violations[0])
    return report


def implication_violations(report: TransitivityReport, graph: Graph) -> list[str]:
    """The classical implications between the flags that a report breaks.

    Arc-transitive implies edge-transitive; on a connected graph,
    locally transitive implies edge-transitive; edge-transitive without
    isolated vertices allows at most two vertex orbits; and on a
    connected graph that is not regular of even valency,
    edge-transitive implies locally transitive.  Empty on a sound
    report.
    """
    connected = graph.is_connected
    out = []
    if report.arc_transitive and not report.edge_transitive:
        out.append("arc-transitive action missed edge-transitivity")
    if connected and report.locally_transitive and not report.edge_transitive:
        out.append("locally transitive action missed edge-transitivity")
    no_isolated = all(graph.adjacency) if graph.vertex_count else True
    if report.edge_transitive and no_isolated and report.vertex_orbit_count > 2:
        out.append("edge-transitive action with three vertex orbits")
    regular_even = graph.is_regular and graph.valencies and graph.valencies[0] % 2 == 0
    if (
        connected
        and report.edge_transitive
        and not regular_even
        and not report.locally_transitive
    ):
        out.append(
            "edge-transitive, not regular of even valency, yet not locally transitive"
        )
    return out


def build_w(k: int, r: int) -> GraphAction:
    """Layered graph on Z_k x Z_r: consecutive layers completely joined.

    Vertex (x, y) gets id x*r + y (row-major).  Order k*r, regular of
    valency 2k, connected.  The bundled generators are the layer
    rotation, the layer reflection, and for k >= 2 permutations of the
    first coordinate inside layer zero; together they act
    arc-transitively (certified by orbit counting in the tests, not
    assumed).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if r < 3:
        raise ValueError("need r >= 3: two layers would double the edges")
    if k * k * r > MAX_GRAPH_EDGES:
        raise ResourceBudgetError(
            f"W({k},{r}) has {k * k * r} edges, over the {MAX_GRAPH_EDGES}-edge budget"
        )
    n = k * r

    def vid(x: int, y: int) -> int:
        return x * r + y % r

    edges = [
        (vid(x, y), vid(x2, y + 1))
        for y in range(r)
        for x in range(k)
        for x2 in range(k)
    ]
    graph = graph_from_edges(n, edges)

    generators = [
        tuple(vid(x, y + 1) for x in range(k) for y in range(r)),
        tuple(vid(x, -y) for x in range(k) for y in range(r)),
    ]
    if k >= 2:
        swap = list(range(n))
        swap[vid(0, 0)], swap[vid(1, 0)] = swap[vid(1, 0)], swap[vid(0, 0)]
        generators.append(tuple(swap))
    if k >= 3:
        cycle = list(range(n))
        for x in range(k):
            cycle[vid(x, 0)] = vid((x + 1) % k, 0)
        generators.append(tuple(cycle))
    return GraphAction(graph, PermGroup(n, tuple(generators)))


def build_sw(k: int, r: int) -> GraphAction:
    """Doubled layered graph on Z_k x Z_r x Z_2.

    Each cell (x, y) holds a matched pair of vertices; side-1 vertices
    of layer y are completely joined to side-0 vertices of layer y+1.
    Vertex (x, y, z) gets id x*2r + 2y + z (row-major).  Order 2kr,
    regular of valency k+1, connected.  The bundled generators are the
    first-coordinate rotation (k >= 2), the layer rotation, and the
    flip (x, y, z) -> (x, -y, 1-z); together they act
    vertex-transitively.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if r < 2:
        raise ValueError("need r >= 2: one layer would collide with the matching")
    if k * r + k * k * r > MAX_GRAPH_EDGES:
        raise ResourceBudgetError(
            f"SW({k},{r}) has {k * r + k * k * r} edges, over the {MAX_GRAPH_EDGES}-edge budget"
        )
    n = 2 * k * r

    def vid(x: int, y: int, z: int) -> int:
        return (x % k) * 2 * r + 2 * (y % r) + z

    edges = [(vid(x, y, 0), vid(x, y, 1)) for x in range(k) for y in range(r)]
    edges.extend(
        (vid(x, y + 1, 0), vid(x2, y, 1))
        for y in range(r)
        for x in range(k)
        for x2 in range(k)
    )
    graph = graph_from_edges(n, edges)

    coords = [(x, y, z) for x in range(k) for y in range(r) for z in (0, 1)]
    generators = [
        tuple(vid(x, y + 1, z) for x, y, z in coords),
        tuple(vid(x, -y, 1 - z) for x, y, z in coords),
    ]
    if k >= 2:
        generators.insert(0, tuple(vid(x + 1, y, z) for x, y, z in coords))
    return GraphAction(graph, PermGroup(n, tuple(generators)))
