"""Finite permutation groups from small generating sets.

A group is held as its generators; its element set is closed from them
only when a question needs it (cap 10^5).  Orbits (``orbit.orbit_labels``)
and point stabilizers work from generators alone; a point stabilizer is
always given by its Schreier generators along ``orbit.spanning_tree``,
never by filtering elements.  ``shape`` screens the commutators of the
generators before it lists anything, so a local action that ``graphs``
leaves unclosed is called "other" unlisted.  One sifted closure,
``generated``, lists the elements of a group here and the subgroups of
an element index in ``lattice``, a quotient's odd part included: a long
redundant generating list costs little more than a short one.
Permutations are tuples of 0-based images; composition is "left then
right", so cosets and coset actions are right-handed throughout;
``cycle_decomposition`` walks cycles for ``perm_order`` and ``catalog``.
The lattice and quotients live in ``lattice``, on an element index, and
the checks built on this kit in ``sweeps``; only ``verify`` loads them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable
from operator import itemgetter
from typing import NamedTuple

from .budgets import ELEMENT_CAP
from .errors import GroupTooLargeError, InternalInvariantError
from .orbit import orbit_labels, spanning_tree

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(g: Perm, h: Perm) -> Perm:
    """Apply g, then h."""
    if len(g) == 1:
        # itemgetter with one index returns the item, not a tuple
        return (h[g[0]],)
    return itemgetter(*g)(h)


def inverse(g: Perm) -> Perm:
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


def cycle_decomposition(g: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 0-based, each starting at its smallest point."""
    seen = [False] * len(g)
    out = []
    for start in range(len(g)):
        if seen[start] or g[start] == start:
            continue
        # start is its cycle's least point, so the walk meets no marked point
        cyc = [start]
        x = g[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = g[x]
        out.append(tuple(cyc))
    return out


def perm_order(g: Perm) -> int:
    """The lcm of the cycle lengths."""
    return math.lcm(*map(len, cycle_decomposition(g)))


def generated(start: Hashable, candidates: Iterable, step: Callable, cap: int) -> tuple[set, list]:
    """The points that the group generated by the candidates reaches from
    start, and the candidates kept; step(c) maps a batch of points to
    their images under c, and the point of a candidate c is c itself.

    The closure sifts: a candidate already reached is skipped, and a new
    one c extends the group H reached so far by a breadth-first search
    that starts from H c and moves by the kept candidates only.  A word
    that leaves H first leaves it through c, so the search misses
    nothing; each kept candidate at least doubles H, so at most log2 of
    the order are kept.
    """
    known = {start}
    kept = []
    moves = []
    for c in candidates:
        if c in known:
            continue
        kept.append(c)
        moves.append(step(c))
        # known is the subgroup H and c lies outside it, so the coset
        # H c is disjoint from H
        frontier = list(moves[-1](known))
        known.update(frontier)
        while frontier:
            if len(known) > cap:
                raise GroupTooLargeError(f"closure exceeded the {cap} element cap")
            nxt = []
            for move in moves:
                for y in move(frontier):
                    if y not in known:
                        known.add(y)
                        nxt.append(y)
            frontier = nxt
    return known, kept


def _right_by(g: Perm) -> Callable[[Iterable[Perm]], list[Perm]]:
    # compose, inlined: itemgetter(*x) returns a bare int when x has
    # degree 1, but only the identity has, and ``generated`` never moves
    # by a candidate it has already reached
    return lambda xs: [itemgetter(*x)(g) for x in xs]


class PermGroup:
    """A permutation group held as generators plus an on-demand element set."""

    __slots__ = ("degree", "generators", "_elements", "_element_set", "_normal", "_index", "_cap")

    def __init__(self, degree: int, generators: tuple[Perm, ...], element_cap: int = ELEMENT_CAP):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a bijection on {degree} points: {g}")
        self.degree = degree
        self.generators = tuple(generators)
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[Perm] | None = None
        # the lattice and the element index, cached by ``lattice``
        self._normal: tuple[PermGroup, ...] | None = None
        self._index = None
        self._cap = element_cap

    @property
    def elements(self) -> tuple[Perm, ...]:
        """All elements, lexicographically sorted, closed by ``generated``
        from the generators.  Computed once, then cached."""
        if self._elements is None:
            known, _ = generated(identity(self.degree), self.generators, _right_by, self._cap)
            self._elements = tuple(sorted(known))
        return self._elements

    @property
    def element_set(self) -> frozenset[Perm]:
        if self._element_set is None:
            self._element_set = frozenset(self.elements)
        return self._element_set

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self.element_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.element_set == other.element_set

    def __hash__(self) -> int:
        return hash((self.degree, self.element_set))

    def __repr__(self) -> str:
        n = len(self._elements) if self._elements is not None else "?"
        return f"PermGroup(degree={self.degree}, order={n})"


def close(generators, degree: int | None = None, element_cap: int = ELEMENT_CAP) -> PermGroup:
    """Group generated by the given permutations, elements populated."""
    gens = tuple(generators)
    if degree is None:
        if not gens:
            raise ValueError("need a degree for the empty generating set")
        degree = len(gens[0])
    G = PermGroup(degree, gens, element_cap)
    G.elements
    return G


def orbits(group: PermGroup) -> list[tuple[int, ...]]:
    """Orbit partition of the points, each orbit sorted, ordered by minimum."""
    return orbits_of(group.generators, group.degree)


def orbits_of(generators, degree: int) -> list[tuple[int, ...]]:
    label, reps = orbit_labels(generators, degree)
    out: list[list[int]] = [[] for _ in reps]
    for x, c in enumerate(label):
        out[c].append(x)
    return [tuple(orb) for orb in out]


def is_transitive(group: PermGroup) -> bool:
    return len(orbits(group)) == 1


def stabilizer_generators(generators, degree: int, base: int) -> list[Perm]:
    """Generators of the stabilizer of a point, no element listing needed.

    The orbit of the base comes with a transversal along its spanning
    tree: t_y = t_x g for the edge (x, g) that first reaches y.  For each
    orbit point x and generator g, the loop word t_x g t_{x.g}^-1 fixes
    the base; those loops generate the stabilizer (Schreier's lemma).
    """
    if not 0 <= base < degree:
        raise ValueError(f"no point {base} in degree {degree}")
    gens = tuple(generators)
    trans: dict[int, Perm] = {}
    for y, edge in spanning_tree(base, lambda x: (g[x] for g in gens)).items():
        trans[y] = identity(degree) if edge is None else compose(trans[edge[0]], gens[edge[1]])
    out = []
    seen = set()
    for x, t in trans.items():
        for g in gens:
            word = compose(compose(t, g), inverse(trans[g[x]]))
            if word[base] != base:
                raise InternalInvariantError("loop word moved the base point")
            if word not in seen and word != identity(degree):
                seen.add(word)
                out.append(word)
    return out


class GroupShape(NamedTuple):
    """Coarse isomorphism shape: cyclic, dihedral, or other.

    ``parameter`` is the cyclic order for cyclic groups and the rotation
    subgroup order n for dihedral groups of order 2n.
    """

    tag: str
    parameter: int = 0


def _commutators_commute(generators) -> bool:
    """Whether the first nontrivial commutator a^-1 b^-1 a b of two
    generators commutes with every later one.

    A cyclic or dihedral group has a cyclic derived subgroup, so there
    the answer is always yes.
    """
    pairs = [(g, inverse(g)) for g in generators]
    first = None
    for i, (a, a_inv) in enumerate(pairs):
        for b, b_inv in pairs[i + 1 :]:
            c = compose(compose(a_inv, b_inv), compose(a, b))
            if first is None:
                first = None if c == identity(len(c)) else c
            elif compose(first, c) != compose(c, first):
                return False
    return True


def shape(group: PermGroup) -> GroupShape:
    """Classify as cyclic, dihedral, or other.

    Generators whose commutators fail ``_commutators_commute`` make the
    group other before any element is listed.  Cyclic wins ties: an
    order-2 group is cyclic, never dihedral.  The Klein four-group
    counts as dihedral with rotation order 2.

    Dihedral of order 2h means an involution b with b*r of order 2 (b
    inverts r) for some r of order h.  None in <r> passes: for h > 2 the
    only one is r^(h/2), and r^(h/2)*r has order above 2; for h = 2 it
    is r, and r*r = 1.
    """
    if not _commutators_commute(group.generators):
        return GroupShape("other", 0)
    n = group.order
    orders = {g: perm_order(g) for g in group.elements}
    if max(orders.values()) == n:
        return GroupShape("cyclic", n)
    if n % 2 == 0:
        half = n // 2
        involutions = [b for b, k in orders.items() if k == 2]
        for r, k in orders.items():
            if k == half and any(orders[compose(b, r)] == 2 for b in involutions):
                return GroupShape("dihedral", half)
    return GroupShape("other", 0)
