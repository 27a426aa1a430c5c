"""Finite permutation groups from small generating sets.

A group is held as its generators; its element set is closed from them
only when a question needs it (cap 10^5).  Orbits, point stabilizers
and conjugacy classes work from generators alone, the first and last
through one breadth-first routine, ``orbit.orbit``; a point stabilizer is
always given by its Schreier generators, never by filtering elements;
normality is tested by conjugating generators by generators; a quotient
by a normal subgroup labels each element with its coset and closes the
coset action of the group's generators; subgroups generated by
order-restricted elements scan the element set, so they are desk scale.
Normal subgroups are the joins of the subgroups that conjugacy classes
generate, computed once per group; each join is a union of cosets.
The closure sifts its generators, so a long redundant generating list
costs little more than a short one.  Permutations are tuples of
0-based images; composition is "left then right", so cosets and coset
actions are right-handed throughout.
Cycle notation lives in ``catalog``, and the checks built on this kit
in ``sweeps``; only ``verify`` loads either.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from operator import itemgetter
from typing import NamedTuple

from .budgets import ELEMENT_CAP, NORMAL_SUBGROUP_CAP
from .errors import GroupTooLargeError, InternalInvariantError
from .orbit import orbit

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


def conjugate(g: Perm, b: Perm) -> Perm:
    """b^-1 g b under left-then-right composition."""
    return compose(compose(inverse(b), g), b)


def perm_order(g: Perm) -> int:
    """The lcm of the cycle lengths."""
    seen = [False] * len(g)
    out = 1
    for start in range(len(g)):
        if seen[start]:
            continue
        # start is the least point of its cycle, so the walk never meets
        # a point that an earlier start marked
        x = g[start]
        length = 1
        while x != start:
            seen[x] = True
            x = g[x]
            length += 1
        if length > 1:
            out = math.lcm(out, length)
    return out


class PermGroup:
    """A permutation group held as generators plus an on-demand element set."""

    __slots__ = ("degree", "generators", "_elements", "_element_set", "_normal", "_cap")

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
        self._normal: tuple[PermGroup, ...] | None = None
        self._cap = element_cap

    @property
    def elements(self) -> tuple[Perm, ...]:
        """All elements, lexicographically sorted.  Computed once, then cached.

        The closure sifts the generators: one already in the subgroup
        built so far is skipped, and a new one g extends that subgroup H
        by a breadth-first search that starts from H g and multiplies by
        the kept generators only.  A word that leaves H first leaves it
        through g, so the search misses nothing; each kept generator at
        least doubles H, so at most log2 of the order are kept, and a
        long redundant generating list costs one membership test per
        entry.
        """
        if self._elements is None:
            known = {identity(self.degree)}
            kept: list[Perm] = []
            for g in self.generators:
                if g in known:
                    continue
                kept.append(g)
                # known is the subgroup H and g lies outside it, so the
                # coset H g is disjoint from H
                frontier = [compose(x, g) for x in known]
                while frontier:
                    known.update(frontier)
                    if len(known) > self._cap:
                        raise GroupTooLargeError(
                            f"closure exceeded the {self._cap} element cap"
                        )
                    nxt = []
                    for x in frontier:
                        for h in kept:
                            y = compose(x, h)
                            if y not in known:
                                known.add(y)
                                nxt.append(y)
                    frontier = nxt
            self._elements = tuple(sorted(known))
            self._element_set = frozenset(known)
        return self._elements

    @property
    def element_set(self) -> frozenset[Perm]:
        if self._element_set is None:
            self.elements
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


def trivial_group(degree: int) -> PermGroup:
    return close((), degree)


def orbits(group: PermGroup) -> list[tuple[int, ...]]:
    """Orbit partition of the points, each orbit sorted, ordered by minimum."""
    return orbits_of(group.generators, group.degree)


def orbits_of(generators, degree: int) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    out = []
    for start in range(degree):
        if start not in seen:
            orb = orbit(start, lambda x: (g[x] for g in generators))
            seen.update(orb)
            out.append(tuple(sorted(orb)))
    return out


def is_transitive(group: PermGroup) -> bool:
    return len(orbits(group)) == 1


def stabilizer_generators(generators, degree: int, base: int) -> list[Perm]:
    """Generators of the stabilizer of a point, no element listing needed.

    The orbit of the base comes with a transversal: t_y = t_x g for the
    first point x and generator g that reach y.  For each orbit point x
    and generator g, the loop word t_x g t_{x.g}^-1 fixes the base; those
    loops generate the stabilizer.
    """
    gens = tuple(generators)
    trans = {base: identity(degree)}

    def step(x: int):
        for g in gens:
            if g[x] not in trans:
                trans[g[x]] = compose(trans[x], g)
            yield g[x]

    out = []
    seen = set()
    for x in orbit(base, step):
        for g in gens:
            word = compose(compose(trans[x], g), inverse(trans[g[x]]))
            if word[base] != base:
                raise InternalInvariantError("loop word moved the base point")
            if word not in seen and word != identity(degree):
                seen.add(word)
                out.append(word)
    return out


def torsion_subgroup(group: PermGroup, pred: Callable[[int], bool]) -> PermGroup:
    """Subgroup generated by every element whose order satisfies pred.

    The generating set is order-defined, hence closed under
    conjugation, so the result is normal in the group.
    """
    gens = tuple(g for g in group.elements if pred(perm_order(g)))
    return close(gens, group.degree, group._cap)


def is_normal(group: PermGroup, sub: PermGroup) -> bool:
    """Is the subgroup invariant under conjugation by the group?

    Conjugating the subgroup's generators by the group's generators
    suffices: conjugation is a homomorphism, so the conjugates of the
    generators generate the conjugate subgroup, and invariance under
    generators propagates to all products.  Raises if sub is not in fact
    a subgroup of group.
    """
    if sub.degree != group.degree or not sub.element_set <= group.element_set:
        raise ValueError("not a subgroup of the given group")
    members = sub.element_set
    return all(
        compose(compose(b_inv, n), b) in members
        for b, b_inv in _with_inverses(group.generators)
        for n in sub.generators
    )


def _with_inverses(generators) -> list[tuple[Perm, Perm]]:
    return [(b, inverse(b)) for b in generators]


def normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every normal subgroup exactly once, sorted by order then elements.

    Computed once per group; each call returns a fresh list.  Built as
    the join-closure of the subgroups generated by conjugacy classes: a
    normal subgroup is a union of classes, so it is the join of the
    subgroups its classes generate, and joins of normal subgroups are
    normal, so the fixpoint reaches all of them and nothing else.
    A class is the orbit of one element under conjugation by the
    generators.  A join N M with one side inside the other is that
    other side, already found.  Otherwise, both sides being normal, it is
    the union of the cosets N m over m in M; a coset meets the union
    built so far only if it lies in it, so each m already in is skipped.
    """
    if group._normal is not None:
        return list(group._normal)
    if group.order > NORMAL_SUBGROUP_CAP:
        raise GroupTooLargeError(
            f"order {group.order} exceeds the normal-subgroup cap {NORMAL_SUBGROUP_CAP}"
        )
    conjugators = _with_inverses(group.generators)
    triv = trivial_group(group.degree)
    found: dict[frozenset[Perm], PermGroup] = {triv.element_set: triv}
    atoms = []
    classified: set[Perm] = set()
    for g in group.elements:
        if g in classified:
            continue
        cls = orbit(g, lambda x: (compose(compose(b_inv, x), b) for b, b_inv in conjugators))
        classified.update(cls)
        atom = close(cls, group.degree, group._cap)
        if atom.element_set not in found:
            found[atom.element_set] = atom
            atoms.append(atom)
    worklist = list(found.values())
    while worklist:
        current = worklist.pop()
        for atom in atoms:
            if atom.element_set <= current.element_set or current.element_set <= atom.element_set:
                continue
            joined = set(current.element_set)
            for m in atom.elements:
                if m not in joined:
                    joined.update([compose(n, m) for n in current.elements])
            key = frozenset(joined)
            if key not in found:
                join = PermGroup(group.degree, current.generators + atom.generators, group._cap)
                join._elements, join._element_set = tuple(sorted(key)), key
                found[key] = join
                worklist.append(join)
    group._normal = tuple(sorted(found.values(), key=lambda n: (n.order, n.elements)))
    return list(group._normal)


def quotient_with_map(group: PermGroup, sub: PermGroup) -> tuple[PermGroup, dict[Perm, int]]:
    """Coset action of the group on a normal subgroup's right cosets.

    Returns the regular representation Q of the quotient (degree = index,
    order = index), generated by the images of the group's generators,
    together with the label of each element: the number of its coset,
    cosets being numbered by their least elements, so coset 0 is sub.
    Q acts regularly and the image of x moves coset 0 to coset x, so the
    image of x is the q in Q with q[0] == label[x].
    """
    if not is_normal(group, sub):
        raise ValueError("subgroup is not normal")
    nset = sub.elements
    # elements are sorted, so the first unlabelled one is the least
    # element of its coset and becomes that coset's representative
    label: dict[Perm, int] = {}
    reps: list[Perm] = []
    for g in group.elements:
        if g not in label:
            for n in nset:
                label[compose(n, g)] = len(reps)
            reps.append(g)
    gens = tuple(tuple(label[compose(rep, g)] for rep in reps) for g in group.generators)
    Q = close(gens, len(reps), group._cap)
    if Q.order * sub.order != group.order:
        raise InternalInvariantError("coset action order mismatch")
    return Q, label


def quotient(group: PermGroup, sub: PermGroup) -> PermGroup:
    return quotient_with_map(group, sub)[0]


class GroupShape(NamedTuple):
    """Coarse isomorphism shape: cyclic, dihedral, or other.

    ``parameter`` is the cyclic order for cyclic groups and the rotation
    subgroup order n for dihedral groups of order 2n.
    """

    tag: str
    parameter: int = 0


def shape(group: PermGroup) -> GroupShape:
    """Classify as cyclic, dihedral, or other.

    Cyclic wins ties: an order-2 group is cyclic, never dihedral.  The
    Klein four-group counts as dihedral with rotation order 2.

    Dihedral of order 2h means an involution b outside <r> inverts some r
    of order h.  An involution in <r> inverts r only if r*r = 1, and then
    the group is the Klein four-group either way, so <r> is never listed.
    """
    n = group.order
    orders = {g: perm_order(g) for g in group.elements}
    if max(orders.values()) == n:
        return GroupShape("cyclic", n)
    if n % 2 == 0:
        half = n // 2
        involutions = [b for b, k in orders.items() if k == 2]
        for r, k in orders.items():
            if k == half and any(conjugate(r, b) == inverse(r) for b in involutions):
                return GroupShape("dihedral", half)
    return GroupShape("other", 0)
