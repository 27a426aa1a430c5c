"""Normal subgroups, torsion subgroups and quotients on an element index.

A listed permutation group's sorted elements are numbered once (the
identity is 0), and the lattice, element-order, torsion and quotient
work runs on those numbers: right multiplication by a generator is one
int row, and by any other element a row grown from those along the
element's word in ``orbit.spanning_tree``; left multiplication is
filled in along the same tree.  Conjugacy classes, their closures and
joins are sets of numbers, and coset labels one int list.  Normal
subgroups are the joins of the subgroups that classes generate,
computed once per group; each join is the union of the cosets of one
side that meet the other.  Normality is tested by conjugating
generators by generators.  A quotient is the generators' action on the
cosets, certified regular by ``orbit.is_regular_action`` and left
unclosed; its generator tuples are the rows of its own element index.
Only ``verify`` loads this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import partial
from operator import itemgetter

from .budgets import NORMAL_SUBGROUP_CAP
from .errors import GroupTooLargeError, InternalInvariantError
from .orbit import is_regular_action, left_multiplication, orbit_labels, spanning_tree
from .permgroup import PermGroup, compose, generated, inverse


class ElementIndex:
    """A group's elements numbered 0, 1, ..., 0 the identity, held as the
    generators' right-multiplication rows: ``gen_rows[j][i]`` numbers
    element i times g_j.  ``element_index`` composes them once for a
    listed group and keeps its ``elements`` and ``position``.  A quotient
    certified regular needs no composition: point c stands for the one
    element moving 0 to c, which times g_j moves 0 to g_j[c], so the
    quotient's generator tuples are its rows.  ``row`` grows right
    multiplication by any element from those along its word in a
    breadth-first tree from 0; ``left_row`` fills left multiplication in
    along the tree.  ``classes`` are the conjugacy classes, ascending and
    ordered by least element: orbits under x -> b^-1 x b for each
    generator b (left multiplication by b^-1, the x with x b = 1, then
    right multiplication by b).  ``orders`` holds the length of the cycle
    of 0 under right multiplication by each class's least element.
    """

    __slots__ = ("gen_rows", "classes", "orders", "elements", "position", "_tree", "_rows")

    def __init__(self, gen_rows: Iterable[tuple[int, ...]]):
        self.gen_rows = rows = list(gen_rows)
        self._rows = {r[0]: r for r in rows}
        # with no generators the group is trivial: one element, no edges
        self._tree = spanning_tree(0, (list(zip(*rows)) or [()]).__getitem__)
        conj = [[r[x] for x in self.left_row(r.index(0))] for r in rows]
        label, reps = orbit_labels(conj, len(self._tree))
        self.classes: list[list[int]] = [[] for _ in reps]
        for x, c in enumerate(label):
            self.classes[c].append(x)
        self.orders = [0] * len(label)
        for cls in self.classes:
            right_by, x, k = self.row(cls[0]), cls[0], 1
            while x:
                x, k = right_by[x], k + 1
            for x in cls:
                self.orders[x] = k

    def row(self, i: int) -> tuple[int, ...]:
        """Right multiplication by element i, as numbers; cached."""
        if i not in self._rows:
            word = []
            x = i
            while x:
                x, j = self._tree[x]
                word.append(j)
            got = self.gen_rows[word.pop()] if word else tuple(range(len(self._tree)))
            for j in reversed(word):
                got = itemgetter(*got)(self.gen_rows[j])
            self._rows[i] = got
        return self._rows[i]

    def left_row(self, h: int) -> list[int]:
        """Left multiplication by element h, as numbers."""
        return left_multiplication(self.gen_rows, self._tree, h)

    def closure(self, candidates: Iterable[int]) -> tuple[set[int], list[int]]:
        """``generated`` on numbers: the subgroup and the candidates kept."""
        def right_by(c: int):
            return partial(map, self.row(c).__getitem__)

        return generated(0, candidates, right_by, len(self._tree))

    def torsion(self, pred: Callable[[int], bool]) -> tuple[set[int], list[int]]:
        """``closure`` of every element whose order satisfies pred."""
        return self.closure(x for c in self.classes if pred(self.orders[c[0]]) for x in c)

    def cosets(self, gens: Iterable[int]) -> tuple[list[int], list[int]]:
        """Coset labels and least representatives for the normal subgroup
        N that the numbered elements gens generate: the coset x N is the
        orbit of x under right multiplication by the generators, so
        coset 0 is N itself."""
        return orbit_labels([self.row(g) for g in gens], len(self._tree))

    def subgroup(self, members: Iterable[int], gens: Iterable[int]) -> PermGroup:
        """The subgroup with these numbered elements and generators, listed."""
        els = self.elements
        H = PermGroup(len(els[0]), tuple(els[g] for g in gens))
        H._elements = tuple(els[i] for i in sorted(members))
        return H


def element_index(group: PermGroup) -> ElementIndex:
    """The listed group's element index, built once."""
    if group._index is None:
        els = group.elements
        pos = {g: i for i, g in enumerate(els)}
        # the one place where tuples are composed
        ix = ElementIndex(tuple(pos[compose(x, g)] for x in els) for g in group.generators)
        ix.elements, ix.position = els, pos
        group._index = ix
    return group._index


def torsion_subgroup(group: PermGroup, pred: Callable[[int], bool]) -> PermGroup:
    """Subgroup generated by every element whose order satisfies pred.

    The generating set is order-defined, hence closed under
    conjugation, so the result is normal in the group.
    """
    ix = element_index(group)
    return ix.subgroup(*ix.torsion(pred))


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
        for b, b_inv in ((b, inverse(b)) for b in group.generators)
        for n in sub.generators
    )


def normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every normal subgroup exactly once, sorted by order then elements.

    Computed once per group, on its element index; each call returns a
    fresh list.  A normal subgroup is a union of conjugacy classes, so
    it is the join of the subgroups its classes generate, and joins of
    normal subgroups are normal: the fixpoint of joins reaches all of
    them and nothing else.  A class is the orbit of one element under
    conjugation by the generators (``ElementIndex.classes``).  A join
    N M with one side inside the other is that other side, already
    found; otherwise it is the union of the cosets of N that meet M.
    """
    if group._normal is not None:
        return list(group._normal)
    if group.order > NORMAL_SUBGROUP_CAP:
        raise GroupTooLargeError(
            f"order {group.order} exceeds the normal-subgroup cap {NORMAL_SUBGROUP_CAP}"
        )
    ix = element_index(group)
    found: dict[frozenset[int], tuple[int, ...]] = {frozenset((0,)): ()}
    atoms = []
    # x^j generates the same normal subgroup as x for j prime to its order
    same_atom: set[int] = set()
    for cls in ix.classes:
        if not same_atom.isdisjoint(cls):
            continue
        members, kept = ix.closure(cls)
        key = frozenset(members)
        if key not in found:
            found[key] = tuple(kept)
            atoms.append((key, tuple(kept)))
        right_by, powers = ix.row(cls[0]), [cls[0]]
        while powers[-1]:
            powers.append(right_by[powers[-1]])
        same_atom.update(y for j, y in enumerate(powers, 1) if math.gcd(j, len(powers)) == 1)
    worklist = list(found)
    while worklist:
        current = worklist.pop()
        label = None
        for atom, kept in atoms:
            if atom <= current or current <= atom:
                continue
            if label is None:
                label, _ = ix.cosets(found[current])
            hit = {label[m] for m in atom}
            key = frozenset(i for i, c in enumerate(label) if c in hit)
            if key not in found:
                found[key] = found[current] + kept
                worklist.append(key)
    # numbering is monotone in the elements, so sorting numbers sorts elements
    subs = sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0])))
    group._normal = tuple(ix.subgroup(members, gens) for members, gens in subs)
    return list(group._normal)


def quotient_with_map(group: PermGroup, sub: PermGroup) -> tuple[PermGroup, list[int]]:
    """Coset action of the group on a normal subgroup's cosets.

    Returns Q, generated by the images of the group's generators and
    left unclosed, with the coset label of each element number
    (``element_index``): cosets are numbered by their least elements,
    so coset 0 is sub.  Q is certified transitive and regular by
    ``orbit.is_regular_action``, with |Q| |N| = |G|, so it is the
    quotient, and the image of x is the element of Q moving coset 0 to
    coset label[x].
    """
    if not is_normal(group, sub):
        raise ValueError("subgroup is not normal")
    ix = element_index(group)
    label, reps = ix.cosets(ix.position[g] for g in sub.generators)
    gens = tuple(tuple(map(label.__getitem__, map(r.__getitem__, reps))) for r in ix.gen_rows)
    Q = PermGroup(len(reps), gens, group._cap)
    # a group with no generators has one coset and a row of no entries
    rows = list(zip(*gens)) or [()]
    if len(reps) * sub.order != group.order or not is_regular_action(rows, gens, rows[0]):
        raise InternalInvariantError("coset action is not a regular quotient")
    return Q, label


def quotient(group: PermGroup, sub: PermGroup) -> PermGroup:
    return quotient_with_map(group, sub)[0]
