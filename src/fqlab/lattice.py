"""Normal subgroups, torsion subgroups and quotients on an element index.

A listed permutation group's sorted elements are numbered once (the
identity is 0), and the lattice, element-order, odd-part and quotient
work runs on those numbers: right multiplication by a generator is one
int row, and by any other element a row grown from those along the
element's word in a breadth-first tree; left multiplication is filled
in along the same tree.  Conjugacy classes, their closures and joins
are sets of numbers, and coset labels one int list.  Normal subgroups
are the joins of the subgroups that classes generate, computed once
per group; each join is the union of the cosets of one side that meet
the other.  Normality is tested by conjugating generators by
generators.  A quotient is the generators' action on the cosets,
certified regular by ``orbit.is_regular_action`` and left unclosed.
Only ``verify`` loads this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import partial
from itertools import islice
from operator import itemgetter

from .budgets import NORMAL_SUBGROUP_CAP
from .errors import GroupTooLargeError, InternalInvariantError
from .orbit import is_regular_action, orbit, orbit_labels
from .permgroup import PermGroup, compose, generated, inverse, perm_order


class ElementIndex:
    """A group's sorted elements numbered 0, 1, ..., so 0 is the identity.

    ``gen_rows[j][i]`` numbers elements[i] g_j, the one place where tuples
    are composed.  A breadth-first tree from 0 along those rows spells
    every element as a word; ``row`` grows right multiplication by any
    element from the generator rows along its word, and ``left_row``
    fills left multiplication by h in along the tree, h x g from h x.
    ``classes`` are the conjugacy classes, ascending and ordered by least
    element: orbits under x -> b^-1 x b for each generator b, one row
    each (left multiplication by b^-1, the x with x b = 1, then right
    multiplication by b).  ``orders`` takes one ``perm_order`` per class.
    """

    __slots__ = (
        "elements", "position", "gen_rows", "classes", "orders", "_tree", "_rows", "_degree", "_cap",
    )

    def __init__(self, group: PermGroup):
        self.elements = els = group.elements
        self.position = pos = {g: i for i, g in enumerate(els)}
        self.gen_rows = rows = [tuple(pos[compose(x, g)] for x in els) for g in group.generators]
        self._rows = {pos[g]: row for g, row in zip(group.generators, rows)}
        self._degree, self._cap = group.degree, group._cap
        # element -> (parent, generator), in breadth-first order
        self._tree: dict[int, tuple[int, int] | None] = {0: None}

        def step(x: int):
            for j, row in enumerate(rows):
                self._tree.setdefault(row[x], (x, j))
                yield row[x]

        orbit(0, step)
        conj = [[r[x] for x in self.left_row(r.index(0))] for r in rows]
        label, reps = orbit_labels(conj, len(els))
        self.classes: list[list[int]] = [[] for _ in reps]
        for x, c in enumerate(label):
            self.classes[c].append(x)
        self.orders = [0] * len(els)
        for cls in self.classes:
            k = perm_order(els[cls[0]])
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
            got = self.gen_rows[word.pop()] if word else tuple(range(len(self.elements)))
            for j in reversed(word):
                got = itemgetter(*got)(self.gen_rows[j])
            self._rows[i] = got
        return self._rows[i]

    def left_row(self, h: int) -> list[int]:
        """Left multiplication by element h, as numbers."""
        out = [h] * len(self.elements)
        for y, (x, j) in islice(self._tree.items(), 1, None):
            out[y] = self.gen_rows[j][out[x]]
        return out

    def closure(self, candidates: Iterable[int]) -> tuple[set[int], list[int]]:
        """``generated`` on numbers: the subgroup and the candidates kept."""
        def right_by(c: int):
            return partial(map, self.row(c).__getitem__)

        return generated(0, candidates, right_by, len(self.elements))

    def cosets(self, gens: Iterable[int]) -> tuple[list[int], list[int]]:
        """Coset labels and least representatives for the normal subgroup
        N that the numbered elements gens generate: the coset x N is the
        orbit of x under right multiplication by the generators, so
        coset 0 is N itself."""
        return orbit_labels([self.row(g) for g in gens], len(self.elements))

    def subgroup(self, members: Iterable[int], gens: Iterable[int]) -> PermGroup:
        """The subgroup with these numbered elements and generators, listed."""
        els = self.elements
        H = PermGroup(self._degree, tuple(els[g] for g in gens), self._cap)
        H._elements = tuple(els[i] for i in sorted(members))
        return H


def element_index(group: PermGroup) -> ElementIndex:
    """The group's element index, built once."""
    if group._index is None:
        group._index = ElementIndex(group)
    return group._index


def torsion_subgroup(group: PermGroup, pred: Callable[[int], bool]) -> PermGroup:
    """Subgroup generated by every element whose order satisfies pred.

    The generating set is order-defined, hence closed under
    conjugation, so the result is normal in the group.
    """
    ix = element_index(group)
    return ix.subgroup(*ix.closure(x for c in ix.classes if pred(ix.orders[c[0]]) for x in c))


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
    if len(reps) * sub.order != group.order or not is_regular_action(rows, rows[0]):
        raise InternalInvariantError("coset action is not a regular quotient")
    return Q, label


def quotient(group: PermGroup, sub: PermGroup) -> PermGroup:
    return quotient_with_map(group, sub)[0]
