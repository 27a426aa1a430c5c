"""Breadth-first reach, its spanning tree and the regularity certificate.

``orbit`` is the package's one search from a point: connectivity in
``graphs``, subgroup images in ``fpgroup.quotients``.  ``spanning_tree``
is that search keeping the edge that first reaches each point, the one
tree under the stabilizer transversals of ``permgroup``, the Schreier
transversals of ``fpgroup.coset`` and the element words of ``lattice``.
``orbit_labels`` labels all points by orbit at once.
``left_multiplication`` fills left multiplication in along a tree for
``lattice`` and ``is_regular_action``, the regularity certificate that
``fpgroup.coset`` runs on each coset table and ``lattice`` on each
quotient; its spanning tree is also the check that a table is
transitive.  All live here so that certifying a table loads no
permutation-group code and ``verify`` no ``fpgroup``.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from itertools import islice
from operator import itemgetter
from typing import TypeVar

T = TypeVar("T", bound=Hashable)


def orbit(seed: T, step: Callable[[T], Iterable[T]]) -> list[T]:
    """Everything reachable from seed, breadth-first: seed, then each new
    neighbor in the order step(x) yields the neighbors of x."""
    out = [seed]
    seen = {seed}
    # the loop also visits what it appends
    for x in out:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def spanning_tree(seed: T, step: Callable[[T], Iterable[T]]) -> dict[T, tuple[T, int] | None]:
    """The breadth-first tree of ``orbit``: each point reached maps to
    (parent, k), k the position in step(parent) of the edge that first
    reached it, and seed to None; keys in breadth-first order."""
    tree: dict[T, tuple[T, int] | None] = {seed: None}
    out = [seed]
    for x in out:
        k = 0  # counted by hand: faster than enumerate
        for y in step(x):
            if y not in tree:
                tree[y] = (x, k)
                out.append(y)
            k += 1
    return tree


def left_multiplication(columns: Sequence[Sequence[int]], tree: dict, s: int) -> list[int]:
    """L(0) = s forced along a tree on 0..n-1 from 0 with step(x)[k] =
    columns[k][x]: L(y) = columns[k][L(x)] for the edge (x, k) to y; in a
    regular action, left multiplication by the element moving 0 to s."""
    lam = [s] * len(tree)
    for y, (x, k) in islice(tree.items(), 1, None):
        lam[y] = columns[k][lam[x]]
    return lam


def orbit_labels(rows: Sequence[Sequence[int]], n: int) -> tuple[list[int], list[int]]:
    """Orbits of permutation rows on 0..n-1, as one label per point,
    orbits numbered by least point, and those least points.

    Breadth-first with the labels as the marks, where ``orbit`` would
    build a set for every orbit: most cosets and classes are small.
    """
    label = [-1] * n
    reps: list[int] = []
    for i, c in enumerate(label):
        if c < 0:
            label[i] = c = len(reps)
            reps.append(i)
            todo = [i]
            for x in todo:
                for row in rows:
                    if label[row[x]] < 0:
                        label[row[x]] = c
                        todo.append(row[x])
    return label, reps


def is_regular_action(
    rows: Sequence[Sequence[int]], columns: Sequence[Sequence[int]], starts: Iterable[int]
) -> bool:
    """Whether columns of permutations act transitively and regularly;
    rows is the same action transposed, rows[b][c] = columns[c][b] the
    image of point b under column c, and starts must hold the image of 0
    under each column of a generating set.

    The spanning tree from 0 must reach every point.  For each start s,
    L with L(0) = s is filled in along it; in a regular action it is
    left multiplication, which commutes with every column, and the
    action is regular when each L does.  The L then move 0 along every
    word in the generators, so the centralizer is transitive and the
    group regular (Dixon & Mortimer, *Permutation Groups*, Thm 4.2A).
    """
    tree = spanning_tree(0, rows.__getitem__)
    if len(tree) != len(rows):
        return False
    for s in starts:
        lam = left_multiplication(columns, tree, s)
        # on one point itemgetter returns bare items, which compare alike
        if any(itemgetter(*col)(lam) != itemgetter(*lam)(col) for col in columns):
            return False
    return True
