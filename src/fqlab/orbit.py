"""Breadth-first reach and the regularity certificate on rows.

``orbit`` is the package's one search from a point: ``permgroup``
builds stabilizers on it, ``lattice`` and ``sweeps`` element words,
``graphs`` tests connectivity with it and ``fpgroup.coset`` tests that
a coset table is transitive.  ``orbit_labels`` partitions all points
into orbits at once: point orbits in ``permgroup``, conjugacy classes
and cosets in ``lattice``.  ``is_regular_action`` is the
one regularity certificate: the quotient search runs it on each coset
table, and ``lattice`` on the action of a group on the cosets of a
normal subgroup before any quotient is used.  Both live here so that
certifying a table loads no permutation-group code and a quotient in
``verify`` loads no ``fpgroup``.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
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


def is_regular_action(rows: Sequence[Sequence[int]], starts: Iterable[int]) -> bool:
    """Whether columns of permutations, rows[b][c] the image of point b
    under column c, act transitively and regularly; starts must hold the
    image of 0 under each column of a generating set.

    Left multiplication with L(0) = s is forced for each start s along
    every edge, L(rows[b][c]) = rows[L(b)][c]; a regular action has one
    for every s, and the action is regular when each is well defined.
    Each L then commutes with every column, and the L move 0 along every
    word in the generators, so the centralizer is transitive and the
    group regular (Dixon & Mortimer, *Permutation Groups*, Thm 4.2A).
    """
    order = orbit(0, rows.__getitem__)
    if len(order) != len(rows):
        return False
    for s in starts:
        lam: list[int | None] = [None] * len(rows)
        lam[0] = s
        for b in order:
            for d, e in zip(rows[b], rows[lam[b]]):
                if lam[d] is None:
                    lam[d] = e
                elif lam[d] != e:
                    return False
    return True
