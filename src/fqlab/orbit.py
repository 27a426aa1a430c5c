"""Breadth-first reach: the package's one orbit routine.

``permgroup`` builds orbits and conjugacy classes on it, ``graphs``
tests connectivity with it and ``fpgroup.coset`` tests that a coset
table is transitive.  It has a module of its own so that certifying a
table loads no permutation-group code.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
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
