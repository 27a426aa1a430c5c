"""A fixed piece of work outside fqlab, timed around every command.

    python3 benchmark/reference.py

The host's speed drifts by a third within a minute, and the drift moves
this program and fqlab alike.  run.py divides each command's time by
the time of this program run just before and just after it, which
cancels the drift.  Like an fqlab command, it is a fresh interpreter
that imports numpy and then does the two kinds of work fqlab does:
tuple permutations kept in a dict, and small strided numpy updates
driven from a Python loop.  It must never change, or the times it
normalises are no longer comparable across commits.
"""

import numpy as np


def main() -> None:
    perm = tuple(range(1, 40)) + (0,)
    point, seen = tuple(range(40)), {}
    for i in range(16_000):
        point = tuple(point[j] for j in perm)
        seen[point] = i
    bits = np.zeros(1 << 17, dtype=bool)
    for step in range(2, 28_000):
        bits[step::step] |= True


if __name__ == "__main__":
    main()
