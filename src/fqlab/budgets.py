"""Default resource budgets; the FQLAB_BUDGET variable overrides one of them.

FQLAB_BUDGET, when set to a positive integer, replaces the node budget
of the normal low-index search.  Caps that guard memory (element cap,
prime sieve mask, sieve scratch, relator length, graph family size) and
the count of index-2 subgroups that ``classify`` checks are fixed
instead.
"""

import os

MAX_PRIME_SIEVE = 1 << 30       # the sp: prime mask covers numbers below this, one cell per number of
                                # its class: 512 MiB of odd cells, a third of that for 3 | a; an
                                # sp: census keeps the half below its limit, so reaches 2**31
MAX_SIEVE_SCRATCH = 1 << 22     # bytes of a prime's divisor sieve, the one buffer a sieve window
                                # ending at hi takes beyond its width: up to isqrt(hi) for a
                                # small prime, so its narrow windows reach about 1.7 * 10**13
ELEMENT_CAP = 100_000           # exhaustive closure cap
NORMAL_SUBGROUP_CAP = 2_000     # group order cap for normal-subgroup listing
SEARCH_NODES = 5_000_000        # low-index backtracking budget
MAX_RELATOR_LETTERS = 2_048     # letters per relator; search rotations grow with its square
MAX_GRAPH_EDGES = 100_000       # edges of a built graph family
MAX_INDEX_TWO_SUBGROUPS = 2_047 # index-2 subgroups classify checks, 2**k - 1 for k even invariants:
                                # the elementary abelian 2**11 takes about 4 s on one Xeon core, 2**12 16 s

_ENV = "FQLAB_BUDGET"


def search_budget() -> int:
    """The search node budget: FQLAB_BUDGET if set, else SEARCH_NODES."""
    raw = os.environ.get(_ENV)
    if raw is None:
        return SEARCH_NODES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{_ENV} must be positive, got {value}")
    return value
