"""Default resource budgets, overridable through the FQLAB_BUDGET variable.

FQLAB_BUDGET, when set to a positive integer, replaces both the coset
definition budget and the search node budget.  Caps that guard memory
(element cap, prime sieve mask) are fixed per call site instead.
"""

import os

SEGMENT_SIZE = 1 << 22          # integers per sieve segment
MAX_PRIME_SIEVE = 1 << 30       # largest bool mask primes_up_to allocates
ELEMENT_CAP = 100_000           # exhaustive closure cap
NORMAL_SUBGROUP_CAP = 2_000     # group order cap for normal-subgroup listing
COSET_DEFINITIONS = 2_000_000   # coset enumeration budget
SEARCH_NODES = 5_000_000        # low-index backtracking budget

_ENV = "FQLAB_BUDGET"


def coset_budget(default: int = COSET_DEFINITIONS) -> int:
    return _from_env(default)


def search_budget(default: int = SEARCH_NODES) -> int:
    return _from_env(default)


def _from_env(default: int) -> int:
    raw = os.environ.get(_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{_ENV} must be positive, got {value}")
    return value
