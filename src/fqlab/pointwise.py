"""Pointwise membership tests: one integer at a time, no sieve.

``is_prime``, ``factor``, ``divisors``, ``np_contains``, ``pp_contains``
and ``sp_contains`` decide the sets of ``numtheory`` for a single n.
One trial-division search finds least prime factors; ``factor`` divides
them out into (prime, exponent) pairs, and divisors are enumerated from
those pairs, so nothing is factored twice.  The search tries 2 to 13
before its budget applies.  ``numtheory`` re-exports every name here and
checks its sieves against them bit for bit; ``verify`` loads this module
alone, so it compiles no sieve.
"""

from __future__ import annotations

import math

from .errors import ResourceBudgetError

# Trial-division budget: past 2 to 13, the divisor search raises when isqrt
# of the number it searches exceeds this.  No earlier call changes the rule.
_TRIAL_DIVISOR_MAX = 10**8


def _trial_divisors():
    """2, 3, 5, 7, 11 and 13, then every 6k - 1 and 6k + 1 from 17 on."""
    yield from (2, 3, 5, 7, 11, 13)
    d = 17
    while True:
        yield d
        yield d + 2
        d += 6


def _least_prime_factor(m: int) -> int:
    """Least prime factor of m >= 2: the only trial-division loop.

    2 to 13 are tried first, so a number they divide is settled whatever
    its size; the budget applies from 17 on.
    """
    root = math.isqrt(m)
    for d in _trial_divisors():
        if d > root:
            return m
        if d == 17 and root > _TRIAL_DIVISOR_MAX:
            raise ResourceBudgetError(f"trial division to {root} exceeds the {_TRIAL_DIVISOR_MAX} budget")
        if m % d == 0:
            return d


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division up to isqrt(n)."""
    return n >= 2 and _least_prime_factor(n) == n


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation as (prime, exponent) pairs, primes ascending.

    1 factors to the empty product.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: must be >= 1")
    out: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = _least_prime_factor(m)
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def divisors(factors: tuple[tuple[int, int], ...]) -> list[int]:
    """All positive divisors, ascending, of the product of (prime, exponent) pairs."""
    out = [1]
    for p, e in factors:
        powers = [p**k for k in range(1, e + 1)]
        out += [d * q for d in out for q in powers]
    out.sort()
    return out


def _no_divisor_one_mod(p: int, factors: tuple[tuple[int, int], ...]) -> bool:
    """Is no divisor above 1 of the product of the pairs 1 mod p?"""
    return all(d % p != 1 for d in divisors(factors)[1:])


def np_contains(n: int, p: int) -> bool:
    """Does p divide n exactly once with no divisor of n above 1 being 1 mod p?

    Divisors of n congruent to 1 mod p are coprime to p, hence exactly the
    divisors of n/p in the same class; scanning those suffices.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n % p != 0:
        return False
    m = n // p
    if m % p == 0:
        return False
    return _no_divisor_one_mod(p, factor(m))


def pp_contains(p: int, a: int) -> bool:
    """Is the prime p admissible for modulus a?

    Requires gcd(a, p) = 1 and gcd(a, p - 1) <= 2.  The caller supplies a
    prime; compositeness is not re-checked here.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    return math.gcd(a, p) == 1 and math.gcd(a, p - 1) <= 2


def sp_contains(n: int, a: int) -> bool:
    """Does n lie in the anchored set of some admissible prime for a?

    Only primes dividing n to exact multiplicity 1 can anchor n, so only
    those are tested.  n is factored once: the divisors of n/p are those
    of the other pairs.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    pairs = factor(n)
    for i, (p, e) in enumerate(pairs):
        if e == 1 and pp_contains(p, a) and _no_divisor_one_mod(p, pairs[:i] + pairs[i + 1 :]):
            return True
    return False
