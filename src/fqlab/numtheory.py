"""Divisor-class sieves and natural-density bookkeeping.

Two families of integer sets drive everything here:

* the *anchored* set for a prime p: integers n such that p divides n
  exactly once and the only divisor of n congruent to 1 mod p is 1;
* the union of those sets over all *admissible* primes for a modulus a,
  where p is admissible when gcd(a, p) = 1 and gcd(a, p - 1) <= 2.

Every sieved set but ``all`` is the union of the anchored sets of the
primes that ``SieveSet.admissible_primes`` lists.

The pointwise half (``is_prime``, ``factor``, ``np_contains``,
``sp_contains``) is stdlib-only.  One trial-division search finds least
prime factors; ``factor`` divides them out into (prime, exponent) pairs,
and divisors are enumerated from those pairs, so nothing is factored
twice.  The search tries 2 to 13 before its budget applies.
The sieves mark whole ranges at once with numpy, imported only inside
the sieve functions, and must agree with the pointwise tests bit for
bit.  The prime list comes from a sieve over odd numbers only.  The
admissible primes for a are filtered without a gcd: one pass computes
a mod p over the whole list (in 31-bit limbs from 2**63 on), the primes
q dividing a drop out, and each odd such q, and 4 when 4 | a, removes
the primes that are 1 mod it.  Primes whose square reaches past a
segment are batched by cofactor: one numpy store marks m*p for every
such prime p at a fixed cofactor m.  Counts are censused in
fixed-size segments so large limits never need a full membership
array in memory, and the segment boundaries cannot change any count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .budgets import MAX_PRIME_SIEVE, SEGMENT_SIZE
from .errors import ResourceBudgetError

if TYPE_CHECKING:
    import numpy as np

# Trial-division budget: past 2 to 13, the divisor search raises when isqrt
# of the number it searches exceeds this.  No earlier call changes the rule.
_TRIAL_DIVISOR_MAX = 10**8


@dataclass(frozen=True)
class Checkpoint:
    limit: int
    count: int
    ratio: str


@dataclass(frozen=True)
class DensitySeries:
    """Cumulative membership counts of a sieved set at increasing limits."""

    set_name: str
    checkpoints: tuple[Checkpoint, ...]

    def __post_init__(self) -> None:
        prev_limit = 0
        prev_count = -1
        for cp in self.checkpoints:
            if cp.limit <= prev_limit:
                raise ValueError("checkpoint limits must be strictly increasing")
            if cp.count < max(prev_count, 0) or cp.count > cp.limit:
                raise ValueError("checkpoint counts must be nondecreasing and <= limit")
            prev_limit, prev_count = cp.limit, cp.count


def ratio_string(count: int, limit: int) -> str:
    """Exact decimal string for count/limit with six fractional digits.

    Rounds half away from zero using integer arithmetic only, so the
    output is identical on every platform.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    scaled, rem = divmod(count * 10**6, limit)
    if 2 * rem >= limit:
        scaled += 1
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


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


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array.

    The sieve holds odd numbers only: cell i stands for 2*i + 1, so the
    mask is half of limit + 1 long.  Cell 0 (the number 1) is left set to
    stand for 2, which keeps the list in one array: the mask is freed
    once the indices of its set cells are read, and each index i then
    becomes 2*i + 1 in place, the first becoming 2.  ``MAX_PRIME_SIEVE``
    bounds limit + 1, as for a full-width mask.
    """
    import numpy as np
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit + 1 > MAX_PRIME_SIEVE:
        raise ResourceBudgetError(f"prime sieve to {limit} exceeds the memory budget")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    del odd
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


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


def _mark_np_window(good: np.ndarray, p: int, mlo: int, mhi: int) -> None:
    """Clear, in the cofactor window m in [mlo, mhi), every m that fails.

    A surviving m means p*m belongs to the anchored set of p.  Cleared are
    multiples of p, every m > 1 with m = 1 mod p, and every multiple k*d
    (k >= 2) of a divisor d > 1 with d = 1 mod p.  Divisors are split at
    S = max(isqrt(p*mhi), p), not at the window width: each d <= S is
    walked directly, and the d > S are reached through their cofactor
    k < mhi/S, for which the multiples k*d form one progression of step
    k*p.  Any split clears the same cells; this one costs about
    2*sqrt(mhi/p) strided stores, whatever the window width.
    """
    first = ((mlo + p - 1) // p) * p
    if first < mhi:
        good[first - mlo :: p] = False
    first = mlo + ((1 - mlo) % p)
    if first == 1:
        first += p
    if first < mhi:
        good[first - mlo :: p] = False
    split = max(math.isqrt(p * mhi), p)
    for d in range(p + 1, min(split, (mhi - 1) // 2) + 1, p):
        start = max(2 * d, ((mlo + d - 1) // d) * d)
        if start < mhi:
            good[start - mlo :: d] = False
    for k in range(2, (mhi - 1) // (split + 1) + 1):
        dmin = max(split + 1, (mlo + k - 1) // k)
        dmin += (1 - dmin) % p
        start = k * dmin
        if start < mhi:
            good[start - mlo :: k * p] = False


def _or_np_segment(out: np.ndarray, p: int, lo: int, hi: int) -> None:
    """OR membership bits of p's anchored set for n in [lo, hi) into out; p*p < hi."""
    import numpy as np
    mlo = max(1, (lo + p - 1) // p)
    mhi = (hi + p - 1) // p
    if mlo >= mhi:
        return
    good = np.ones(mhi - mlo, dtype=bool)
    _mark_np_window(good, p, mlo, mhi)
    out[mlo * p - lo :: p] |= good


def _or_large_primes(out: np.ndarray, big: np.ndarray, lo: int, hi: int) -> None:
    """OR in every multiple m*p in [lo, hi) of the ascending primes in big.

    Every p in big lies above isqrt(hi - 1), so each of its multiples
    below hi has cofactor m < p and is a member of p's anchored set.
    Batching by m turns one store per prime into one store per cofactor:
    the primes with m*p in [lo, hi) are those in [ceil(lo/m), ceil(hi/m)),
    and no m below ceil(lo/max(big)) reaches lo.
    """
    import numpy as np
    if big.size == 0:
        return
    ms = np.arange(-(-lo // int(big[-1])), (hi - 1) // int(big[0]) + 1)
    starts = np.searchsorted(big, -(-lo // ms))
    ends = np.searchsorted(big, -(-hi // ms))
    for m, a, b in zip(ms.tolist(), starts.tolist(), ends.tolist()):
        if a < b:
            out[big[a:b] * m - lo] = True


def _residues(a: int, ps: np.ndarray) -> np.ndarray:
    """a mod p for each p in ps, exactly, for any a >= 0; every p < 2**30.

    From 2**63 on, a is read in 31-bit limbs by Horner's rule: a residue
    below 2**30 times 2**31, plus a limb, stays below 2**62.
    """
    import numpy as np
    if a < 2**63:
        return a % ps
    r = np.zeros_like(ps)
    for shift in range(a.bit_length() // 31 * 31, -1, -31):
        r <<= 31
        r += (a >> shift) & (2**31 - 1)
        r %= ps
    return r


@dataclass(frozen=True)
class SieveSet:
    """A named integer set the segmented sieve knows how to enumerate.

    ``kind`` is one of ``all`` (every positive integer), ``np`` (anchored
    set of the prime ``param``) or ``sp`` (union over admissible primes
    for modulus ``param``).  Every set but ``all`` is the union of the
    anchored sets of its ``admissible_primes``.
    """

    kind: str
    param: int = 0

    def __post_init__(self) -> None:
        if self.kind == "all":
            return
        if self.kind == "np":
            if not is_prime(self.param):
                raise ValueError(f"p must be prime, got {self.param}")
        elif self.kind == "sp":
            if self.param < 1:
                raise ValueError(f"a must be >= 1, got {self.param}")
        else:
            raise ValueError(f"unknown set name {self.kind!r}")

    @property
    def name(self) -> str:
        return "all" if self.kind == "all" else f"{self.kind}:{self.param}"

    def admissible_primes(self, limit: int) -> np.ndarray:
        """Ascending primes up to limit whose anchored sets make up the set:
        ``[p]`` for ``np:p`` (empty when p > limit), the admissible ones for ``sp:a``."""
        import numpy as np
        if self.kind == "np":
            return np.array([self.param] if self.param <= limit else [], dtype=np.int64)
        # For a prime p, gcd(a, p) = 1 means p does not divide a, and
        # gcd(a, p - 1) > 2 means an odd prime q | a has q | p - 1, or 4 | a
        # and 4 | p - 1.  Such a q is below p, so it is a prime of ps.
        ps = primes_up_to(limit)
        a = self.param
        divides = _residues(a, ps) == 0
        keep = ~divides
        for q in ps[divides].tolist():
            if q > 2:
                keep &= ps % q != 1
        if a % 4 == 0:
            keep &= ps % 4 != 1
        return ps[keep]

    def segment_bits(self, lo: int, hi: int, primes: np.ndarray | None = None) -> np.ndarray:
        """Membership bits for n in [lo, hi); lo >= 1.

        ``primes`` defaults to ``admissible_primes(hi - 1)``.  They take
        one of two paths, split at isqrt(hi - 1).  Each prime at or below
        the cut sieves its own anchored set over the cofactor window.
        The primes above it have p*p >= hi, so all their multiples below
        hi are members; those are marked by cofactor m, one store per m
        for all such primes at once.
        """
        import numpy as np
        if lo < 1 or hi <= lo:
            raise ValueError("need 1 <= lo < hi")
        out = np.zeros(hi - lo, dtype=bool)
        if self.kind == "all":
            out[:] = True
            return out
        if primes is None:
            primes = self.admissible_primes(hi - 1)
        cut = int(np.searchsorted(primes, math.isqrt(hi - 1), side="right"))
        for p in primes[:cut].tolist():
            _or_np_segment(out, p, lo, hi)
        _or_large_primes(out, primes[cut : np.searchsorted(primes, hi)], lo, hi)
        return out


def parse_set_name(name: str) -> SieveSet:
    """Parse ``all``, ``np:<p>`` or ``sp:<a>`` into a SieveSet."""
    if name == "all":
        return SieveSet("all")
    kind, sep, param = name.partition(":")
    if sep != ":" or kind not in ("np", "sp") or not param.isdigit():
        raise ValueError(f"unknown set name {name!r}")
    return SieveSet(kind, int(param))


def density_series(
    sieve_set: SieveSet | str,
    checkpoints: list[int],
    segment_size: int = SEGMENT_SIZE,
) -> DensitySeries:
    """Count set members at each checkpoint limit.

    Segments are censused independently and merged in ascending order, so
    the result is identical for any segment size.
    """
    import numpy as np
    ss = parse_set_name(sieve_set) if isinstance(sieve_set, str) else sieve_set
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    cps = list(checkpoints)
    if any(c < 1 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be ascending positive integers")
    if segment_size < 2:
        raise ValueError("segment_size must be >= 2")
    limit = cps[-1]
    primes = None if ss.kind == "all" else ss.admissible_primes(limit)

    running = 0
    at: dict[int, int] = {}
    for lo in range(1, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        bits = ss.segment_bits(lo, hi, primes)
        for c in cps:
            if lo <= c < hi:
                at[c] = running + int(np.count_nonzero(bits[: c - lo + 1]))
        running += int(np.count_nonzero(bits))

    out = tuple(Checkpoint(c, at[c], ratio_string(at[c], c)) for c in cps)
    return DensitySeries(ss.name, out)

