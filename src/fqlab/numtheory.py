"""Divisor-class sieves and natural-density bookkeeping.

Two families of integer sets drive everything here:

* the *anchored* set for a prime p: integers n such that p divides n
  exactly once and the only divisor of n congruent to 1 mod p is 1;
* the union of those sets over all *admissible* primes for a modulus a,
  where p is admissible when gcd(a, p) = 1 and gcd(a, p - 1) <= 2.

Every sieved set but ``all`` is the union of the anchored sets of the
primes that ``SieveSet.admissible_primes`` lists.  The module needs the
standard library alone.

The pointwise half (``is_prime``, ``factor``, ``np_contains``,
``sp_contains``) tests one integer at a time.  One trial-division
search finds least prime factors; ``factor`` divides them out into
(prime, exponent) pairs, and divisors are enumerated from those pairs,
so nothing is factored twice.  The search tries 2 to 13 before its
budget applies.

The sieves mark whole ranges at once on bytearrays, one byte of 0 or 1
per integer, and must agree with the pointwise tests bit for bit.

* **Admissible primes** are one odd-only mask: cell i stands for
  2i + 1, except cell 0, which stands for 2.  For ``sp:a``,
  Eratosthenes builds the mask of all primes up to the limit with
  strided slice stores, one cache-sized run of cells at a time.  The primes q | a are found by dividing a by
  the mask's primes until the cofactor is 1 or below q*q.  Each such q
  clears its own cell, and an odd q also clears every cell i > 0 with
  q | i, because 2i + 1 = 1 (mod q) exactly when q | i.  When 4 | a the
  even cells go too, because 2i + 1 = 1 (mod 4) exactly when i is
  even.  For ``np:p`` the mask holds p's cell alone.
* **Primes above cut = isqrt(hi - 1)** have every multiple below hi in
  their anchored sets.  They go first, into the zeroed segment
  [lo, hi), by cofactor m ascending: one strided store
  ``out[m*x - lo :: 2m] = mask[cells of x]`` covers every odd x > cut
  in range, prime or not.  A plain store, not an OR, is safe.  Let a
  prime x* > cut divide n.  If a writer m of cell n had the factor x*,
  both m and n/m would exceed cut and n >= (cut + 1)**2 > hi - 1; so
  every writer has n/m = k*x* with k >= 1, hence m <= n/x*.  The last
  write to n therefore comes from the cofactor n/x* and carries x*'s
  own cell, which is n's membership through x*.  A cell with no prime
  factor above the cut is written only from composite cells, zeros.
  For ``sp:a`` with 3 | a every admissible prime is 2 mod 3, so the
  stores take every third cell, ``mask[c :: 3]`` into
  ``out[... :: 6m]``; ``_store_large_primes`` shows why the writes it
  skips cannot change a cell.
* **Primes at or below the cut** each sieve their anchored set over the
  cofactor window (``_mark_np_window``) and OR it into the segment, or
  store it plainly when nothing has been written there yet.  A window
  clears every multiple k*d, k >= 2, of each d = 1 (mod p), d > 1.  It
  walks only the primitive d, those with no divisor f = 1 (mod p) with
  1 < f < d, and only the cofactors k that have no divisor f = 1
  (mod p), f > 1: every cell the others would clear is a multiple
  k'*f, k' >= 2, of a walked f, already cleared.  A small sieve, no
  longer than the walk, finds both as the walk ascends.

Counts are censused in fixed-size segments, so large limits never need
a full membership array in memory, and the segment boundaries cannot
change any count.  A piece of a segment is counted with Adler-32: its
low 16 bits are 1 + the byte sum mod 65,521 (RFC 1950), so on 0/1
bytes a chunk of at most 65,519 bytes reads its exact count, with no
branch per byte and no segment-sized integer.
"""

from __future__ import annotations

import math
import zlib
from itertools import compress
from typing import NamedTuple

from .budgets import MAX_PRIME_SIEVE, SEGMENT_SIZE
from .errors import ResourceBudgetError

# Cells that one pass of strided stores covers, in a segment or in the
# prime mask.  A 1 MB run fits a 2 MB L2 cache; across a whole 4 MB
# segment, byte stores 256 apart cost about four times as much.
_STORE_RUN = 1 << 20

# Bytes per Adler-32 count: 1 + 65,519 is the largest sum below the
# checksum's modulus, 65,521.
_ADLER_CHUNK = 65_519

# Trial-division budget: past 2 to 13, the divisor search raises when isqrt
# of the number it searches exceeds this.  No earlier call changes the rule.
_TRIAL_DIVISOR_MAX = 10**8


class Checkpoint(NamedTuple):
    limit: int
    count: int
    ratio: str


class DensitySeries:
    """Cumulative membership counts of a sieved set at increasing limits."""

    def __init__(self, set_name: str, checkpoints: tuple[Checkpoint, ...]) -> None:
        self.set_name = set_name
        self.checkpoints = checkpoints
        prev_limit = 0
        prev_count = -1
        for cp in self.checkpoints:
            if cp.limit <= prev_limit:
                raise ValueError("checkpoint limits must be strictly increasing")
            if cp.count < max(prev_count, 0) or cp.count > cp.limit:
                raise ValueError("checkpoint counts must be nondecreasing and <= limit")
            prev_limit, prev_count = cp.limit, cp.count

    def __eq__(self, other) -> bool:
        return type(other) is DensitySeries and vars(self) == vars(other)


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


def _odd_cells(limit: int) -> int:
    """Cells of an odd-only mask of the numbers up to limit, under the
    prime-sieve memory budget: cell i stands for 2i + 1, cell 0 for 2."""
    if limit + 1 > MAX_PRIME_SIEVE:
        raise ResourceBudgetError(f"prime sieve to {limit} exceeds the memory budget")
    return (limit + 1) // 2 if limit >= 2 else 0


def _clear(buf: bytearray, start: int, step: int, zeros: memoryview) -> None:
    """Zero buf[start::step]; zeros is an all-zero buffer at least that long."""
    if start < len(buf):
        buf[start::step] = zeros[: (len(buf) - 1 - start) // step + 1]


def _mark_np_window(good: bytearray, p: int, mlo: int, mhi: int, zeros: memoryview) -> None:
    """Clear, in the cofactor window m in [mlo, mhi), every m that fails.

    A surviving m means p*m belongs to the anchored set of p.  Cleared are
    multiples of p, every m > 1 with m = 1 mod p, and every multiple k*d
    (k >= 2) of a divisor d > 1 with d = 1 mod p.  Divisors are split at
    S = max(isqrt(p*mhi), p), not at the window width: each d <= S is
    walked directly, and the d > S are reached through their cofactor
    k < mhi/S, for which the multiples k*d form one progression of step
    k*p.  Any split clears the same cells; this one costs about
    2*sqrt(mhi/p) strided stores, whatever the window width.

    Only primitive d are walked, those with no divisor f = 1 mod p and
    1 < f < d, and only cofactors k with no divisor f = 1 mod p, f > 1:
    each cell a skipped d or k would clear is a multiple k'*f, k' >= 2,
    of a walked f.  ``zeros`` is an all-zero buffer at least
    (mhi - mlo) // 2 + 1 and isqrt(p*mhi) // 3 + 1 long.
    """
    _clear(good, ((mlo + p - 1) // p) * p - mlo, p, zeros)
    first = mlo + ((1 - mlo) % p)
    if first == 1:
        first += p
    _clear(good, first - mlo, p, zeros)
    split = max(math.isqrt(p * mhi), p)
    top = min(split, (mhi - 1) // 2)
    kmax = (mhi - 1) // (split + 1)
    # plain[x] drops to 0 once the walk reaches a divisor f > 1 of x with
    # f = 1 mod p.  A walked f marks only while that can matter: for a
    # cofactor k <= kmax, or for a later d = f*c with c = 1 mod p, so
    # d >= f*(p + 1).  kmax is at most split and at most (mhi - 1) // 2.
    marks = max(kmax, top // (p + 1))
    plain = bytearray(b"\x01") * (top + 1)
    for d in range(p + 1, top + 1, p):
        if plain[d]:
            if d <= marks:
                _clear(plain, d, d, zeros)
            _clear(good, max(2 * d, ((mlo + d - 1) // d) * d) - mlo, d, zeros)
    for k in compress(range(2, kmax + 1), plain[2:]):
        dmin = max(split + 1, (mlo + k - 1) // k)
        dmin += (1 - dmin) % p
        _clear(good, k * dmin - mlo, k * p, zeros)


def _store_large_primes(out: bytearray, mask: bytearray, big: int, lo: int, hi: int, step: int) -> None:
    """Write, for n in [lo, hi), the membership through mask's primes x >= 2*big + 1.

    Every such x lies above isqrt(hi - 1), so each of its multiples m*x
    below hi is a member of x's anchored set.  For each cofactor m,
    ascending, one store copies the mask cells of the odd x with m*x in
    a run of out to every 2m-th cell of the run; the module docstring
    shows why the last store to a cell is the right one.

    ``step`` is 3 when every prime the mask may list is 2 mod 3.  Their
    cells (x - 1)/2 are then 2 mod 3 too, and each store copies every
    third cell, from the class of the first, to every 6m-th cell of out.
    Skipping the other cells is safe: each holds a 0, so a skipped write
    stores a 0 into some n.  Let x* be the prime above isqrt(hi - 1) that
    divides n.  If x*'s cell is stored, the store from the cofactor n/x*
    comes after every skipped write to n, whose cofactors are smaller,
    and writes n's membership, as at step 1.  Otherwise x*'s cell is 0,
    as is every cell of a multiple of x*, so every write to n is a 0 and
    n stays 0.  With no such x*, every x above isqrt(hi - 1) dividing n
    is composite, and again every write is a 0.  ``step`` 1 copies every
    cell.
    """
    top = min(len(mask), hi // 2)
    first = mask.find(1, big, top)
    if first < 0:
        return
    last = mask.rfind(1, first, top)
    for run in range(lo, hi, _STORE_RUN):
        end = min(run + _STORE_RUN, hi)
        for m in range(-(-run // (2 * last + 1)), (end - 1) // (2 * first + 1) + 1):
            i0 = max(first, -(-run // m) // 2)
            i0 += (first - i0) % step
            i1 = min(last + 1, -(-end // m) // 2)
            if i0 < i1:
                start = m * (2 * i0 + 1) - lo
                stride = 2 * m * step
                out[start : start + stride * ((i1 - i0 - 1) // step) + 1 : stride] = mask[i0:i1:step]


class SieveSet:
    """A named integer set the segmented sieve knows how to enumerate.

    ``kind`` is one of ``all`` (every positive integer), ``np`` (anchored
    set of the prime ``param``) or ``sp`` (union over admissible primes
    for modulus ``param``).  Every set but ``all`` is the union of the
    anchored sets of its ``admissible_primes``.
    """

    def __init__(self, kind: str, param: int = 0) -> None:
        self.kind = kind
        self.param = param
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

    def admissible_primes(self, limit: int) -> bytearray:
        """The primes up to limit whose anchored sets make up the set, as an
        odd-only mask: cell i is 1 when 2i + 1 is one of them, cell 0 when 2
        is.  ``sp:a`` has the admissible primes for a.  ``np:p`` has p's cell
        alone, in a mask reaching p and under the same memory budget (no
        cells when p > limit)."""
        if self.kind == "np":
            p = self.param
            mask = bytearray(_odd_cells(p) if p <= limit else 0)
            if mask:
                mask[(p - 1) // 2] = 1
            return mask
        n = _odd_cells(limit)
        mask = bytearray(b"\x01") * n
        zeros = memoryview(bytes(_STORE_RUN // 2))
        # Eratosthenes run by run, so each run is cleared while in cache:
        # the primes up to isqrt(limit) kept from earlier runs clear it
        # first, then its own such primes are kept, each clearing the run
        # from p*p on.
        root = (math.isqrt(limit) + 1) // 2
        base: list[int] = []
        for run in range(0, n, _STORE_RUN):
            end = min(run + _STORE_RUN, n)
            for p in base:
                start = max(p * p // 2, run + (p * p // 2 - run) % p)
                mask[start:end:p] = zeros[: len(range(start, end, p))]
            for i in range(max(run, 1), min(end, root)):
                if mask[i]:
                    p = 2 * i + 1
                    base.append(p)
                    mask[p * p // 2 : end : p] = zeros[: len(range(p * p // 2, end, p))]
        # For a prime p, gcd(a, p) = 1 means p does not divide a, and
        # gcd(a, p - 1) > 2 means an odd prime q | a has q | p - 1, or 4 | a
        # and 4 | p - 1.  Such a q is below p, so it is a prime of the mask.
        # The odd q | a are all listed, by dividing them out of the odd
        # part of a, before any cell is cleared.
        a = self.param
        rest = a // (a & -a)
        odd_divisors = []
        for q in compress(range(3, 2 * n, 2), memoryview(mask)[1:]):
            if q * q > rest:
                break
            if rest % q == 0:
                odd_divisors.append(q)
                while rest % q == 0:
                    rest //= q
        if 1 < rest < 2 * n:
            odd_divisors.append(rest)
        if n and a % 2 == 0:
            mask[0] = 0
        for q in odd_divisors:
            mask[q // 2] = 0
        # each q clears the cells i >= q with q | i, and 4 | a the even
        # cells from 2, run by run: a store copies its zeros first, so no
        # copy is larger than a run
        steps = odd_divisors + [2] * (a % 4 == 0)
        for run in range(0, n, _STORE_RUN):
            end = min(run + _STORE_RUN, n)
            for q in steps:
                start = max(q, run + (-run) % q)
                mask[start:end:q] = zeros[: len(range(start, end, q))]
        return mask

    def segment_bits(self, lo: int, hi: int, primes: bytearray | None = None) -> bytearray:
        """Membership bytes, 0 or 1, for n in [lo, hi); lo >= 1.

        ``primes`` is a mask from ``admissible_primes`` of any limit at
        least hi - 1, by default ``admissible_primes(hi - 1)``.  The primes
        above isqrt(hi - 1) are stored first, by cofactor; each prime at
        or below it then sieves its own anchored set over the cofactor
        window and ORs it in.
        """
        if lo < 1 or hi <= lo:
            raise ValueError("need 1 <= lo < hi")
        if self.kind == "all":
            return bytearray(b"\x01") * (hi - lo)
        if primes is None:
            primes = self.admissible_primes(hi - 1)
        out = bytearray(hi - lo)
        big = (math.isqrt(hi - 1) + 1) // 2
        # for 3 | a, every admissible prime is 2 mod 3: 3 itself is not,
        # and a prime p = 1 mod 3 has 3 | gcd(a, p - 1)
        step = 3 if self.kind == "sp" and self.param % 3 == 0 else 1
        _store_large_primes(out, primes, big, lo, hi, step)
        plain = 1 not in out
        zeros = memoryview(bytes(max(hi - lo, math.isqrt(hi)) // 2 + 1))
        for i in compress(range(big), primes):
            p = 2 * i + 1 if i else 2
            mlo = max(1, (lo + p - 1) // p)
            mhi = (hi + p - 1) // p
            if mlo >= mhi:
                continue
            good = bytearray(b"\x01") * (mhi - mlo)
            _mark_np_window(good, p, mlo, mhi, zeros)
            start = mlo * p - lo
            if plain:
                out[start::p] = good
                plain = False
            else:
                merged = int.from_bytes(out[start::p], "little") | int.from_bytes(good, "little")
                out[start::p] = merged.to_bytes(len(good), "little")
        return out


def _count_ones(bits: memoryview) -> int:
    """The number of 1 bytes in a buffer of 0 and 1 bytes.

    Adler-32 keeps 1 + the byte sum mod 65,521 in its low 16 bits
    (RFC 1950), so on a chunk of at most 65,519 such bytes it reads the
    exact count.
    """
    count = 0
    for i in range(0, len(bits), _ADLER_CHUNK):
        count += (zlib.adler32(bits[i : i + _ADLER_CHUNK]) & 0xFFFF) - 1
    return count


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
    the result is identical for any segment size.  Each segment is
    counted once, in pieces split at the checkpoints inside it.
    """
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
        bits = memoryview(ss.segment_bits(lo, hi, primes))
        start = 0
        for stop in [c - lo + 1 for c in cps if lo <= c < hi] + [hi - lo]:
            running += _count_ones(bits[start:stop])
            at[lo + stop - 1] = running
            start = stop

    out = tuple(Checkpoint(c, at[c], ratio_string(at[c], c)) for c in cps)
    return DensitySeries(ss.name, out)
