"""Divisor-class sieves and natural-density bookkeeping.

Two families of integer sets drive everything here:

* the *anchored* set for a prime p: integers n such that p divides n
  exactly once and the only divisor of n congruent to 1 mod p is 1;
* the union of those sets over all *admissible* primes for a modulus a,
  where p is admissible when gcd(a, p) = 1 and gcd(a, p - 1) <= 2.

``np:p`` is the anchored set of p, and ``sp:a`` the union of the
anchored sets of the primes that ``SieveSet.admissible_primes`` lists.
The module needs the standard library alone.

The pointwise half (``is_prime``, ``factor``, ``divisors``,
``np_contains``, ``pp_contains``, ``sp_contains``) tests one integer at
a time.  It lives in ``pointwise``, so that ``verify``, which needs
nothing else, compiles no sieve; this module re-exports it.

The sieves mark whole ranges at once on bytearrays, one byte of 0 or 1
per integer, and must agree with the pointwise tests bit for bit.

* **Admissible primes** are one mask over one residue class: cell j
  stands for w*j + w - 1, where w = 2 * (3 if 3 | a) * (2 if 4 | a), so
  w is 2, 4, 6 or 12, and a mask to L has (L + 1) // w cells.  The class
  holds every odd admissible prime: 3 | a forces p = 2 (mod 3), since
  3 | p - 1 would put 3 in gcd(a, p - 1), and 4 | a forces p = 3 (mod 4)
  in the same way.  2 has no cell; it is admissible exactly when a is
  odd, and then sits beside the mask as a small prime.  For ``sp:a`` one
  routine, ``_admissible_cells``, builds the cells of any range, reading
  the base primes, the odd primes up to the root of the range's top,
  which ``_odd_primes`` sieves with it from their own base primes:
  Eratosthenes with strided slice stores, one cache-sized run of cells
  at a time, in which each prime q not dividing w clears one progression
  of step q.  The odd primes q | a are found by dividing a by the base
  primes until the cofactor is 1 or below q*q; a cofactor left above that
  is a product of larger primes, and each cell left is tested against it
  with one gcd.  Each such q not dividing w clears its own cell and the
  cells of the numbers x = 1 (mod q), x > 1, again one progression of
  step q; 1, not prime, clears its own, cell 0 of w = 2.
* **A census keeps the ``sp:`` mask below half its limit.**  A prime
  above limit/2 has no multiple m*x <= limit with m >= 2, so only the
  cofactor 1 reads it.  ``density_series`` keeps
  ``admissible_primes(limit // 2)``, and a segment reaching past that
  mask sieves its own primes for cofactor 1, the cells of [lo, hi)
  above the cut, with the same routine and base primes up to
  isqrt(limit) found once.  ``MAX_PRIME_SIEVE`` bounds the numbers the
  kept half covers, so ``sp:`` sets reach 2**31.
* **Primes above cut = isqrt(hi - 1)** have every multiple below hi in
  their anchored sets, and n < hi has at most one prime factor above the
  cut.  They go first, into the zeroed segment [lo, hi), in two orders
  (``_store_large_primes``), split at X0 = 4*cut.  Above X0 they go by
  cofactor m ascending: one store ``out[m*x - lo :: w*m] = mask[cells of
  x]`` covers every x > X0 of the class in range, prime or not.  Then
  each admissible prime x in (cut, X0] stores ones into all its
  multiples, ``out[first :: x]``.  Plain stores, not ORs, are safe.  Let
  a prime x* > cut divide n.  If a writer m of cell n had the factor x*,
  both m and n/m would exceed cut and n >= (cut + 1)**2 > hi - 1; so
  every cofactor writer has n/m = k*x* with k >= 1, hence m <= n/x*.
  When x* > X0 lies in the class, the last cofactor write to n comes
  from n/x* and carries x*'s own cell, which is n's membership through
  x*; and no store by prime reaches n, since such a store of x writes
  only multiples of x, and x | n with cut < x <= X0 would make x = x*.
  Otherwise every cofactor write to n carries the cell of a composite
  k*x* or of a number outside the class, never admissible, so a 0; if
  x* <= X0, its store by prime comes after them all and writes the 1,
  if x* is admissible.  A cell with no prime factor above the cut is
  written only from composite cells, zeros.  The argument reads only the
  order of the stores and that each store copies true cells, so it holds
  when the cofactor-1 cells are the segment's own: that store still
  comes first, and the kept mask's stores follow from m = 2.
* **Primes at or below the cut** each sieve their anchored set over the
  cofactor window m in [mlo, mhi) with ``_np_window``, the one
  anchored-window sieve, on a buffer of ones with one cell per multiple
  p*m of the segment.  Each prime first reads the segment's cells at its
  multiples, ``s = out[start :: p]``, and clears its window from ``s``: a
  cleared cell takes s's value at that cell.  The window then holds the
  OR of s and the prime's anchored set, since an uncleared cell is
  1 = 1 | s and a cleared one is s = 0 | s, and one plain store puts it
  back.  A window clears every
  multiple k*d, k >= 2, of each d = 1 (mod p), d > 1.  It walks only the
  primitive d, those with no divisor f = 1 (mod p) with 1 < f < d, and
  only the cofactors k that have no divisor f = 1 (mod p), f > 1: every
  cell the others would clear is a multiple k'*f, k' >= 2, of a walked
  f, already cleared.  A small sieve, no longer than the walk, finds
  both as the walk ascends.
* **``np:p`` is counted over its cofactors.**  Every member is p*m, so
  ``_np_window`` sieves the one prime's cofactor window alone, on a
  buffer of ones, above the cut too: there every cofactor is below p,
  and the window clears none.  ``density_series`` counts that buffer
  directly, a run of cofactors per segment, so it walks, builds and
  counts 1/p of the integers; ``segment_bits`` stores the same window
  into every p-th cell of a zeroed integer segment.

Counts are censused in segments of one store run, of integers or, for
``np:p``, of cofactors, so every buffer a segment builds (the segment,
its cofactor-1 primes, each small prime's cofactor window and copy of
its cells, and the zeros that each clear makes for its one store) is at
most a run, and the segment boundaries cannot change any count.  The one
buffer that does not follow a window's width is a prime's small sieve of
primitive divisors, min(isqrt(p*mhi), mhi/2) bytes for the cofactors
[mlo, mhi), so about isqrt(hi) for a small prime's window ending at hi;
``_mark_np_window`` checks it against ``MAX_SIEVE_SCRATCH`` before
allocating it, so a narrow window high up is refused under the name of
its integer span [p*mlo, p*mhi).  A piece of a segment is
counted with Adler-32: its low 16 bits are 1 + the byte sum mod 65,521
(RFC 1950), so on 0/1 bytes a chunk of at most 65,519 bytes reads its
exact count, with no branch per byte and no segment-sized integer.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections.abc import Sequence
from itertools import compress
from typing import NamedTuple

from .budgets import MAX_PRIME_SIEVE, MAX_SIEVE_SCRATCH
from .errors import ResourceBudgetError
# is_prime checks np:p parameters; the rest is re-exported, the sieve's
# oracle under the names that the tests and benchmark/run.py import
from .pointwise import (  # noqa: F401
    divisors,
    factor,
    is_prime,
    np_contains,
    pp_contains,
    sp_contains,
)

# Cells that one pass of strided stores covers, in a segment or in the
# prime mask, and the integers, or np: cofactors, of one density_series
# segment.  A 1 MB run fits a 2 MB L2 cache; across 4 MB, byte stores
# 256 apart cost about four times as much.
_STORE_RUN = 1 << 20

# Bytes per Adler-32 count: 1 + 65,519 is the largest sum below the
# checksum's modulus, 65,521.
_ADLER_CHUNK = 65_519


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


def _wheel(a: int) -> int:
    """The modulus w of the class that the mask of ``sp:a`` keeps."""
    return 2 * (3 if a % 3 == 0 else 1) * (2 if a % 4 == 0 else 1)


def _cells(limit: int, w: int) -> int:
    """Cells of a class-w mask of the numbers up to limit, under the
    prime-sieve memory budget: cell j stands for w*j + w - 1."""
    if limit + 1 > MAX_PRIME_SIEVE:
        raise ResourceBudgetError(f"prime sieve to {limit} exceeds the memory budget")
    return max((limit + 1) // w, 0)


def _odd_prime_divisors(a: int, base: Sequence[int], top: int) -> tuple[list[int], int]:
    """The odd primes up to top that divide a, and what they leave unknown.

    ``base`` lists the odd primes in order from 3, up to at least
    isqrt(top).  a's odd part is divided by them until what is left is
    below the square of the next; it is then 1 or a prime.  Past the end
    of ``base`` that bound is isqrt(top) + 1.  The second value is 1, or
    the odd rest above that bound, whose prime factors all exceed
    isqrt(top): whether any of them is at most top is not known.
    """
    rest = a // (a & -a)
    found = []
    for q in base:
        if q * q > rest:
            break
        if rest % q == 0:
            found.append(q)
            while rest % q == 0:
                rest //= q
    else:
        q = math.isqrt(top) + 1
    if rest < q * q:
        if 1 < rest <= top:
            found.append(rest)
        rest = 1
    return found, rest


def _admissible_cells(a: int, c0: int, c1: int, base: Sequence[int]) -> bytearray:
    """Cells c0 <= j < c1 of the class-w mask of the primes admissible for a.

    This is the one prime sieve.  ``base`` lists the odd primes in order
    from 3 up to at least isqrt(w*c1 - 1); it is read, never changed.
    Eratosthenes runs run by run, so each run is cleared while in cache.
    Each prime q of ``base`` not dividing w clears the class multiples
    q*k, k >= q: q*q = 1 (mod w), so k = -q (mod w), one progression of
    step q in j.  Each store makes its own zeros, at most half a run.
    """
    w = _wheel(a)
    mask = bytearray(b"\x01") * max(c1 - c0, 0)
    if not mask:
        return mask
    for run in range(c0, c1, _STORE_RUN):
        end = min(run + _STORE_RUN, c1)
        for q in base:
            if w % q:
                s = q * (q + (-2 * q) % w) // w
                start = max(s, run + (s - run) % q)
                mask[start - c0 : end - c0 : q] = bytes(len(range(start, end, q)))
    # For a prime p, gcd(a, p) = 1 means p does not divide a, and
    # gcd(a, p - 1) > 2 means an odd prime q | a has q | p - 1, or 4 | a
    # and 4 | p - 1; the class already leaves out the primes that 3 | a
    # and 4 | a rule out.  1, which is not prime, and each other q clear
    # their own cell, if the class has one; each such q also clears, run
    # by run, the cells of x = 1 + q*t with t >= 1 and t = -2q (mod w), so
    # that no store's zeros are longer than half a run.
    found, rest = _odd_prime_divisors(a, base, w * c1 - 1)
    for x in [1, *found]:
        if (x + 1) % w == 0 and c0 <= x // w < c1:
            mask[x // w - c0] = 0
    steps = [((1 + q * ((-2 * q) % w or w)) // w, q) for q in found if w % q]
    for run in range(c0, c1, _STORE_RUN):
        end = min(run + _STORE_RUN, c1)
        for s, q in steps:
            start = max(s, run + (s - run) % q)
            mask[start - c0 : end - c0 : q] = bytes(len(range(start, end, q)))
    # the primes of a left in rest are tested cell by cell: p fails when
    # p | rest or a prime of rest divides p - 1, so one gcd tells
    if rest > 1:
        for j in compress(range(c0, c1), mask):
            p = w * j + w - 1
            if math.gcd(rest, p * (p - 1)) > 1:
                mask[j - c0] = 0
    return mask


@functools.lru_cache(maxsize=1)
def _odd_primes(limit: int) -> tuple[int, ...]:
    """The odd primes up to limit, in order, sieved with those up to its
    root, of which there are none below 9; the last tuple is kept, since
    every segment of one census asks for the same base primes."""
    base = _odd_primes(math.isqrt(limit)) if limit >= 9 else ()
    mask = _admissible_cells(1, 0, _cells(limit, 2), base)
    return tuple(compress(range(1, 2 * len(mask), 2), mask))


def _base_primes(w: int, cells: int) -> tuple[int, ...]:
    """The base primes of a class-w mask of that many cells: it ends below
    2w(cells + 1), and serves segments that end there too, so every
    segment of a census reads the one tuple that ``_odd_primes`` keeps."""
    return _odd_primes(math.isqrt(2 * w * (cells + 1)))


def _clear(buf: bytearray, start: int, step: int, source: bytearray | None = None) -> None:
    """Set buf[start::step] to the same cells of ``source``, a buffer as long
    as buf, or without one to 0."""
    if start < len(buf):
        if source is None:
            buf[start::step] = bytes((len(buf) - 1 - start) // step + 1)
        else:
            buf[start::step] = source[start::step]


def _mark_np_window(
    good: bytearray, p: int, mlo: int, mhi: int, source: bytearray | None = None
) -> None:
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
    of a walked f.

    A cleared cell takes 0, or with ``source``, a buffer as long as
    ``good``, that same cell of ``source``.  On a ``good`` of all ones
    that leaves good | source: a cell the walk passes by stays 1, and a
    cleared one is 0 | source.  Clearing one cell twice changes nothing,
    so the pruning above holds for either.  The small sieve of primitive
    divisors, ``plain``, costs min(isqrt(p*mhi), mhi/2) bytes, whatever
    the window's width: it is the only scratch that grows with the input,
    and it is checked against ``MAX_SIEVE_SCRATCH`` before anything is
    cleared, under the name of the integer span [p*mlo, p*mhi).  Each clear
    makes its own zeros, at most half the buffer it clears, rounded up.
    """
    split = max(math.isqrt(p * mhi), p)
    top = min(split, (mhi - 1) // 2)
    if top + 1 > MAX_SIEVE_SCRATCH:
        raise ResourceBudgetError(
            f"sieving [{p * mlo}, {p * mhi}) needs {top + 1} bytes of scratch,"
            f" over the budget of {MAX_SIEVE_SCRATCH}"
        )
    _clear(good, ((mlo + p - 1) // p) * p - mlo, p, source)
    first = mlo + ((1 - mlo) % p)
    if first == 1:
        first += p
    _clear(good, first - mlo, p, source)
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
                _clear(plain, d, d)
            _clear(good, max(2 * d, ((mlo + d - 1) // d) * d) - mlo, d, source)
    for k in compress(range(2, kmax + 1), plain[2:]):
        dmin = max(split + 1, (mlo + k - 1) // k)
        dmin += (1 - dmin) % p
        _clear(good, k * dmin - mlo, k * p, source)


def _np_window(p: int, lo: int, hi: int, source: bytearray | None = None) -> bytearray:
    """The cofactor cells of ``np:p`` in the integer window [lo, hi), lo >= 1.

    Cell m - mlo, for m in [mlo, mhi) = [ceil(lo/p), ceil(hi/p)), is 1
    when p*m is a member, or, given ``source``, a buffer as long, when that
    cell of ``source`` is.  This is the one anchored-window sieve, of
    ``np:p`` and of each small prime of an ``sp:`` segment: a buffer of
    ones that ``_mark_np_window`` clears.  Its one buffer beyond the
    window's width, the divisor sieve, is checked there against
    ``MAX_SIEVE_SCRATCH``, under the name of [p*mlo, p*mhi), not [lo, hi).
    """
    mlo, mhi = -(-lo // p), -(-hi // p)
    good = bytearray(b"\x01") * (mhi - mlo)
    if good:
        _mark_np_window(good, p, mlo, mhi, source)
    return good


def _store_large_primes(
    out: bytearray, lo: int, hi: int, w: int, primes: bytearray, own: bytearray, c0: int
) -> None:
    """Write, for n in [lo, hi), the membership through the admissible primes
    above cut = isqrt(hi - 1), in two orders.

    ``primes`` is the kept class-w mask from cell 0.  ``own`` is empty, or
    the segment's own cells from c0 on, which then stand in for the mask
    with the cofactor 1.  Every prime x above the cut has each of its
    multiples below hi in its anchored set.

    First, by cofactor m ascending, the cells of x above X0 = 4*cut: one
    store copies the mask cells of the x > X0 with m*x in [lo, hi), prime
    or not, to every w*m-th cell of out.  Then, prime by prime, each
    admissible x in (cut, X0] stores ones into all its multiples in
    [lo, hi).  The module docstring shows why the last store to a cell is
    the right one, and why the numbers outside the class, whose writes
    would all be zeros, need none.  Above X0 a store per cofactor copies
    fewer cells than a store per prime would; below it the primes are
    fewer than the cofactors, of which they spare those above hi/X0.  X0
    stops short at the end of ``primes``, which in a census happens only
    for hi <= 54.
    """
    cut = math.isqrt(hi - 1)
    big = (cut + 1) // w
    split = max(big, min((4 * cut + 1) // w, len(primes)))
    sources = [(primes, 0, range(1, hi))]
    if own:
        sources = [(own, c0, range(1, 2)), (primes, 0, range(2, hi))]
    for mask, c0, cofactors in sources:
        start = max(split, c0)
        top = min(c0 + len(mask), hi // w)
        first = mask.find(1, start - c0, top - c0) if start < top else -1
        if first < 0:
            continue
        last = mask.rfind(1, first, top - c0) + c0
        first += c0
        m0 = max(cofactors.start, -(-lo // (w * last + w - 1)))
        for m in range(m0, min(cofactors.stop, (hi - 1) // (w * first + w - 1) + 1)):
            i0 = max(first, -(-lo // m) // w)
            i1 = min(last + 1, -(-hi // m) // w)
            if i0 < i1:
                begin = m * (w * i0 + w - 1) - lo
                stride = w * m
                out[begin : begin + stride * (i1 - i0 - 1) + 1 : stride] = mask[i0 - c0 : i1 - c0]
    ones = memoryview(b"\x01" * ((hi - lo - 1) // (w * big + w - 1) + 1))
    for i in compress(range(big, split), memoryview(primes)[big:split]):
        x = w * i + w - 1
        begin = (-lo) % x
        out[begin::x] = ones[: len(range(begin, hi - lo, x))]


class SieveSet:
    """A named integer set the segmented sieve knows how to enumerate.

    ``kind`` is one of ``all`` (every positive integer), ``np`` (anchored
    set of the prime ``param``) or ``sp`` (union of the anchored sets of
    the ``admissible_primes`` for modulus ``param``).
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
        """The primes up to limit that are admissible for an ``sp:`` set's
        modulus a, as a mask of one class: cell j is 1 when w*j + w - 1 is
        one of them, with w = 2, 4, 6 or 12 (module docstring).  2 has no
        cell, and is admissible exactly when a is odd.  Other sets keep no
        mask."""
        if self.kind != "sp":
            raise ValueError(f"{self.name} keeps no prime mask")
        w = _wheel(self.param)
        cells = _cells(limit, w)
        return _admissible_cells(self.param, 0, cells, _base_primes(w, cells))

    def _mask_limit(self, limit: int) -> int:
        """How far the prime mask of an ``sp:`` census to limit reaches: the
        primes up to limit // 2, the only ones read with a cofactor m >= 2;
        each segment sieves the rest for cofactor 1."""
        if self.kind != "sp":
            raise ValueError(f"{self.name} keeps no prime mask")
        return limit // 2

    def segment_bits(self, lo: int, hi: int, primes: bytearray | None = None) -> bytearray:
        """Membership bytes, 0 or 1, for n in [lo, hi); lo >= 1.

        Only ``sp:a`` takes ``primes``, a mask from ``admissible_primes``
        reaching at least as far as that of the census to hi - 1, the
        default, (hi - 1) // 2; its cells in [lo, hi) past the mask are
        sieved here, in the same class.  Its primes above isqrt(hi - 1) are
        stored first, by cofactor and then by prime; each prime at or below
        it, 2 among them for odd a, then sieves its anchored set over the
        cofactor window with ``_np_window``, cleared from the segment's own
        cells.  ``np:p`` stores its one window from the same routine into
        the multiples of p of a zeroed segment.  Each prime's divisor sieve
        is checked against ``MAX_SIEVE_SCRATCH`` before it is allocated
        (``_mark_np_window``).
        """
        if lo < 1 or hi <= lo:
            raise ValueError("need 1 <= lo < hi")
        if primes is not None and self.kind != "sp":
            raise ValueError(f"{self.name} takes no prime mask")
        if self.kind == "all":
            return bytearray(b"\x01") * (hi - lo)
        out = bytearray(hi - lo)
        if self.kind == "np":
            p = self.param
            start = (-lo) % p
            out[start::p] = _np_window(p, lo, hi)
            return out
        if primes is None:
            primes = self.admissible_primes(self._mask_limit(hi - 1))
        w = _wheel(self.param)
        big = (math.isqrt(hi - 1) + 1) // w
        own, c0 = bytearray(), 0
        if len(primes) < hi // w:
            need = self._mask_limit(hi - 1)
            if len(primes) < _cells(need, w):
                raise ValueError(f"the prime mask must reach {need}")
            c0 = max(big, lo // w)
            own = _admissible_cells(self.param, c0, hi // w, _base_primes(w, len(primes)))
        _store_large_primes(out, lo, hi, w, primes, own, c0)
        # each prime clears its window from the cells already there, an OR;
        # 2, which has no cell, is admissible exactly when a is odd
        for p in [2] * (self.param % 2) + list(compress(range(w - 1, w * big, w), primes)):
            start = (-lo) % p
            out[start::p] = _np_window(p, lo, hi, out[start::p])
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
    set_name: str,
    checkpoints: list[int],
    segment_size: int = _STORE_RUN,
) -> DensitySeries:
    """Count the members of the named set at each checkpoint limit.

    Segments are censused independently and merged in ascending order, so
    the result is identical for any segment size.  Each segment is
    counted once, in pieces split at the checkpoints inside it.

    An ``np:p`` set is counted over its cofactors: every member is p*m,
    so a segment is a run of cofactors m, ``segment_size`` of them, each
    cell 1 when p*m is a member, and checkpoint c is read at cofactor
    c // p, 0 below p.  The other sets' segments are runs of integers.
    """
    ss = parse_set_name(set_name)
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    cps = list(checkpoints)
    if any(c < 1 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be ascending positive integers")
    if segment_size < 2:
        raise ValueError("segment_size must be >= 2")
    primes = ss.admissible_primes(ss._mask_limit(cps[-1])) if ss.kind == "sp" else None
    p = ss.param if ss.kind == "np" else 1
    ends = [c // p for c in cps]

    running = 0
    at = {0: 0}
    for lo in range(1, ends[-1] + 1, segment_size):
        hi = min(lo + segment_size, ends[-1] + 1)
        if ss.kind == "np":
            bits = memoryview(_np_window(p, p * lo, p * hi))
        else:
            bits = memoryview(ss.segment_bits(lo, hi, primes))
        start = 0
        for stop in [e - lo + 1 for e in ends if lo <= e < hi] + [hi - lo]:
            running += _count_ones(bits[start:stop])
            at[lo + stop - 1] = running
            start = stop

    out = tuple(Checkpoint(c, at[e], ratio_string(at[e], c)) for c, e in zip(cps, ends))
    return DensitySeries(ss.name, out)
