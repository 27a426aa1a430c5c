"""Sieve and membership tests.

The oracle here is deliberately dumb: full divisor scans straight from
the definitions.  Every sieve must agree with it bit for bit on ranges
small enough to brute-force.
"""

import functools
import math
import random
import re
import time
import tracemalloc
from itertools import accumulate, compress

import pytest

from fqlab import numtheory
from fqlab.errors import ResourceBudgetError
from fqlab.numtheory import (
    _STORE_RUN,
    DensitySeries,
    SieveSet,
    _count_ones,
    _mark_np_window,
    density_series,
    divisors,
    factor,
    is_prime,
    np_contains,
    parse_set_name,
    pp_contains,
    ratio_string,
    sp_contains,
)


def oracle_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_np(n, p):
    # p divides n exactly once, and no divisor of n above 1 is 1 mod p
    if n % p != 0 or (n // p) % p == 0:
        return False
    return all(d == 1 or d % p != 1 for d in oracle_divisors(n))


def oracle_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def oracle_pp(p, a):
    return math.gcd(a, p) == 1 and math.gcd(a, p - 1) <= 2


def oracle_sp(n, a):
    return any(
        oracle_np(n, p) for p in range(2, n + 1) if oracle_is_prime(p) and oracle_pp(p, a)
    )


def oracle_primes(limit):
    return [n for n in range(limit + 1) if oracle_is_prime(n)]


def wheel(a):
    """The modulus w of the class that the mask of sp:a keeps."""
    return 2 * (3 if a % 3 == 0 else 1) * (2 if a % 4 == 0 else 1)


def cell_number(w, j):
    """The number that cell j of a class-w mask stands for."""
    return w * j + w - 1


def mask_primes(mask, a=1):
    """The primes that the mask of sp:a lists."""
    w = wheel(a)
    return [cell_number(w, j) for j, bit in enumerate(mask) if bit]


def class_cells(mask, w):
    """The cells of an odd-only mask, cell i for 2i + 1, at the numbers of a
    class-w mask, in its layout."""
    return mask[w // 2 - 1 :: w // 2]


def members(bits, lo):
    """The n whose byte is set, for bits covering lo, lo + 1, ..."""
    return {lo + i for i, bit in enumerate(bits) if bit}


# Every prime is admissible for a = 1, so the mask of sp:1 is the sieve
# of the odd primes, and 2 sits beside it.
def primes_up_to(limit):
    return [2] * (limit >= 2) + mask_primes(SieveSet("sp", 1).admissible_primes(limit))


def test_primes_up_to_small():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_primes_up_to_against_oracle():
    for limit in (*range(401), 500):
        got = SieveSet("sp", 1).admissible_primes(limit)
        assert type(got) is bytearray and set(got) <= {0, 1}, limit
        assert mask_primes(got) == [p for p in oracle_primes(limit) if p > 2], limit


def test_primes_up_to_million_count():
    # 2 and the odd primes of the mask
    assert 1 + sum(SieveSet("sp", 1).admissible_primes(10**6)) == 78498


def unblocked_prime_mask(limit):
    """The odd-only prime mask by Eratosthenes over the whole mask at once;
    cell 0 stands for 1, which is not prime."""
    n = (limit + 1) // 2
    mask = bytearray(b"\x01") * n
    mask[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if mask[i]:
            p = 2 * i + 1
            mask[p * p // 2 :: p] = bytes(len(range(p * p // 2, n, p)))
    return mask


def test_prime_mask_matches_unblocked_sieve_across_runs():
    # the mask is sieved in runs of _STORE_RUN cells; cell i is 2i + 1
    for cells in (2 * _STORE_RUN - 1, 2 * _STORE_RUN, 2 * _STORE_RUN + 1, 4 * _STORE_RUN + 7):
        limit = 2 * cells - 1
        assert SieveSet("sp", 1).admissible_primes(limit) == unblocked_prime_mask(limit), cells
    assert 1 + SieveSet("sp", 1).admissible_primes(10**7).count(1) == 664_579


def test_admissible_prime_mask_across_runs():
    # the cells of primes q | a are cleared run by run too; each mask holds
    # two runs of cells and a few more, whatever its class
    for a in (6, 12, 35):
        w = wheel(a)
        limit = w * 2 * _STORE_RUN + 5
        want = class_cells(unblocked_prime_mask(limit), w)
        for j in compress(range(len(want)), want[:]):
            want[j] = pp_contains(cell_number(w, j), a)
        assert SieveSet("sp", a).admissible_primes(limit) == want, a


def test_sieve_buffers_are_bytearrays():
    assert type(SieveSet("sp", 1).admissible_primes(10**5)) is bytearray
    assert type(SieveSet("np", 3).segment_bits(1, 1000)) is bytearray
    assert type(SieveSet("sp", 6).segment_bits(1, 1000)) is bytearray


# a divisor filter that tests only small factors of a, or reads a as a
# fixed-width integer, fails on one of these
LARGE_MODULI = (
    2**31 - 1,
    2**62,
    2**63 - 1,
    2**63,
    2**64,
    3 * 2**64,
    2**89 - 1,
    math.factorial(59),
)


def test_admissible_primes_match_pointwise_filter():
    for limit in (-5, 0, 1, 2, 3, 1000, 5000):
        primes = oracle_primes(limit)
        for a in (*range(1, 401), *LARGE_MODULI):
            got = SieveSet("sp", a).admissible_primes(limit)
            assert type(got) is bytearray, (a, limit)
            # every odd admissible prime lies in the class; 2 has no cell,
            # and is admissible exactly when a is odd
            want = [p for p in primes if p > 2 and pp_contains(p, a)]
            assert mask_primes(got, a) == want, (a, limit)
            assert pp_contains(2, a) == (a % 2 == 1), a


def test_prime_sieve_only_reads_its_base_primes():
    # a tuple, as the cached base primes are, serves as well as a list, for
    # a whole mask from cell 0 too, and neither is changed
    base = tuple(p for p in oracle_primes(31) if p > 2)
    listed = list(base)
    for a in (1, 2, 35):
        # the cells of the numbers up to 999, whose root is 31
        got = numtheory._admissible_cells(a, 0, 500, base)
        assert got == numtheory._admissible_cells(a, 0, 500, listed), a
        assert listed == list(base), a
        assert mask_primes(got, a) == [p for p in oracle_primes(999) if p > 2 and pp_contains(p, a)]


def test_odd_primes_match_trial_division():
    # below 9 no base prime is needed; 9, 25 and 49 are the first squares
    # that the base primes up to the root must clear
    odd = [p for p in oracle_primes(3000) if p > 2]
    for limit in range(3001):
        assert numtheory._odd_primes(limit) == tuple(p for p in odd if p <= limit), limit


def test_is_prime_matches_oracle():
    for n in range(0, 2000):
        assert is_prime(n) == oracle_is_prime(n), n


def test_factor_basics():
    assert factor(1) == ()
    assert factor(12) == ((2, 2), (3, 1))
    assert factor(97) == ((97, 1),)
    assert factor(2**10) == ((2, 10),)
    assert factor(2 * 3 * 5 * 7 * 11 * 13) == (
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
    )


def test_factor_roundtrip():
    for n in range(1, 3000):
        prod = 1
        for p, e in factor(n):
            prod *= p**e
        assert prod == n


def test_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-5)


BIG_PRIME = 1_000_000_000_000_037  # isqrt about 3.2e7: within the budget


@functools.cache
def odd_trial_is_prime(n):
    # the naive test, over 2 and the odd numbers only, so that BIG_PRIME
    # takes seconds rather than minutes
    if n < 2:
        return False
    return n == 2 or (n % 2 != 0 and all(n % d for d in range(3, math.isqrt(n) + 1, 2)))


def assert_factor_matches_oracles(n):
    factors = factor(n)
    primes = [p for p, _ in factors]
    assert math.prod(p**e for p, e in factors) == n
    assert primes == sorted(set(primes))
    assert all(odd_trial_is_prime(p) for p in primes)
    assert is_prime(n) == odd_trial_is_prime(n)
    return factors


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              3215031751, 2152302898747, 3474749660383)


def test_factor_and_is_prime_match_oracles_on_large_inputs():
    assert assert_factor_matches_oracles(2**60) == ((2, 60),)
    assert assert_factor_matches_oracles(99991**2) == ((99991, 2),)
    assert assert_factor_matches_oracles(BIG_PRIME) == ((BIG_PRIME, 1),)
    for n in CARMICHAEL:
        factors = assert_factor_matches_oracles(n)
        # Korselt: squarefree, and p - 1 divides n - 1 for every prime p | n
        assert len(factors) >= 3 and all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in factors)
    for p, q in ((999983, 1000003), (999979, 999983), (1000003, 1000033)):
        assert assert_factor_matches_oracles(p * q) == ((p, 1), (q, 1))
    assert assert_factor_matches_oracles(999999999989) == ((999999999989, 1),)
    # 17 * BIG_PRIME is past the budget for both: see the test below


def test_trial_division_budget_depends_on_the_input_alone():
    # the same calls in both orders, in one process: no call may change
    # whether a later one fits the budget
    calls = [
        (factor, 17 * BIG_PRIME, False),  # isqrt about 1.3e8
        (is_prime, 17 * BIG_PRIME, False),
        (factor, 289, True),
        (factor, 2**60, True),
        (is_prime, 2**60, True),  # isqrt is 2**30, but 2 settles it first
        (is_prime, (10**8 + 1) ** 2, False),
        (is_prime, 10**16 + 1, True),  # isqrt is exactly 10**8; 353 divides it
        (factor, (10**8 + 7) ** 2, False),
        (factor, 2**30 * 999999937, True),  # the cofactor past 2..13 decides
        (factor, 10**16 + 1, True),
    ]
    for order in (calls, calls[::-1], calls):
        for fn, n, fits in order:
            if fits:
                fn(n)
            else:
                with pytest.raises(ResourceBudgetError):
                    fn(n)
    assert is_prime(2**60) is False


def test_divisors_match_oracle():
    for n in range(1, 500):
        assert divisors(factor(n)) == oracle_divisors(n), n


def test_divisors_720():
    assert len(divisors(factor(720))) == 30


def test_np_membership_examples():
    assert np_contains(15, 5)
    assert np_contains(15, 3)
    assert not np_contains(12, 3)  # 4 = 1 mod 3 divides 12
    assert not np_contains(21, 3)  # 7 = 1 mod 3 divides 21
    assert not np_contains(9, 3)  # exact multiplicity fails
    assert np_contains(2, 2)
    assert not np_contains(6, 2)  # 3 is odd, hence 1 mod 2
    assert np_contains(5, 5)


def test_np_membership_validates():
    with pytest.raises(ValueError):
        np_contains(0, 3)
    with pytest.raises(ValueError):
        np_contains(10, 4)
    with pytest.raises(ValueError):
        np_contains(10, 1)


def test_np_membership_against_oracle():
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 700):
            assert np_contains(n, p) == oracle_np(n, p), (n, p)


def test_pp_membership_examples():
    assert pp_contains(5, 6)
    assert not pp_contains(7, 6)  # gcd(6, 6) = 6
    assert not pp_contains(3, 6)  # 3 divides 6
    assert pp_contains(2, 1)
    assert pp_contains(3, 2)


def test_pp_mod_six_pattern():
    # for a = 6 the admissible primes are exactly those congruent to 5 mod 6
    for p in oracle_primes(500):
        assert pp_contains(p, 6) == (p % 6 == 5), p


def test_pp_all_primes_when_a_is_one():
    for p in oracle_primes(200):
        assert pp_contains(p, 1)


def test_pp_odd_primes_when_a_is_two():
    for p in oracle_primes(200):
        assert pp_contains(p, 2) == (p != 2)


def test_sp_membership_examples():
    assert sp_contains(15, 1)
    assert not sp_contains(1, 1)
    assert not sp_contains(1, 6)
    assert not sp_contains(12, 6)  # needs a prime 5 mod 6 dividing once; none do


def test_sp_membership_against_oracle():
    for a in (1, 2, 6):
        for n in range(1, 400):
            assert sp_contains(n, a) == oracle_sp(n, a), (n, a)


def test_sp_monotone_under_divisibility():
    # a | b means the admissible primes for b are a subset of those for a
    for n in range(1, 300):
        if sp_contains(n, 6):
            assert sp_contains(n, 2)
            assert sp_contains(n, 1)
        if sp_contains(n, 2):
            assert sp_contains(n, 1)


# Frozen membership sets, recomputed by the divisor-scan oracle.
NP3_TO_30 = {3, 6, 15}
NP2_TO_10 = {2}
NP5_TO_100 = {5, 10, 15, 20, 35, 40, 45, 65, 70, 85, 95}


def sieved_members(name, limit):
    """Members of 1..limit, sieved as one segment."""
    return members(parse_set_name(name).segment_bits(1, limit + 1), 1)


def segmented_bits(name, limit, segment_size):
    """Membership bits of 1..limit, sieved segment by segment and joined."""
    ss = parse_set_name(name)
    primes = ss.admissible_primes(limit) if ss.kind == "sp" else None
    return b"".join(
        ss.segment_bits(lo, min(lo + segment_size, limit + 1), primes)
        for lo in range(1, limit + 1, segment_size)
    )


def test_sieve_np_frozen_sets():
    assert sieved_members("np:3", 30) == NP3_TO_30
    assert sieved_members("np:2", 10) == NP2_TO_10
    assert sieved_members("np:5", 100) == NP5_TO_100
    assert sieved_members("np:5", 5) == {5}


def test_sieve_np_matches_oracle():
    for p in (2, 3, 5, 7, 13):
        bits = SieveSet("np", p).segment_bits(1, 901)
        for n in range(1, 901):
            assert bool(bits[n - 1]) == oracle_np(n, p), (n, p)


def test_sieve_np_segment_size_invariance():
    for p in (3, 7):
        name = f"np:{p}"
        ref = segmented_bits(name, 2000, 4096)
        cps = [1, 999, 1000, 2000]
        want = density_series(name, cps, segment_size=4096)
        for seg in (2, 3, 17, 100, 999, 5000):
            assert segmented_bits(name, 2000, seg) == ref, (p, seg)
            assert density_series(name, cps, segment_size=seg) == want, (p, seg)


def test_sieve_np_large_prime_fast_path():
    # p*p > limit: every multiple of p up to the limit qualifies
    assert sieved_members("np:97", 5000) == set(range(97, 5001, 97))


def test_sieve_sp_matches_oracle():
    for a in (1, 2, 6):
        bits = SieveSet("sp", a).segment_bits(1, 401)
        for n in range(1, 401):
            assert bool(bits[n - 1]) == oracle_sp(n, a), (n, a)


def test_sieve_sp_segment_size_invariance():
    ref = segmented_bits("sp:6", 1500, 4096)
    for seg in (2, 13, 250, 1499):
        assert segmented_bits("sp:6", 1500, seg) == ref, seg
    # the cut between per-prime and cofactor marking moves with each
    # segment's end, so segment boundaries pick the path a prime takes
    for name in ("sp:6", "np:3"):
        ref = segmented_bits(name, 200_000, 4096)
        for seg in (65_537, 200_000):
            assert segmented_bits(name, 200_000, seg) == ref, (name, seg)


def oracle_windows():
    """3,000-wide windows [lo, hi) checked against the pointwise tests."""
    width = 3000
    for p in (3, 7, 13):
        for hi in (10**6, 10**8, 3 * 10**9):
            yield f"np:{p}", hi - width, hi
    # sp:6 stops short of 3e9, which is over the prime-sieve budget
    for hi in (10**6, 10**7, 10**8):
        yield "sp:6", hi - width, hi
    # windows ending just below and just above p*p for admissible p: in an
    # sp: set the first marks p by cofactor, the second sieves its anchored
    # set, and np:p sieves both; 4 | a clears the even cells of the prime mask
    for p in (11, 2003):
        for hi in (p * p, p * p + 1):
            for name in ("sp:6", f"np:{p}", "sp:4", "sp:12"):
                yield name, max(1, hi - width), hi
    # a prime factor of a above the square root of the limit
    yield f"sp:{2 * 999983}", 10**6 - width, 10**6


def pointwise_contains(ss, n):
    return np_contains(n, ss.param) if ss.kind == "np" else sp_contains(n, ss.param)


@pytest.mark.parametrize("name,lo,hi", list(oracle_windows()))
def test_segment_bits_matches_pointwise_oracle_windows(name, lo, hi):
    ss = parse_set_name(name)
    got = members(ss.segment_bits(lo, hi), lo)
    want = {n for n in range(lo, hi) if pointwise_contains(ss, n)}
    assert got == want


def unpruned_window(p, mlo, mhi):
    """The cofactor window with every divisor d = 1 mod p walked.

    The same split as ``_mark_np_window`` with nothing pruned: the d <= S
    are walked one by one and the d > S through every cofactor k.
    """
    good = bytearray(b"\x01") * (mhi - mlo)

    def clear(start, step):
        if start < len(good):
            good[start::step] = bytes(len(range(start, len(good), step)))

    clear(((mlo + p - 1) // p) * p - mlo, p)
    first = mlo + ((1 - mlo) % p)
    if first == 1:
        first += p
    clear(first - mlo, p)
    split = max(math.isqrt(p * mhi), p)
    for d in range(p + 1, min(split, (mhi - 1) // 2) + 1, p):
        clear(max(2 * d, ((mlo + d - 1) // d) * d) - mlo, d)
    for k in range(2, (mhi - 1) // (split + 1) + 1):
        dmin = max(split + 1, (mlo + k - 1) // k)
        dmin += (1 - dmin) % p
        clear(k * dmin - mlo, k * p)
    return good


def pruned_window(p, mlo, mhi):
    good = bytearray(b"\x01") * (mhi - mlo)
    _mark_np_window(good, p, mlo, mhi)
    return good


WINDOW_PRIMES = (2, 3, 5, 7, 11, 101)


@pytest.mark.parametrize("p", WINDOW_PRIMES)
def test_unpruned_window_oracle_matches_definition(p):
    for mlo, mhi in ((1, 700), (500, 1300)):
        want = bytearray(np_contains(p * m, p) for m in range(mlo, mhi))
        assert unpruned_window(p, mlo, mhi) == want, (mlo, mhi)


@pytest.mark.parametrize("p", WINDOW_PRIMES)
def test_pruned_window_matches_unpruned_rule(p):
    windows = [(1, mhi) for mhi in (2, 3, p + 2, 2 * p + 3, 1000, 100_000)]
    windows += [(mlo, mlo + width) for mlo in (999, 10**6 - 1234, 10**9 + 7) for width in (1, 2000)]
    for mlo, mhi in windows:
        assert pruned_window(p, mlo, mhi) == unpruned_window(p, mlo, mhi), (mlo, mhi)


@pytest.mark.parametrize("length", [0, 65_518, 65_519, 65_520, 3 * 65_519 + 1])
def test_count_ones_is_exact_at_the_adler_chunk_edges(length):
    for fill in (b"\x00", b"\x01"):
        buf = fill * length
        assert _count_ones(memoryview(buf)) == buf.count(1)
    rng = random.Random(length)
    buf = bytes(rng.getrandbits(1) for _ in range(length))
    assert _count_ones(memoryview(buf)) == buf.count(1)


# One or two sets of each mask layout: w = 2 (sp:1, sp:10), w = 4 (sp:4,
# sp:20), w = 6 with even a (sp:6) and with odd a, where 2 sits beside the
# mask (sp:3, sp:15), and w = 12 (sp:12, sp:24).
SP_LAYOUTS = ("sp:1", "sp:10", "sp:4", "sp:20", "sp:6", "sp:3", "sp:15", "sp:12", "sp:24")


@pytest.mark.parametrize("name", SP_LAYOUTS)
def test_every_mask_has_one_cell_per_number_of_its_class(name):
    # cell j stands for w*j + w - 1 at every limit: 1 has cell 0 when
    # w = 2, cleared as not prime, and 2 has no cell
    a = parse_set_name(name).param
    w = wheel(a)
    primes = oracle_primes(400)
    for limit in range(401):
        got = SieveSet("sp", a).admissible_primes(limit)
        assert len(got) == (limit + 1) // w, limit
        want = [p for p in primes if 2 < p <= limit and pp_contains(p, a)]
        assert mask_primes(got, a) == want, limit


@pytest.mark.parametrize("name", ["sp:1", "sp:2", "sp:3", "sp:4", "sp:5", "sp:6", "sp:12", "sp:15"])
def test_density_series_at_the_smallest_limits(name):
    # the kept mask reaches limit // 2, at most 6 here, and 2 sits beside
    # it for odd a; every last checkpoint from 1 to 13 ends a census
    a = parse_set_name(name).param
    counts = list(accumulate(sp_contains(n, a) for n in range(1, 14)))
    for top in range(1, 14):
        for segment_size in (2, 3, _STORE_RUN):
            got = density_series(name, list(range(1, top + 1)), segment_size=segment_size)
            assert [cp.count for cp in got.checkpoints] == counts[:top], (top, segment_size)


@pytest.mark.parametrize("name", SP_LAYOUTS)
def test_segment_bits_matches_pointwise_across_store_runs_and_segments(name):
    # one segment wider than a store run, from lo past the checked window,
    # and two segments that meet inside the window at lo + _STORE_RUN
    ss = parse_set_name(name)
    lo = 2_000_001
    mid = lo + _STORE_RUN
    primes = ss.admissible_primes(mid + 3000)
    window = range(mid - 1500, mid + 1500)
    want = {n for n in window if sp_contains(n, ss.param)}
    bits = ss.segment_bits(lo, mid + 1500, primes)
    assert members(bits[window.start - lo :], window.start) == want
    joined = ss.segment_bits(window.start, mid, primes) + ss.segment_bits(mid, window.stop, primes)
    assert members(joined, window.start) == want


@pytest.mark.parametrize("name", SP_LAYOUTS)
def test_segment_bits_matches_pointwise_on_tiny_segments(name):
    # with hi <= 9 the cut is at most 2, so 3 and its cell lie above it
    ss = parse_set_name(name)
    for primes in (None, ss.admissible_primes(100)):
        for lo in range(1, 9):
            for hi in range(lo + 1, 10):
                got = members(ss.segment_bits(lo, hi, primes), lo)
                assert got == {n for n in range(lo, hi) if sp_contains(n, ss.param)}, (lo, hi)


# The primes above the cut are stored by cofactor above X0 = 4 * cut and by
# prime in (cut, X0], from a mask of each layout.


def split_primes(a, x0):
    """The last prime at or below x0 and the first above it, and the same for
    the primes admissible for a."""
    below = (q for q in range(x0, 1, -1) if is_prime(q))
    above = (q for q in range(x0 + 1, 2 * x0 + 2) if is_prime(q))
    return {
        next(below),
        next(above),
        next(q for q in range(x0, 1, -1) if is_prime(q) and pp_contains(q, a)),
        next(q for q in range(x0 + 1, 2 * x0 + 2) if is_prime(q) and pp_contains(q, a)),
    }


@pytest.mark.parametrize("name", SP_LAYOUTS)
def test_segment_bits_at_the_split_between_cofactor_and_prime_stores(name):
    # each window is wider than the primes on either side of its X0, so it
    # holds multiples of each, whose largest prime factor is that prime
    ss = parse_set_name(name)
    for hi in (10**4 + 1, 2 * 10**6):
        x0 = 4 * math.isqrt(hi - 1)
        qs = split_primes(ss.param, x0)
        lo = hi - max(qs) - 50
        assert all(any(n % q == 0 for n in range(lo, hi)) for q in qs)
        want = {n for n in range(lo, hi) if sp_contains(n, ss.param)}
        assert members(ss.segment_bits(lo, hi), lo) == want, (name, hi)


@pytest.mark.parametrize("name", SP_LAYOUTS)
def test_density_series_at_the_split_between_cofactor_and_prime_stores(name):
    # segments of 999 move X0 with every segment end; the default segment
    # is one window with X0 = 4 * isqrt(limit)
    limit = 20_000
    cps = [4 * math.isqrt(limit) + 1, 999, limit]
    ss = parse_set_name(name)
    counts = [0] * len(cps)
    for n in range(1, limit + 1):
        if sp_contains(n, ss.param):
            for j, c in enumerate(cps):
                counts[j] += n <= c
    for segment_size in (999, _STORE_RUN):
        got = density_series(name, cps, segment_size=segment_size)
        assert [cp.count for cp in got.checkpoints] == counts, segment_size


@pytest.mark.parametrize("a,qs", [(6, (5, 11, 17)), (1, (3, 5, 7)), (4, (3, 7, 11))])
def test_small_prime_windows_merge_with_the_segment(a, qs):
    # Each small prime clears its window from the segment's cells, so a
    # member through an earlier prime, or through a prime above the cut,
    # stays a member where a later prime's window clears it.  The cells
    # checked have two or three of qs as factors dividing them once; a
    # window cleared to 0 would lose every witness counted here.
    ss = SieveSet("sp", a)
    witnesses = 0
    for lo in (1001, 10**5, 10**6 - 3000):
        hi = lo + 3000
        bits = ss.segment_bits(lo, hi)
        cut = math.isqrt(hi - 1)
        for n in range(lo, hi):
            once = [q for q in qs if n % q == 0 and n % (q * q)]
            if len(once) < 2:
                continue
            assert bits[n - lo] == sp_contains(n, a), n
            small = [q for q in range(2, cut + 1) if n % q == 0 and is_prime(q) and pp_contains(q, a)]
            witnesses += sp_contains(n, a) and not np_contains(n, small[-1])
    assert witnesses >= 10, witnesses


def test_only_sp_sets_keep_a_prime_mask():
    for ss in (SieveSet("np", 3), SieveSet("np", 2003), SieveSet("all")):
        with pytest.raises(ValueError):
            ss.admissible_primes(10)
        with pytest.raises(ValueError):
            ss._mask_limit(10)
        with pytest.raises(ValueError):
            ss.segment_bits(1, 11, SieveSet("sp", 1).admissible_primes(10))
    # the one prime of np:p is its least member
    for p in (2, 3, 11, 2003):
        assert members(SieveSet("np", p).segment_bits(max(1, p - 1), p + 1), max(1, p - 1)) == {p}


def test_sieve_memory_budget():
    # the admissible primes of an sp: set are listed up to half the segment end
    with pytest.raises(ResourceBudgetError):
        SieveSet("sp", 6).segment_bits(2**40, 2**40 + 10)
    with pytest.raises(ResourceBudgetError):
        density_series("sp:6", [2**40])


def test_narrow_windows_high_up_are_refused_before_allocating():
    # A prime's divisor walk needs min(isqrt(p * mhi), mhi / 2) bytes
    # whatever the window's width: for P's cofactors [P, P + 1) that is
    # about a GB, so the window is refused with no allocation first, under
    # the name of their integer span [P * P, P * P + P).
    P = 2**31 - 1
    lo, hi = P * P - 500, P * P + 500
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceBudgetError, match=re.escape(f"[{P * P}, {P * P + P})")):
            SieveSet("np", P).segment_bits(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
        elapsed = time.perf_counter() - start
        # the walk of 3 at 3e14 alone: isqrt(3e14) bytes of primitive divisors
        with pytest.raises(ResourceBudgetError, match=re.escape("[300000000000000, 300000000000030)")):
            _mark_np_window(bytearray(b"\x01") * 10, 3, 10**14, 10**14 + 10)
        walk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5, elapsed
    assert max(peak, walk_peak) < 64 * 1024, (peak, walk_peak)


def test_large_prime_windows_high_up_need_no_scratch_beyond_the_budget():
    # a prime above isqrt(hi) walks no divisor past half its cofactors, so
    # its windows near 10**14 sieve under the budget however narrow
    p = 100000007
    lo = p * 10**6 - 1000
    start = time.perf_counter()
    bits = SieveSet("np", p).segment_bits(lo, lo + 2000)
    elapsed = time.perf_counter() - start
    assert members(bits, lo) == {p * 10**6} and np_contains(p * 10**6, p)
    assert elapsed < 0.5, elapsed
    # below p every cofactor is a member
    assert density_series(f"np:{p}", [2 * 10**14]).checkpoints[0].count == 2 * 10**14 // p == 1999999


def test_sp_reach_is_twice_the_prime_budget(monkeypatch):
    # the kept mask reaches limit // 2, so the budget on it bounds the
    # limit at twice the budget, less one
    budget = 1 << 13
    monkeypatch.setattr(numtheory, "MAX_PRIME_SIEVE", budget)
    limit = 2 * budget - 1
    want = sum(sp_contains(n, 6) for n in range(1, limit + 1))
    for segment_size in (_STORE_RUN, 1000):
        got = density_series("sp:6", [limit], segment_size=segment_size).checkpoints[0]
        assert got.count == want, segment_size
    with pytest.raises(ResourceBudgetError):
        density_series("sp:6", [limit + 1])
    with pytest.raises(ResourceBudgetError):
        SieveSet("sp", 6).segment_bits(limit - 9, limit + 2)


def test_segment_bits_needs_an_sp_mask_reaching_half_the_segment():
    ss = SieveSet("sp", 6)
    want = {n for n in range(900, 1001) if sp_contains(n, 6)}
    assert members(ss.segment_bits(900, 1001, ss.admissible_primes(500)), 900) == want
    # the mask keeps the numbers 5 mod 6: the one to 498 holds the same
    # cells, up to 497, and the one to 496 ends a cell short, at 491
    assert ss.admissible_primes(498) == ss.admissible_primes(500)
    with pytest.raises(ValueError):
        ss.segment_bits(900, 1001, ss.admissible_primes(496))


def test_sieve_working_set_is_bounded(monkeypatch):
    # the kept sp:6 mask is a byte per number 5 mod 6 up to limit / 2,
    # L/12 bytes in all; every other buffer lives one segment, of one store
    # run
    limit = 4 * 10**6
    masks, segments = [], []

    def record(method, sizes):
        def wrapped(*args, **kwargs):
            result = method(*args, **kwargs)
            sizes.append(len(result))
            return result

        return wrapped

    monkeypatch.setattr(SieveSet, "admissible_primes", record(SieveSet.admissible_primes, masks))
    monkeypatch.setattr(SieveSet, "segment_bits", record(SieveSet.segment_bits, segments))
    tracemalloc.start()
    try:
        density_series("sp:6", [limit])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit // 12 + 5 * 2**20, peak
    assert masks == [(limit // 2 + 1) // 6]
    assert len(segments) == -(-limit // _STORE_RUN) and max(segments) == _STORE_RUN


def windows_sieved_for_cofactor_one(monkeypatch, name, limit, segments):
    """The (c0, cells) of every window that segment_bits sieves for itself."""
    windows = []
    sieve = numtheory._admissible_cells

    def record(a, c0, c1, base):
        cells = sieve(a, c0, c1, base)
        if c0:  # cell 0 starts a whole mask, the kept one or the base primes
            windows.append((c0, bytes(cells)))
        return cells

    ss = parse_set_name(name)
    primes = ss.admissible_primes(limit // 2)
    monkeypatch.setattr(numtheory, "_admissible_cells", record)
    for lo, hi in segments:
        ss.segment_bits(lo, hi, primes)
    return windows


@pytest.mark.parametrize("a", [1, 4, 6, 12, 2 * 999983, 999983 * 1000003])
def test_primes_sieved_per_segment_match_the_full_mask(monkeypatch, a):
    # A census to limit = 2w runs keeps the mask of the class-w cells below
    # w runs, so the (w + 1)-th density segment of one run is the first past
    # it, and its window starts at the cell _STORE_RUN; a segment of w runs
    # and more sieves a window whose own run loop crosses a boundary.
    # 2 * 999983 and 999983 * 1000003 clear the cells i with 999983 | i or
    # 1000003 | i: 1999966 and 2000006 lie in the fourth segment's window.
    # The base primes find 999983 in the first, but leave the second's
    # product to the test of each cell.
    w = wheel(a)
    limit = w * 2 * _STORE_RUN + 5000
    full = class_cells(unblocked_prime_mask(limit), w)
    segments = [(lo, min(lo + _STORE_RUN, limit + 1)) for lo in range(1, limit + 1, _STORE_RUN)]
    segments.append((limit - w * _STORE_RUN - 4000, limit + 1))
    windows = windows_sieved_for_cofactor_one(monkeypatch, f"sp:{a}", limit, segments)
    assert len(windows) == len(segments) - w and windows[0][0] == _STORE_RUN
    assert max(len(cells) for _, cells in windows) > _STORE_RUN
    for c0, cells in windows:
        want = bytearray(full[c0 : c0 + len(cells)])
        for j in compress(range(c0, c0 + len(cells)), want[:]):
            want[j - c0] = pp_contains(w * j + w - 1, a)
        assert cells == want, (a, c0)


def test_np_windows_past_the_prime_budget():
    # np:p keeps no prime mask, so a prime above MAX_PRIME_SIEVE is sieved
    # like any other; a non-multiple of p is no member, so only the
    # multiples are tested pointwise
    p = 2**31 - 1
    ss = SieveSet("np", p)
    for k in (1, 2, 3, 1000):
        lo, hi = k * p - 500, k * p + 500
        want = {n for n in range(lo, hi) if n % p == 0 and np_contains(n, p)}
        assert members(ss.segment_bits(lo, hi), lo) == want == {k * p}, k


def test_np_count_keeps_no_prime_mask(monkeypatch):
    def refuse(*args):
        raise AssertionError("an np: count reached the sp: mask route")

    monkeypatch.setattr(SieveSet, "admissible_primes", refuse)
    monkeypatch.setattr(numtheory, "_store_large_primes", refuse)
    monkeypatch.setattr(numtheory, "MAX_PRIME_SIEVE", 0)
    for p in (2, 3, 97, 2003):
        want = sum(np_contains(n, p) for n in range(p, 5001, p))
        assert density_series(f"np:{p}", [5000], segment_size=999).checkpoints[0].count == want
    p = 2**31 - 1
    assert members(SieveSet("np", p).segment_bits(p - 500, p + 500), p - 500) == {p}


def test_np_count_working_set_is_a_few_store_runs():
    # at a prime just below the limit, a mask reaching p would be L/2 bytes
    limit = 8 * 10**6
    p = next(q for q in range(limit - 1, 0, -2) if is_prime(q))
    tracemalloc.start()
    try:
        got = density_series(f"np:{p}", [limit]).checkpoints[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.count == 1
    assert peak <= 3 * _STORE_RUN, peak


def cofactor_checkpoints(p, cofactors):
    """Limits around p*m for each m: every residue mod p when p is small."""
    offsets = range(-p, p + 1) if p < 100 else (-p, 1 - p, -1, 0, 1, p - 1)
    return sorted({m * p + d for m in cofactors for d in offsets if m * p + d >= 1})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 1000003])
def test_np_count_over_cofactors_matches_pointwise(p):
    # a count reads checkpoint c at cofactor c // p, so the checkpoints
    # step through every residue around multiples of p, at segment edges
    # of 999 cofactors and at the end
    top = 2100
    cps = cofactor_checkpoints(p, (1, 2, 3, 998, 999, 1000, 1001, 1998, 1999, top))
    assert any(a // p == b // p for a, b in zip(cps, cps[1:]))
    member = [m % p != 0 and np_contains(p * m, p) for m in range(top + 2)]
    want = [sum(member[1 : c // p + 1]) for c in cps]
    for segment_size in (2, 3, 999, _STORE_RUN):
        got = density_series(f"np:{p}", cps, segment_size=segment_size)
        assert [cp.count for cp in got.checkpoints] == want, segment_size
        assert [cp.ratio for cp in got.checkpoints] == [ratio_string(w, c) for w, c in zip(want, cps)]


def test_np_count_below_its_prime_is_zero():
    for p, cps in ((7, [1, 5, 6]), (1000003, [1, 2, 999_999, 1_000_002])):
        for segment_size in (2, _STORE_RUN):
            got = density_series(f"np:{p}", cps, segment_size=segment_size)
            assert [cp.count for cp in got.checkpoints] == [0] * len(cps), (p, segment_size)


@pytest.mark.parametrize(
    "p,limit,segment_size,calls",
    [(3, 6 * 10**6, _STORE_RUN, 2), (5, 10**6, 999, 201), (1000003, 5 * 10**6, 2, 2), (7, 6, 2, 0)],
)
def test_np_count_sieves_one_cofactor_window_per_segment(monkeypatch, p, limit, segment_size, calls):
    # one walk per run of segment_size cofactors, and no integer segment
    assert -(-(limit // p) // segment_size) == calls
    windows = []
    mark = numtheory._mark_np_window

    def record(good, *args):
        windows.append(len(good))
        return mark(good, *args)

    def refuse(*args):
        raise AssertionError("an np: count built an integer segment")

    monkeypatch.setattr(numtheory, "_mark_np_window", record)
    monkeypatch.setattr(SieveSet, "segment_bits", refuse)
    density_series(f"np:{p}", [limit], segment_size=segment_size)
    assert len(windows) == calls and sum(windows) == limit // p


def test_np_count_working_set_is_a_few_cofactor_runs():
    # one run of cofactors, the zeros of one clear, at most half a run,
    # and the small divisor sieve
    tracemalloc.start()
    try:
        got = density_series("np:3", [8 * 10**6]).checkpoints[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _STORE_RUN, peak
    # the integer segment that segment_bits stores the same cells into
    assert got.count == sum(SieveSet("np", 3).segment_bits(1, 8 * 10**6 + 1))


def test_ratio_string():
    assert ratio_string(1, 2) == "0.500000"
    assert ratio_string(1, 3) == "0.333333"
    assert ratio_string(2, 3) == "0.666667"
    assert ratio_string(0, 10) == "0.000000"
    assert ratio_string(10, 10) == "1.000000"
    assert ratio_string(1, 10**6) == "0.000001"
    assert ratio_string(1, 10**7) == "0.000000"
    assert ratio_string(5, 10**7) == "0.000001"  # exact half rounds up


def test_parse_set_name():
    assert parse_set_name("all").name == "all"
    assert parse_set_name("np:3").name == "np:3"
    assert parse_set_name("sp:6").name == "sp:6"
    for bad in ("np", "np:", "np:x", "sp:-1", "np:4", "foo:3", ""):
        with pytest.raises(ValueError):
            parse_set_name(bad)


def test_density_series_counts_match_sieve():
    cps = [10, 100, 1000]
    series = density_series("np:3", cps)
    bits = SieveSet("np", 3).segment_bits(1, 1001)
    for cp in series.checkpoints:
        assert cp.count == sum(bits[: cp.limit])
        assert cp.ratio == ratio_string(cp.count, cp.limit)


def test_density_series_all_set():
    series = density_series("all", [7, 50])
    assert [(cp.count, cp.ratio) for cp in series.checkpoints] == [(7, "1.000000"), (50, "1.000000")]


def test_density_series_segment_invariance():
    ref = density_series("sp:6", [97, 1000, 2500], segment_size=4096)
    for seg in (2, 5, 64, 97, 98, 333):
        got = density_series("sp:6", [97, 1000, 2500], segment_size=seg)
        assert got == ref, seg


def test_density_series_validates():
    with pytest.raises(ValueError):
        density_series("np:3", [])
    with pytest.raises(ValueError):
        density_series("np:3", [10, 10])
    with pytest.raises(ValueError):
        density_series("np:3", [100, 10])
    with pytest.raises(ValueError):
        density_series("np:3", [0, 10])
    with pytest.raises(ValueError):
        density_series("np:3", [10], segment_size=1)


def test_density_series_type_validates():
    from fqlab.numtheory import Checkpoint

    with pytest.raises(ValueError):
        DensitySeries("x", (Checkpoint(10, 3, "0.3"), Checkpoint(5, 1, "0.2")))
    with pytest.raises(ValueError):
        DensitySeries("x", (Checkpoint(10, 12, "1.2"),))
    with pytest.raises(ValueError):
        DensitySeries("x", (Checkpoint(10, 3, "0.3"), Checkpoint(20, 2, "0.1")))


def test_anchored_set_thins_out():
    # counts at powers of ten shrink as a fraction of the limit
    series = density_series("np:3", [10**3, 10**4, 10**5])
    fracs = [cp.count / cp.limit for cp in series.checkpoints]
    assert fracs[0] > fracs[1] > fracs[2]


def test_union_set_thickens():
    # union over admissible primes grows toward full density
    series = density_series("sp:6", [10**2, 10**3, 10**4, 10**5])
    fracs = [cp.count / cp.limit for cp in series.checkpoints]
    assert fracs[-1] > fracs[0]
    assert fracs[-1] > 0.5


def test_density_counts_frozen_at_ten_million():
    # exact counts: one member gained or lost anywhere below 10**7 fails
    sp6 = density_series("sp:6", [10**7]).checkpoints[0]
    assert (sp6.count, sp6.ratio) == (6_644_079, "0.664408")
    np3 = density_series("np:3", [10**7]).checkpoints[0]
    assert (np3.count, np3.ratio) == (119_623, "0.011962")

