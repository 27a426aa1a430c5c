"""Sieve and membership tests.

The oracle here is deliberately dumb: full divisor scans straight from
the definitions.  Every sieve must agree with it bit for bit on ranges
small enough to brute-force.
"""

import functools
import math

import numpy as np
import pytest

from fqlab.errors import ResourceBudgetError
from fqlab.numtheory import (
    DensitySeries,
    SieveSet,
    density_series,
    divisors,
    factor,
    is_prime,
    np_contains,
    parse_set_name,
    pp_contains,
    primes_up_to,
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


def test_primes_up_to_small():
    assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(primes_up_to(1)) == []
    assert list(primes_up_to(2)) == [2]


def test_primes_up_to_against_oracle():
    for limit in (*range(401), 500):
        got = primes_up_to(limit)
        assert got.dtype == np.int64, limit
        assert got.tolist() == [n for n in range(limit + 1) if oracle_is_prime(n)], limit


def test_primes_up_to_million_count():
    assert len(primes_up_to(10**6)) == 78498


def test_primes_up_to_dtype():
    assert primes_up_to(10**5).dtype == np.int64


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
    for limit in (0, 1, 2, 3, 1000, 5000):
        primes = primes_up_to(limit).tolist()
        for a in (*range(1, 401), *LARGE_MODULI):
            got = SieveSet("sp", a).admissible_primes(limit)
            assert got.dtype == np.int64, (a, limit)
            assert got.tolist() == [p for p in primes if pp_contains(p, a)], (a, limit)


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
    for p in primes_up_to(500):
        assert pp_contains(p, 6) == (p % 6 == 5), p


def test_pp_all_primes_when_a_is_one():
    for p in primes_up_to(200):
        assert pp_contains(p, 1)


def test_pp_odd_primes_when_a_is_two():
    for p in primes_up_to(200):
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
    bits = parse_set_name(name).segment_bits(1, limit + 1)
    return {int(i) + 1 for i in np.flatnonzero(bits)}


def segmented_bits(name, limit, segment_size):
    """Membership bits of 1..limit, sieved segment by segment and joined."""
    ss = parse_set_name(name)
    primes = None if ss.kind == "all" else ss.admissible_primes(limit)
    return np.concatenate(
        [
            ss.segment_bits(lo, min(lo + segment_size, limit + 1), primes)
            for lo in range(1, limit + 1, segment_size)
        ]
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
            assert np.array_equal(segmented_bits(name, 2000, seg), ref), (p, seg)
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
        assert np.array_equal(segmented_bits("sp:6", 1500, seg), ref), seg
    # the cut between per-prime and cofactor marking moves with each
    # segment's end, so segment boundaries pick the path a prime takes
    for name in ("sp:6", "np:3"):
        ref = segmented_bits(name, 200_000, 4096)
        for seg in (65_537, 200_000):
            assert np.array_equal(segmented_bits(name, 200_000, seg), ref), (name, seg)


def oracle_windows():
    """3,000-wide windows [lo, hi) checked against the pointwise tests."""
    width = 3000
    for p in (3, 7, 13):
        for hi in (10**6, 10**8, 3 * 10**9):
            yield f"np:{p}", hi - width, hi
    for hi in (10**6, 10**7):
        yield "sp:6", hi - width, hi
    # windows ending just below and just above p*p for admissible p: the
    # first marks p by cofactor, the second sieves its anchored set
    for p in (11, 2003):
        for hi in (p * p, p * p + 1):
            yield "sp:6", max(1, hi - width), hi
            yield f"np:{p}", max(1, hi - width), hi


def pointwise_contains(ss, n):
    return np_contains(n, ss.param) if ss.kind == "np" else sp_contains(n, ss.param)


@pytest.mark.parametrize("name,lo,hi", list(oracle_windows()))
def test_segment_bits_matches_pointwise_oracle_windows(name, lo, hi):
    ss = parse_set_name(name)
    bits = ss.segment_bits(lo, hi)
    got = {lo + int(i) for i in np.flatnonzero(bits)}
    want = {n for n in range(lo, hi) if pointwise_contains(ss, n)}
    assert got == want


def test_admissible_primes_of_np_set_is_its_prime():
    for p in (2, 3, 11, 2003):
        assert SieveSet("np", p).admissible_primes(p).tolist() == [p]
        assert SieveSet("np", p).admissible_primes(p - 1).tolist() == []
        assert SieveSet("np", p).admissible_primes(10**9).tolist() == [p]


def test_sieve_memory_budget():
    # the admissible primes of an sp: set are listed up to the segment end
    with pytest.raises(ResourceBudgetError):
        SieveSet("sp", 6).segment_bits(2**40, 2**40 + 10)
    with pytest.raises(ResourceBudgetError):
        density_series("sp:6", [2**40])


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
        assert cp.count == int(np.count_nonzero(bits[: cp.limit]))
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

