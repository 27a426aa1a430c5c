"""Finite quotient order sets and their certificates."""

import pytest

from fqlab.budgets import MAX_RELATOR_LETTERS
from fqlab.errors import ResourceBudgetError, SearchBudgetError
from fqlab.fpgroup import (
    fq_up_to,
    free_product_of_cyclics,
    low_index_normal_subgroups,
    oq_up_to,
    parse_presentation,
    smooth_quotients,
    verify_table,
)
from fqlab.numtheory import factor, np_contains
from fqlab.permgroup import perm_order
from fqlab.sweeps import normal_sylow_quotient

Z = "gens: x\nrels:\n"
DINF = "gens: a b\nrels: a^2, b^2\n"
MODULAR = "gens: a b\nrels: a^2, b^3\n"


def test_fq_infinite_cyclic_is_everything():
    r = fq_up_to(parse_presentation(Z), 30)
    assert r.orders == tuple(range(1, 31))
    assert r.complete


def test_fq_infinite_dihedral_is_one_two_and_evens():
    r = fq_up_to(parse_presentation(DINF), 30)
    assert r.orders == tuple(sorted({1, 2} | set(range(4, 31, 2))))


def test_fq_modular_group():
    r = fq_up_to(parse_presentation(MODULAR), 24)
    assert r.orders == (1, 2, 3, 6, 12, 18, 24)


def test_certificates_retrace():
    r = fq_up_to(parse_presentation(DINF), 30)
    for order, t in r.certificates.items():
        assert t.n_cosets == order
        assert verify_table(t)
        assert t.image_group().order == t.n_cosets


def test_oq_filters_to_odd():
    r = oq_up_to(parse_presentation(MODULAR), 24)
    assert r.orders == (1, 3)
    assert set(r.certificates) == {1, 3}
    r = oq_up_to(parse_presentation(Z), 20)
    assert r.orders == (1, 3, 5, 7, 9, 11, 13, 15, 17, 19)


def test_free_product_presentation():
    p = free_product_of_cyclics([3, 2])
    assert p.generator_names == ("a", "b")
    assert p.relators == ((1, 1, 1), (2, 2))
    with pytest.raises(ValueError):
        free_product_of_cyclics([3, 1])
    with pytest.raises(ValueError):
        free_product_of_cyclics([])
    assert free_product_of_cyclics([MAX_RELATOR_LETTERS]).relators == ((1,) * MAX_RELATOR_LETTERS,)
    with pytest.raises(ResourceBudgetError):
        free_product_of_cyclics([300_000_000, 2])


def test_smooth_two_two_is_all_even():
    # every dihedral group D_2n keeps both involutions faithful, and the
    # diagonal C2 kills the n = 1 case only
    r = smooth_quotients([2, 2], 20)
    assert r.orders == tuple(range(2, 21, 2))


def test_smooth_three_two():
    r = smooth_quotients([3, 2], 24)
    assert r.orders == (6, 12, 18, 24)


def test_smooth_certificates_keep_exact_orders():
    # every search table where both generators keep their orders, read
    # from the column permutations; the certificates are the first of
    # each order among them
    r = smooth_quotients([3, 2], 48)
    first = {}
    for t in low_index_normal_subgroups(free_product_of_cyclics([3, 2]), 48):
        if perm_order(t.column_perm(0)) == 3 and perm_order(t.column_perm(1)) == 2:
            assert t.image_group().order == t.n_cosets
            first.setdefault(t.n_cosets, t.flat())
    assert {m: t.flat() for m, t in r.certificates.items()} == first


def test_smooth_is_subset_of_fq():
    for orders, limit in [((2, 2), 20), ((3, 2), 24), ((3, 3), 24)]:
        pres = free_product_of_cyclics(orders)
        full = set(fq_up_to(pres, limit).orders)
        kept = set(smooth_quotients(orders, limit).orders)
        assert kept <= full


def test_fq_partial_flag(monkeypatch):
    monkeypatch.setenv("FQLAB_BUDGET", "10")
    r = fq_up_to(parse_presentation(MODULAR), 24, allow_partial=True)
    assert not r.complete
    assert set(r.orders) <= {1, 2, 3, 6, 12, 18, 24}
    with pytest.raises(SearchBudgetError):
        fq_up_to(parse_presentation(MODULAR), 24)


def test_fq_rejects_bad_limit():
    with pytest.raises(ValueError):
        fq_up_to(parse_presentation(Z), 0)


def test_lcm_divisibility_structure():
    # any two realized orders have a common multiple realized whenever
    # it stays under the limit, via the product of the two quotients
    r = fq_up_to(parse_presentation(DINF), 24)
    have = set(r.orders)
    assert {2, 4} <= have and 4 in have
    assert {4, 6} <= have and 12 in have


# presentations with anchored quotient orders, each with its search limit
SYLOW_CASES = (
    (MODULAR, 72),
    ("gens: a b\nrels: a^2, b^2, (a b)^5\n", 10),
    ("gens: a b\nrels: a^2, b^2, (a b)^15\n", 30),
    ("gens: a b\nrels: a^3, b^3, (a b)^3\n", 81),
    ("gens: a b\nrels: a^2, b^4, (a b)^4\n", 64),
)


def test_sylow_quotients_of_table_images_are_quotient_orders():
    # a quotient of a quotient is a quotient: for every table image Q and
    # every prime p at which |Q| is anchored, the split quotient C_p x| C_k
    # that normal_sylow_quotient builds from Q has an order in fq
    hits = 0
    for text, limit in SYLOW_CASES:
        pres = parse_presentation(text)
        orders = set(fq_up_to(pres, limit).orders)
        for t in low_index_normal_subgroups(pres, limit):
            n = t.n_cosets
            for p, _ in factor(n):
                if np_contains(n, p):
                    order = normal_sylow_quotient(t.image_group(), p).quotient_order
                    assert order in orders, (text, n, p, order)
                    hits += 1
    assert hits >= 20
