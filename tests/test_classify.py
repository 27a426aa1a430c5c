"""Density classification and its certificates."""

import pytest

import fqlab.fpgroup.classify as classify
from fqlab.errors import InternalInvariantError
from fqlab.fpgroup import (
    abelianization,
    classify_density,
    fq_up_to,
    index_two_subgroups,
    parse_presentation,
    schreier_data,
    verify_cyclic_witness,
    verify_dihedral_witness,
    word_exponents,
)

Z = "gens: x\nrels:\n"
DINF = "gens: a b\nrels: a^2, b^2\n"
MODULAR = "gens: a b\nrels: a^2, b^3\n"
CRYSTAL = "gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n"


def test_abelianization_examples():
    assert abelianization(parse_presentation(Z)).invariants == (0,)
    assert abelianization(parse_presentation(DINF)).invariants == (2, 2)
    assert abelianization(parse_presentation(MODULAR)).invariants == (1, 6)
    assert abelianization(parse_presentation(CRYSTAL)).invariants == (1, 2, 4)
    # trefoil knot group maps onto the integers
    trefoil = parse_presentation("gens: u v\nrels: u^2 = v^3\n")
    f = abelianization(trefoil)
    assert f.invariants == (1, 0)


def test_infinite_cyclic_detection():
    assert classify_density(parse_presentation(Z)).cyclic_witness == (1,)
    trefoil = parse_presentation("gens: u v\nrels: u^2 = v^3\n")
    w = classify_density(trefoil).cyclic_witness
    assert verify_cyclic_witness(trefoil, w)
    assert sorted(abs(e) for e in w) == [2, 3]
    for text in (DINF, MODULAR, CRYSTAL):
        assert classify_density(parse_presentation(text)).cyclic_witness is None


def test_cyclic_witness_verification_rejects_junk():
    p = parse_presentation(Z)
    assert verify_cyclic_witness(p, (1,))
    assert not verify_cyclic_witness(p, (2,))   # not primitive
    assert not verify_cyclic_witness(p, (0,))
    assert not verify_cyclic_witness(p, (1, 1))  # wrong length
    trefoil = parse_presentation("gens: u v\nrels: u^2 = v^3\n")
    assert not verify_cyclic_witness(trefoil, (1, 1))  # kills no relator


def test_infinite_dihedral_detection():
    p = parse_presentation(DINF)
    cls = classify_density(p)
    assert verify_dihedral_witness(
        p, cls.dihedral_table, cls.dihedral_generator, cls.dihedral_functional
    )
    for text in (MODULAR, CRYSTAL):
        cls = classify_density(parse_presentation(text))
        assert cls.dihedral_table is None and cls.dihedral_functional is None
    # Z itself also surjects onto nothing dihedral: its only index-2
    # subgroup is 2Z, with one Schreier generator that the outer
    # generator cannot negate, so neither primitive functional passes
    z = parse_presentation(Z)
    (table,) = index_two_subgroups(z)
    assert not any(verify_dihedral_witness(z, table, 0, (e,)) for e in (1, -1))


def test_d_infinity_times_finite_still_dihedral():
    # adding a commuting order-3 generator keeps the dihedral surjection
    p = parse_presentation("gens: a b c\nrels: a^2, b^2, c^3, [a,c], [b,c]\n")
    cls = classify_density(p)
    assert cls.tag == "infinite_dihedral"
    assert verify_dihedral_witness(
        p, cls.dihedral_table, cls.dihedral_generator, cls.dihedral_functional
    )
    # density 1/2 is every even order plus odd ones of density 0, not
    # only 1 and the evens: C3 is an odd quotient here
    r = fq_up_to(p, 12)
    assert r.complete and r.orders == (1, 2, 3, 4, 6, 8, 10, 12)


def test_classification_tags():
    assert classify_density(parse_presentation(Z)).tag == "infinite_cyclic"
    assert classify_density(parse_presentation(DINF)).tag == "infinite_dihedral"
    assert classify_density(parse_presentation(MODULAR)).tag == "density_zero"
    assert classify_density(parse_presentation(CRYSTAL)).tag == "density_zero"


def test_cyclic_takes_precedence_over_dihedral():
    # Z x D_inf surjects onto both; the cyclic tag wins
    p = parse_presentation("gens: a b z\nrels: a^2, b^2, [a,z], [b,z]\n")
    cls = classify_density(p)
    assert cls.tag == "infinite_cyclic"
    assert verify_cyclic_witness(p, cls.cyclic_witness)


def test_density_zero_reports_checked_count():
    cls = classify_density(parse_presentation(CRYSTAL))
    assert cls.tag == "density_zero"
    assert cls.index_two_checked == 3
    cls = classify_density(parse_presentation(MODULAR))
    assert cls.index_two_checked == 1


def test_density_numerator():
    assert classify_density(parse_presentation(Z)).density_numerator == 2
    assert classify_density(parse_presentation(DINF)).density_numerator == 1
    assert classify_density(parse_presentation(MODULAR)).density_numerator == 0


def test_finite_groups_are_density_zero():
    for text in (
        "gens: a\nrels: a^5\n",
        "gens: a b\nrels: a^2, b^4, (a b)^3\n",
        "gens: a b\nrels: a^4, a^2 = b^2, b^-1 a b = a^-1\n",
    ):
        assert classify_density(parse_presentation(text)).tag == "density_zero"


def test_dihedral_witness_verification_rejects_junk():
    p = parse_presentation(DINF)
    cls = classify_density(p)
    table, gen, w = cls.dihedral_table, cls.dihedral_generator, cls.dihedral_functional
    assert not verify_dihedral_witness(p, table, gen, tuple(2 * e for e in w))
    assert not verify_dihedral_witness(p, table, gen, w + (0,))
    other = parse_presentation(MODULAR)
    assert not verify_dihedral_witness(other, table, gen, w)


INDEX_TWO_CASES = (
    Z,
    "gens: x y\nrels:\n",
    DINF,
    MODULAR,
    CRYSTAL,
    "gens: a b c\nrels: a^2, b^2, c^3, [a,c], [b,c]\n",
    "gens: a b\nrels: a^2, b^2, (a b)^5\n",
    "gens: a b\nrels: a^4, b^4, (a b)^2\n",
    "gens: a b c\nrels: a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^3\n",
    "gens: a b c\nrels: a^2, b^2, c^2\n",
    "gens: a b\nrels: a^2 b^2\n",
    "gens: a b c d\nrels: a^2, b^2, c^2 d^2, [a,c], [b,d]\n",
)


def test_index_two_subgroups_match_character_oracle():
    # every nonzero character onto C2 killing all relators, by brute force
    for text in INDEX_TWO_CASES:
        p = parse_presentation(text)
        sums = [word_exponents(r, p.n_gens) for r in p.relators]
        want = [
            mask
            for mask in range(1, 1 << p.n_gens)
            if all(sum(e for j, e in enumerate(row) if mask >> j & 1) % 2 == 0 for row in sums)
        ]
        tables = index_two_subgroups(p)
        got = [sum(t.rows[0][2 * j] << j for j in range(p.n_gens)) for t in tables]
        assert got == want, text
        for t in tables:
            assert t.n_cosets == 2 and t.image_group().order == 2


def test_dihedral_check_catches_a_corrupted_relation_matrix(monkeypatch):
    # without the relator rows the matrix proposes a functional on groups
    # with no dihedral quotient; evaluating the relators in D-infinity
    # must reject it
    real = classify._dihedral_matrix

    def no_relator_rows(pres, table, gen):
        rows, k = real(pres, table, gen)
        return rows[len(schreier_data(pres, table).presentation.relators) :], k

    monkeypatch.setattr(classify, "_dihedral_matrix", no_relator_rows)
    for text in (
        MODULAR,
        "gens: a b\nrels: a^2, b^2, (a b)^5\n",
        "gens: a b\nrels: a^4, b^4, (a b)^2\n",
    ):
        with pytest.raises(InternalInvariantError):
            classify_density(parse_presentation(text))
