"""Density classification and its certificates."""

import math
import random

import pytest
from coset_oracle import verify_table

import fqlab.fpgroup.classify as classify
import fqlab.fpgroup.coset as coset
from fqlab.errors import InternalInvariantError
from fqlab.fpgroup import (
    abelianization,
    classify_density,
    fq_up_to,
    index_two_subgroups,
    null_column_witness,
    parse_presentation,
    schreier_data,
    smith_normal_form,
    verify_images,
    verify_regular_table,
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
    assert classify_density(parse_presentation(Z)).images == ((1, 1),)
    trefoil = parse_presentation("gens: u v\nrels: u^2 = v^3\n")
    cls = classify_density(trefoil)
    assert {s for _, s in cls.images} == {1} and verify_images(trefoil, cls.images)
    assert sorted(abs(t) for t, _ in cls.images) == [2, 3]
    for text in (DINF, MODULAR, CRYSTAL):
        assert classify_density(parse_presentation(text)).tag != "infinite_cyclic"


def test_cyclic_witness_verification_rejects_junk():
    p = parse_presentation(Z)
    assert verify_images(p, ((1, 1),))
    assert not verify_images(p, ((2, 1),))  # not primitive
    assert not verify_images(p, ((0, 1),))
    assert not verify_images(p, ((0, -1),))  # image C2: a lone reflection gives no translation
    assert not verify_images(p, ((1, 1), (1, 1)))  # wrong length
    trefoil = parse_presentation("gens: u v\nrels: u^2 = v^3\n")
    assert not verify_images(trefoil, ((1, 1), (1, 1)))  # kills no relator


def test_infinite_dihedral_detection():
    p = parse_presentation(DINF)
    cls = classify_density(p)
    assert verify_images(p, cls.images)
    assert [s for _, s in cls.images] == [-1, -1]
    for text in (MODULAR, CRYSTAL):
        cls = classify_density(parse_presentation(text))
        assert cls.images is None and cls.dihedral_functional is None
    # Z itself also surjects onto nothing dihedral: its only index-2
    # subgroup is 2Z, with one Schreier generator that the outer
    # generator cannot negate, so neither primitive functional passes
    z = parse_presentation(Z)
    (table,) = index_two_subgroups(z)
    sd = schreier_data(z, table)
    assert not any(verify_images(z, classify._dihedral_images(sd, 0, (e,))) for e in (1, -1))


def test_d_infinity_times_finite_still_dihedral():
    # adding a commuting order-3 generator keeps the dihedral surjection
    p = parse_presentation("gens: a b c\nrels: a^2, b^2, c^3, [a,c], [b,c]\n")
    cls = classify_density(p)
    assert cls.tag == "infinite_dihedral"
    assert verify_images(p, cls.images)
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
    assert verify_images(p, cls.images) and {s for _, s in cls.images} == {1}


def test_density_zero_reports_checked_count():
    cls = classify_density(parse_presentation(CRYSTAL))
    assert cls.tag == "density_zero"
    assert cls.index_two_checked == 3
    cls = classify_density(parse_presentation(MODULAR))
    assert cls.index_two_checked == 1


def test_classify_certifies_each_index_two_table_once(monkeypatch):
    # the elementary abelian 2^6 has 63 index-2 subgroups, all failing
    # the dihedral test; schreier_data does not certify them again
    names = [f"x{i}" for i in range(1, 7)]
    rels = [f"{x}^2" for x in names] + [f"[{x},{y}]" for i, x in enumerate(names) for y in names[i + 1 :]]
    pres = parse_presentation(f"gens: {' '.join(names)}\nrels: {', '.join(rels)}\n")
    calls = []

    def counted(t):
        calls.append(t)
        return verify_regular_table(t)

    monkeypatch.setattr(classify, "verify_regular_table", counted)
    monkeypatch.setattr(coset, "verify_regular_table", counted)
    cls = classify_density(pres)
    assert cls.tag == "density_zero"
    assert cls.index_two_checked == 63
    assert len(calls) == 63


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
    images = classify_density(p).images
    (t0, s0), (t1, s1) = images
    assert verify_images(p, images)
    assert not verify_images(p, tuple((2 * t, s) for t, s in images))
    assert not verify_images(p, images + ((0, 1),))
    assert not verify_images(p, images[:1])
    assert not verify_images(p, ((t0, 2 * s0), (t1, s1)))
    # a^2 still evaluates to (0, +1) with a float translation
    assert not verify_images(p, ((float(t0), s0), (t1, s1)))
    assert not verify_images(parse_presentation(MODULAR), images)


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


def schreier_route_verdict(pres, table, gen, witness):
    """The dihedral verifier that the image check replaced, kept as its
    oracle: it re-verifies the index-2 table, takes the images from
    Schreier rewriting and checks that the Schreier generators map to
    translations with gcd 1."""
    if table.n_cosets != 2 or not verify_table(table) or table.rows[0][2 * gen] != 1:
        return False
    sd = schreier_data(pres, table)
    w = tuple(witness)
    if len(w) != len(sd.schreier_words):
        return False

    def f(word):
        return sum(w[x - 1] if x > 0 else -w[-x - 1] for x in sd.rewrite(word))

    images = [
        (f((i + 1,)), 1) if table.rows[0][2 * i] == 0 else (f((i + 1, -(gen + 1))), -1)
        for i in range(pres.n_gens)
    ]

    def evaluate(word):
        t, s = 0, 1
        for x in word:
            u, v = images[abs(x) - 1]
            if x < 0:
                u = -v * u
            t, s = t + s * u, s * v
        return t, s

    if any(evaluate(r) != (0, 1) for r in pres.relators):
        return False
    return math.gcd(*(evaluate(m)[0] for m in sd.schreier_words)) == 1


def test_image_check_agrees_with_the_schreier_route():
    # functionals on each index-2 subgroup, mapped to images as classify
    # maps them: the found one and its double, each unit vector and its
    # negative, zero, and fixed-seed random ones
    rng = random.Random(25)
    for text in INDEX_TWO_CASES:
        p = parse_presentation(text)
        tag = classify_density(p).tag
        if tag == "density_zero":
            continue
        accepted = 0
        for table in index_two_subgroups(p):
            gen = table.rows[0][::2].index(1)
            rows, sd = classify._dihedral_matrix(p, table, gen)
            k = sd.presentation.n_gens
            found = null_column_witness(smith_normal_form(rows, n_cols=k))
            functionals = [(0,) * k]
            units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
            functionals += units + [tuple(-e for e in u) for u in units]
            functionals += [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(4)]
            if found is not None:
                functionals += [found, tuple(2 * e for e in found)]
            for w in functionals:
                verdict = verify_images(p, classify._dihedral_images(sd, gen, w))
                assert verdict == schreier_route_verdict(p, table, gen, w), (text, w)
                accepted += verdict
        assert accepted or tag == "infinite_cyclic", text
