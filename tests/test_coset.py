"""The Todd-Coxeter test oracle, table verification, and subgroup rewriting."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from coset_oracle import EnumerationUndecided, standardize_rows, todd_coxeter, verify_table
from schreier_oracle import schreier_data

from fqlab.catalog import parse_perm
from fqlab.fpgroup import (
    abelianization,
    index_two_subgroups,
    parse_presentation,
)
import fqlab.fpgroup.coset as coset
from fqlab.fpgroup.coset import CosetTable, verify_regular_table
from fqlab.permgroup import close


def enumerate_group(text, cap=10000):
    return todd_coxeter(parse_presentation(text), (), max_cosets=cap)


def test_cyclic():
    t = enumerate_group("gens: a\nrels: a^5\n")
    assert t.n_cosets == 5
    assert verify_table(t)
    assert t.image_group().order == t.n_cosets


def test_known_group_orders():
    assert enumerate_group("gens: a b\nrels: a^2, b^3, (a b)^3\n").n_cosets == 12
    assert enumerate_group("gens: a b\nrels: a^2, b^4, (a b)^3\n").n_cosets == 24
    assert enumerate_group("gens: a b\nrels: [a,b], a^3, b^5\n").n_cosets == 15
    assert enumerate_group("gens: a b\nrels: a^4, a^2 = b^2, b^-1 a b = a^-1\n").n_cosets == 8
    assert enumerate_group("gens: a b\nrels: a^2, b^3, (a b)^7, ([a,b])^4\n").n_cosets == 168


def test_total_collapse():
    # both relations together kill everything
    t = enumerate_group("gens: a b\nrels: b^-1 a b = a^2, a^-1 b a = b^2\n")
    assert t.n_cosets == 1


def test_image_matches_explicit_permutation_group():
    p = parse_presentation("gens: a b\nrels: a^2, b^4, (a b)^3\n")
    t = todd_coxeter(p, ((2,),), max_cosets=200)
    assert t.n_cosets == 6
    # the same index from an explicit S4 realization
    g = close((parse_perm("(1 2)", 4), parse_perm("(1 2 3 4)", 4)), 4)
    b = close((parse_perm("(1 2 3 4)", 4),), 4)
    assert g.order // b.order == t.n_cosets


def test_subgroup_words_respected():
    p = parse_presentation("gens: x y\nrels:\n")
    t = todd_coxeter(p, ((1,), (2,)), max_cosets=100)
    assert t.n_cosets == 1
    t = todd_coxeter(p, ((1,), (2, 2), (-2, 1, 2)), max_cosets=100)
    assert t.n_cosets == 2


def test_infinite_group_raises():
    p = parse_presentation("gens: a b\nrels: a^2, b^2\n")
    with pytest.raises(EnumerationUndecided):
        todd_coxeter(p, (), max_cosets=10000)
    with pytest.raises(EnumerationUndecided):
        todd_coxeter(parse_presentation("gens: a b\nrels: a^2, b^3, (a b)^7\n"), (), max_cosets=2000)


def test_define_budget_raises():
    p = parse_presentation("gens: a b\nrels: a^2, b^3, (a b)^7, ([a,b])^4\n")
    with pytest.raises(EnumerationUndecided):
        todd_coxeter(p, (), max_cosets=10000, define_budget=50)


def test_tables_standardized_and_deterministic():
    p = parse_presentation("gens: a b\nrels: a^2, b^3, (a b)^3\n")
    t1 = todd_coxeter(p, (), max_cosets=100)
    t2 = todd_coxeter(p, (), max_cosets=100)
    assert t1.rows == t2.rows
    assert t1.rows == standardize_rows(t1.rows, 0)


def test_trace():
    # standardized numbering is breadth-first over columns, so coset 2
    # is the a-inverse neighbor of 0, not a squared
    t = enumerate_group("gens: a\nrels: a^4\n")
    assert t.rows == [[1, 2], [3, 0], [0, 3], [2, 1]]
    assert t.trace(0, (1, 1)) == 3
    assert t.trace(0, (-1,)) == 2
    assert t.trace(0, (1, 1, 1, 1)) == 0
    assert t.trace(2, (1,)) == 0


def test_verify_rejects_broken_tables():
    t = enumerate_group("gens: a\nrels: a^4\n")
    assert verify_table(t)
    bad = CosetTable(t.pres, [list(r) for r in t.rows])
    bad.rows[0][0], bad.rows[1][0] = bad.rows[1][0], bad.rows[0][0]
    assert not verify_table(bad)
    hole = CosetTable(t.pres, [list(r) for r in t.rows])
    hole.rows[2][1] = None
    assert not verify_table(hole)
    # an entry past the last column is not part of any action
    assert not verify_table(CosetTable(t.pres, [list(r) + [0] for r in t.rows]))
    # -1 would wrap to the last coset and 1.0 compares equal to 1; n,
    # None and a short row must not raise either
    n = t.n_cosets
    last = next((a, c) for a, row in enumerate(t.rows) for c, b in enumerate(row) if b == n - 1)
    one = next((a, c) for a, row in enumerate(t.rows) for c, b in enumerate(row) if b == 1)
    broken = []
    for (a, c), value in ((last, -1), ((0, 0), n), (one, 1.0), ((n - 1, 1), None)):
        rows = [list(r) for r in t.rows]
        rows[a][c] = value
        broken.append(rows)
    broken.append([list(r) for r in t.rows[:-1]] + [list(t.rows[-1][:-1])])
    assert verify_regular_table(t)
    for rows in broken:
        assert not verify_table(CosetTable(t.pres, rows)), rows
        assert not verify_regular_table(CosetTable(t.pres, rows)), rows
    # a^2 closes at both cosets, but coset 0 does not reach coset 1
    apart = CosetTable(parse_presentation("gens: a\nrels: a^2\n"), [[0, 0], [1, 1]])
    assert all(apart.trace(a, (1, 1)) == a for a in range(2))
    assert not verify_table(apart)
    assert not verify_regular_table(apart)


def test_index_two_counts():
    # abelianization mod 2 has rank 2, 1, 0
    assert len(index_two_subgroups(parse_presentation("gens: a b\nrels: a^2, b^2\n"))) == 3
    assert len(index_two_subgroups(parse_presentation("gens: x\nrels:\n"))) == 1
    assert len(index_two_subgroups(parse_presentation("gens: a b\nrels: a^2, b^3, (a b)^3\n"))) == 0
    assert len(index_two_subgroups(parse_presentation("gens: x y\nrels:\n"))) == 3


def test_index_two_tables_are_valid_and_distinct():
    p = parse_presentation("gens: x y\nrels:\n")
    tables = index_two_subgroups(p)
    flats = {t.flat() for t in tables}
    assert len(flats) == 3
    for t in tables:
        assert t.n_cosets == 2
        assert verify_table(t)
        assert t.image_group().order == t.n_cosets


def test_schreier_rank_for_free_group():
    # Nielsen-Schreier: index n in free rank r gives rank n(r-1)+1
    p = parse_presentation("gens: x y\nrels:\n")
    for t in index_two_subgroups(p):
        sub = schreier_data(t).presentation
        assert sub.n_gens == 3
        assert sub.relators == ()


def test_schreier_words_trace_home():
    p = parse_presentation("gens: a b\nrels: a^2, b^4, (a b)^3\n")
    t = todd_coxeter(p, ((2,),), max_cosets=100)
    sd = schreier_data(t)
    for w in sd.schreier_words:
        assert t.trace(0, w) == 0
    # rewriting a schreier word gives the corresponding single letter
    for k, w in enumerate(sd.schreier_words, start=1):
        assert sd.rewrite(w) == (k,)
    assert t.trace(0, (1,)) != 0
    with pytest.raises(ValueError):
        sd.rewrite((1,))  # a moves coset 0, so it is not in the subgroup


def test_reidemeister_schreier_infinite_dihedral_translation():
    # the subgroup generated by ab inside <a,b | a^2, b^2> is infinite cyclic
    p = parse_presentation("gens: a b\nrels: a^2, b^2\n")
    t = todd_coxeter(p, ((1, 2),), max_cosets=100)
    assert t.n_cosets == 2
    sub = schreier_data(t).presentation
    f = abelianization(sub)
    assert f.invariants.count(0) == 1


def test_reidemeister_schreier_whole_group():
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    t = todd_coxeter(p, ((1,), (2,)), max_cosets=10)
    assert t.n_cosets == 1
    sub = schreier_data(t).presentation
    assert sub.n_gens == 2
    assert abelianization(sub).invariants == abelianization(p).invariants


def test_modular_group_index_two_subgroup_structure():
    # C2 * C3 has one subgroup of index 2; it is C3 * C3
    p = parse_presentation("gens: a b\nrels: a^2, b^3\n")
    tables = index_two_subgroups(p)
    assert len(tables) == 1
    sub = schreier_data(tables[0]).presentation
    f = abelianization(sub)
    assert [d for d in f.invariants if d != 1] == [3, 3]
    assert f.invariants.count(0) == 0


def test_normality_matches_conjugation_oracle():
    p = parse_presentation("gens: a b\nrels: a^2, b^4, (a b)^3\n")
    for words, want in [
        (((2,),), False),                 # <b>, index 6
        (((1, 2),), False),               # <ab>, order 3
        (((2, 2), (1,)), False),          # dihedral of order 8, index 3
        (((2, 2), (1, 2, 2, 1)), True),   # V4: b^2 and its a-conjugate
        (((1, 2), (2, 1)), True),         # A4, index 2
    ]:
        t = todd_coxeter(p, words, max_cosets=200)
        sd = schreier_data(t)
        oracle = all(
            t.trace(0, (-g,) + m + (g,)) == 0
            for m in sd.schreier_words
            for g in (1, 2)
        )
        regular = t.image_group().order == t.n_cosets
        assert regular == oracle
        assert regular == want


# Imports the table certificate in a fresh interpreter and prints the
# fqlab modules loaded and the names the coset module defines.
TRUSTED_PROBE = """
import json, sys
import fqlab.fpgroup.coset as coset
modules = sorted(name for name in sys.modules if name.split(".")[0] == "fqlab")
print(json.dumps([modules, sorted(vars(coset))]))
"""


def test_coset_loads_only_the_trusted_base():
    # the certificate of every table needs the presentation, the
    # regularity check and nothing else; Schreier rewriting is a test
    # oracle
    src = pathlib.Path(coset.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", TRUSTED_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    modules, names = json.loads(done.stdout)
    base = ("errors", "budgets", "orbit", "fpgroup", "fpgroup.presentation", "fpgroup.coset")
    assert modules == sorted(["fqlab", *(f"fqlab.{m}" for m in base)])
    assert not {"schreier_data", "SchreierData", "_rewrite", "col_to_letter"} & set(names)
