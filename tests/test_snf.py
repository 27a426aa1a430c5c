"""Smith normal form against minor-gcd and determinant oracles."""

import itertools
import math
import random

import pytest

from fqlab.fpgroup import SmithForm, null_column_witness, smith_normal_form


def oracle_det(rows):
    # permutation expansion; fine for the sizes used here
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def oracle_invariants(rows, n_cols):
    # d_k = gcd of all k x k minors; invariant k is d_k / d_(k-1)
    m = len(rows)
    out = []
    prev = 1
    for k in range(1, min(m, n_cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n_cols), k):
                minor = oracle_det([[rows[i][j] for j in csel] for i in rsel])
                g = math.gcd(g, minor)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    out.extend([0] * (n_cols - len(out)))
    return tuple(out)


def test_known_forms():
    assert smith_normal_form([[2, 4], [6, 8]]).invariants == (2, 4)
    assert smith_normal_form([[0, 0], [0, 0]]).invariants == (0, 0)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).invariants == (1, 1, 1)
    assert smith_normal_form([[2, -3]]).invariants == (1, 0)
    assert smith_normal_form([[2, 0], [0, 2]]).invariants == (2, 2)
    assert smith_normal_form([[0, 0, 4], [1, -1, 0], [1, 1, 0]]).invariants == (1, 2, 4)


def test_empty_matrix_keeps_columns():
    f = smith_normal_form([], n_cols=1)
    assert f.invariants == (0,)
    assert f.invariants.count(0) == 1
    f = smith_normal_form([], n_cols=3)
    assert f.invariants == (0, 0, 0)


def test_column_count_mismatch_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2]], n_cols=3)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_group_order_and_torsion():
    f = smith_normal_form([[0, 0, 4], [1, -1, 0], [1, 1, 0]])
    assert f.invariants.count(0) == 0
    assert f.invariants == (1, 2, 4)
    assert math.prod(f.invariants) == 8
    f = smith_normal_form([[2, -3]])
    assert f.invariants.count(0) == 1  # infinite


def test_transforms_are_unimodular_and_exact():
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        f = smith_normal_form(rows)
        u, v = f.row_transform, f.col_transform
        assert abs(oracle_det([list(r) for r in u])) == 1
        assert abs(oracle_det([list(r) for r in v])) == 1
        # U * A * V must equal the diagonal of invariants
        ua = [[sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
        uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
        for i in range(m):
            for j in range(n):
                want = f.invariants[j] if i == j else 0
                assert uav[i][j] == want


def test_invariants_match_minor_gcd_oracle():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randrange(0, 4)
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        f = smith_normal_form(rows, n_cols=n)
        assert f.invariants == oracle_invariants(rows, n), rows


def test_square_determinant_product():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        f = smith_normal_form(rows)
        prod = 1
        for d in f.invariants:
            prod *= d
        assert abs(oracle_det(rows)) == prod


def test_null_column_witness():
    f = smith_normal_form([[2, -3]])
    w = null_column_witness(f)
    assert w is not None
    assert 2 * w[0] - 3 * w[1] == 0
    assert math.gcd(*w) == 1
    assert null_column_witness(smith_normal_form([[1, 0], [0, 2]])) is None
    w = null_column_witness(smith_normal_form([], n_cols=2))
    assert w is not None and math.gcd(*w) == 1


def test_divisibility_chain_holds():
    rng = random.Random(41)
    for _ in range(300):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(m)]
        inv = smith_normal_form(rows).invariants
        nz = [d for d in inv if d]
        assert all(d > 0 for d in nz)
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        assert list(inv[len(nz):]) == [0] * (n - len(nz))


def test_smith_form_construction_checks():
    unit = ((1, 0), (0, 1))
    assert SmithForm((2, 4), unit, unit, (2, 2)).invariants == (2, 4)
    for invariants, shape, message in [
        ((-2, 4), (2, 2), "nonnegative"),
        ((2, 3), (2, 2), "divisibility chain broken"),
        ((0, 2), (2, 2), "zero invariants must come last"),
        ((2, 4), (2, 3), "one invariant per input column"),
    ]:
        with pytest.raises(ValueError, match=message):
            SmithForm(invariants, unit, unit, shape)
