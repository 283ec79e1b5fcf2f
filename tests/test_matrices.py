import random
from fractions import Fraction

import pytest

from mod_oracle import ModMatrix, reduce_mod, scale
from twistcert.matrices import (
    IntMatrix,
    SpMatrix,
    det,
    mat_mul,
    mat_pow,
    sp_check,
    symplectic_form,
)
from twistcert.words import CurveLetter, generator_matrix


def naive_product(a, b):
    """Independent oracle: plain triple loop on row tuples."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def E(n, i, j, c=1):
    return IntMatrix.from_unit_entries(n, {(i, j): c})


def gen(kind, i, g=2):
    return generator_matrix(CurveLetter(kind, i), g).m


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(((1, 0), (0, 1)))  # dim 2 < 4
    with pytest.raises(ValueError):
        IntMatrix(tuple((0,) * 5 for _ in range(5)))  # odd dim
    with pytest.raises(ValueError):
        IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)))  # ragged


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", Fraction(1)])
def test_intmatrix_refuses_non_integral_entries(entry):
    # int() would truncate 1.9 and certify the identity
    rows = ((entry, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(TypeError):
        SpMatrix(IntMatrix(rows))


def test_intmatrix_takes_ints_and_bools():
    m = IntMatrix(((True, 0, 0, 0), (0, 1, False, 0), (0, 0, 1, 0), (0, 0, 0, True)))
    assert m == IntMatrix.identity(4)
    assert all(type(x) is int for row in m.rows for x in row)


def test_mat_mul_identity():
    m = gen("c", 1)
    assert mat_mul(IntMatrix.identity(4), m) == m
    assert mat_mul(m, IntMatrix.identity(4)) == m


def test_mat_mul_j_squared_is_minus_identity():
    j = symplectic_form(2)
    assert mat_mul(j, j) == scale(IntMatrix.identity(4), -1)


def test_mat_mul_b2_b1():
    b1, b2 = gen("b", 1), gen("b", 2)
    product = mat_mul(b2, b1)
    assert product == IntMatrix.from_unit_entries(4, {(3, 1): -1, (4, 2): -1})
    assert product.rows == naive_product(b2.rows, b1.rows)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(IntMatrix.identity(4), IntMatrix.identity(6))


def test_mat_mul_agrees_with_naive_oracle():
    rng = random.Random(7)
    for _ in range(25):
        a = IntMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4)))
        b = IntMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4)))
        assert mat_mul(a, b).rows == naive_product(a.rows, b.rows)
    for n in (6, 8, 12):  # sparse to dense: the zero-skipping paths
        for density in (0.1, 0.4, 1.0):
            a, b = (IntMatrix(tuple(
                tuple(rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n))
                for _ in range(n))) for _ in range(2))
            assert mat_mul(a, b).rows == naive_product(a.rows, b.rows)


def test_sp_check_examples():
    assert sp_check(symplectic_form(2))
    assert sp_check(E(4, 1, 3))  # A_1 = I + E_{1,g+1} at g=2
    assert not sp_check(E(4, 1, 2))
    assert sp_check(E(6, 1, 4))  # A_1 at g=3


def test_sp_matrix_rejects_non_symplectic():
    with pytest.raises(ValueError):
        SpMatrix(E(4, 1, 2))


def test_sp_matrix_genus_is_half_its_dimension():
    for g in (2, 3, 5):
        assert SpMatrix(IntMatrix.identity(2 * g)).genus == g
        assert SpMatrix.identity(g).inverse().pow(3).genus == g
    with pytest.raises(ValueError, match="dimension mismatch"):
        SpMatrix.identity(2) @ SpMatrix.identity(3)


def test_sp_matrix_closed_operations_skip_the_check(monkeypatch):
    import twistcert.matrices as matrices

    a1 = SpMatrix(E(4, 1, 3))
    c1 = SpMatrix(gen("c", 1))
    calls = []
    monkeypatch.setattr(matrices, "sp_check", lambda *args: calls.append(args) or True)
    product = (a1 @ c1).inverse().pow(-3)
    assert calls == []
    assert matrices.mat_mul(product.m, (a1 @ c1).inverse().pow(3).m).is_identity()
    SpMatrix(E(4, 1, 3))
    assert len(calls) == 1


def test_sp_inverse_examples():
    g = 2
    a1 = SpMatrix(E(4, 1, 3))
    assert a1.inverse().m == E(4, 1, 3, -1)
    j = SpMatrix(symplectic_form(g))
    assert j.inverse().m == scale(symplectic_form(g), -1)
    c1 = SpMatrix(gen("c", 1))
    expected = IntMatrix.from_unit_entries(4, {
        (1, 3): 1, (2, 4): 1, (2, 3): -1, (1, 4): -1})
    assert c1.inverse().m == expected
    assert (c1 @ c1.inverse()).m.is_identity()


def test_sp_inverse_law_on_random_words():
    rng = random.Random(11)
    for _ in range(30):
        g = rng.choice((2, 3))
        m = SpMatrix.identity(g)
        for _ in range(rng.randint(1, 12)):
            kind = rng.choice("abc" if g > 1 else "ab")
            top = g if kind in "ab" else g - 1
            letter = CurveLetter(kind, rng.randint(1, top))
            m = m @ generator_matrix(letter, g).pow(rng.choice((-2, -1, 1, 2)))
        assert mat_mul(m.m, m.inverse().m).is_identity()
        assert det(m.m) == 1


def test_inverse_is_the_dense_minus_j_mt_j():
    # the signed block transpose against -J M^T J built from naive products
    rng = random.Random(13)
    for g in range(2, 7):
        j = symplectic_form(g).rows
        minus_j = tuple(tuple(-x for x in row) for row in j)
        for _ in range(8):
            m = SpMatrix.identity(g)
            for _ in range(rng.randint(1, 16)):
                kind = rng.choice("abc")
                top = g if kind in "ab" else g - 1
                letter = CurveLetter(kind, rng.randint(1, top))
                m = m @ generator_matrix(letter, g).pow(rng.choice((-2, -1, 1, 2)))
            dense = naive_product(naive_product(minus_j, tuple(zip(*m.m.rows))), j)
            assert m.inverse().m.rows == dense
            assert (m @ m.inverse()).m.is_identity()


def test_mat_pow():
    a1 = gen("a", 1)
    assert mat_pow(a1, 0).is_identity()
    assert mat_pow(a1, 5) == E(4, 1, 3, 5)
    with pytest.raises(ValueError):
        mat_pow(a1, -1)


def test_det_bareiss():
    assert det(IntMatrix.identity(6)) == 1
    assert det(symplectic_form(3)) == 1
    assert det(E(4, 1, 3, 7)) == 1
    # rank-deficient
    rows = ((1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 0, 0), (0, 0, 0, 1))
    assert det(IntMatrix(rows)) == 0
    rng = random.Random(3)
    for _ in range(10):
        m = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(4)))
        swapped = IntMatrix((m.rows[1], m.rows[0]) + m.rows[2:])
        assert det(swapped) == -det(m)


def test_reduce_mod_examples(example_matrix_rows):
    c1_sq = mat_mul(gen("c", 1), gen("c", 1))
    assert reduce_mod(c1_sq, 2).is_identity()
    assert reduce_mod(E(4, 1, 3, 4), 4).is_identity()
    reduced = reduce_mod(IntMatrix(example_matrix_rows), 2)
    assert reduced.rows == ((1, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 1))


def test_reduce_mod_invalid_modulus():
    for q in (0, 1, 3, 6, -4):
        with pytest.raises(ValueError):
            reduce_mod(IntMatrix.identity(4), q)


def test_reduce_mod_is_ring_homomorphism():
    rng = random.Random(19)
    for _ in range(40):
        q = rng.choice((2, 4, 8, 16))
        a = IntMatrix(tuple(tuple(rng.randint(-30, 30) for _ in range(4)) for _ in range(4)))
        b = IntMatrix(tuple(tuple(rng.randint(-30, 30) for _ in range(4)) for _ in range(4)))
        assert reduce_mod(mat_mul(a, b), q) == reduce_mod(a, q) @ reduce_mod(b, q)


def test_mod_matrix_entries_reduced():
    m = ModMatrix(((5, -1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 9)), 4)
    assert m.rows == ((1, 3, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_packed_word_canonical_encoding():
    m = reduce_mod(gen("c", 1), 4)
    word = m.packed_word()
    # base-4 digits at position i*dim + j
    for i in range(4):
        for j in range(4):
            assert (word >> (2 * (4 * i + j))) & 3 == m.rows[i][j]
    assert reduce_mod(IntMatrix.identity(4), 4).packed_word() == sum(
        1 << (2 * (4 * i + i)) for i in range(4))
    with pytest.raises(ValueError):
        ModMatrix(tuple((0,) * 4 for _ in range(4)), 512).packed_word()


def naive_form(m, g):
    """Independent oracle: M^T J M as a plain triple sum over J's nonzeros."""
    n = 2 * g
    j = {(i, g + i): 1 for i in range(g)} | {(g + i, i): -1 for i in range(g)}
    return tuple(
        tuple(sum(m[r][a] * c * m[s][b] for (r, s), c in j.items()) for b in range(n))
        for a in range(n)
    )


def test_sp_check_agrees_with_naive_form_oracle():
    rng = random.Random(23)
    accepted = rejected = 0
    for g in range(2, 7):
        j = symplectic_form(g).rows
        for k in range(40):
            m = SpMatrix.identity(g)
            for _ in range(rng.randint(1, 14)):
                kind = rng.choice("abc")
                top = g if kind in "ab" else g - 1
                letter = CurveLetter(kind, rng.randint(1, top))
                m = m @ generator_matrix(letter, g).pow(rng.choice((-3, -1, 1, 2)))
            rows = [list(row) for row in m.m.rows]
            if k % 2:  # perturb one entry
                rows[rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice((-2, -1, 1, 3))
            rows = tuple(map(tuple, rows))
            expected = naive_form(rows, g) == j
            assert sp_check(IntMatrix(rows)) is expected
            accepted += expected
            rejected += not expected
    assert accepted >= 100 and rejected >= 80


def test_mat_mul_row_combination_cases():
    n = 6
    big = 10 ** 40
    a = IntMatrix((
        (0,) * n,                                 # zero row
        (0, 0, 1, 0, 0, 0),                       # single unit entry: B's row
        (0, 0, 0, 0, 0, -1),                      # single negative unit entry
        (0, 3, 0, 0, -7, 0),                      # two entries
        (big, -big, 0, 1, 0, 2),                  # big integers
        (0,) * n,
    ))
    rng = random.Random(29)
    b = IntMatrix(tuple(
        tuple(rng.choice((0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-big, big)))
              for _ in range(n))
        for _ in range(n)))
    product = mat_mul(a, b)
    assert product.rows == naive_product(a.rows, b.rows)
    assert product.rows[1] is b.rows[2]           # reused, not copied
    assert product.rows[0] is product.rows[5]     # one shared zero row
    assert mat_mul(b, a).rows == naive_product(b.rows, a.rows)
    zero = IntMatrix(((0,) * n,) * n)
    assert mat_mul(zero, b) == mat_mul(b, zero) == zero


def test_sp_check_forms_no_product(monkeypatch):
    import twistcert.matrices as matrices
    from twistcert.words import eval_word, parse_word

    def refuse(a, b):
        raise AssertionError("sp_check must not multiply matrices")

    word = parse_word("a1^2 b3^-1 c2 a6 b5^3 c5^-2 a4^-1 b6 c1 b2^2 c3 a3", 6)
    dense = eval_word(word).m
    monkeypatch.setattr(matrices, "mat_mul", refuse)
    assert sp_check(dense)
    assert SpMatrix(dense).m == dense
    assert eval_word(word).m == dense
    rows = [list(row) for row in dense.rows]
    rows[4][7] += 1
    with pytest.raises(ValueError, match="not symplectic"):
        SpMatrix(IntMatrix(tuple(map(tuple, rows))))
