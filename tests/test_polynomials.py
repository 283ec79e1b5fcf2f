import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from twistcert.matrices import IntMatrix, symplectic_form
from twistcert.polynomials import (
    ONE,
    IntPoly,
    X,
    charpoly,
    cyclotomic_factor_indices,
    cyclotomic_polynomial,
    euler_phi,
    factor_over_Z,
    is_cyclotomic_product,
    is_polynomial_in_x_power,
    is_polynomial_in_x_squared,
    is_reciprocal,
    is_symplectically_irreducible,
)

from brute_force_factor import factor_over_Z_bruteforce

EXAMPLE_CHI = IntPoly((1, 1, -2, 1, 1))  # x^4 + x^3 - 2x^2 + x + 1


def poly_from_high(*coeffs):
    return IntPoly(tuple(reversed(coeffs)))


def charpoly_minors(m: IntMatrix) -> IntPoly:
    """Independent oracle: det(xI - M) by cofactor expansion over IntPoly."""
    n = m.dim
    entries = [
        [IntPoly((-m.rows[i][j],)) + (X if i == j else IntPoly(()))
         for j in range(n)]
        for i in range(n)
    ]

    def detp(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        total = IntPoly(())
        for j in range(k):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = mat[0][j] * detp(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    return detp(entries)


def test_intpoly_basics():
    p = IntPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly(()).degree == -1
    assert str(EXAMPLE_CHI) == "x^4 + x^3 - 2*x^2 + x + 1"
    q, r = EXAMPLE_CHI.monic_divmod(IntPoly((1, 1)))
    assert q * IntPoly((1, 1)) + r == EXAMPLE_CHI


@pytest.mark.parametrize("coeff", [2.7, 2.0, "2", Fraction(2)])
def test_intpoly_refuses_non_integral_coefficients(coeff):
    # int() would read 2.7 as 2
    with pytest.raises(TypeError):
        IntPoly((1, coeff))


def test_intpoly_takes_ints_and_bools():
    p = IntPoly((True, 2, False, 0))
    assert p.coeffs == (1, 2) and all(type(c) is int for c in p.coeffs)
    assert IntPoly((0, False)).coeffs == ()


def test_charpoly_paper_matrix(example_matrix_rows):
    m = IntMatrix(example_matrix_rows)
    assert charpoly(m) == EXAMPLE_CHI
    assert charpoly(m) == charpoly_minors(m)


def test_charpoly_identity():
    assert charpoly(IntMatrix.identity(4)) == poly_from_high(1, -4, 6, -4, 1)


def test_charpoly_j_block_structure():
    j = symplectic_form(2)
    expected = IntPoly((1, 0, 2, 0, 1))  # (x^2 + 1)^2
    assert charpoly(j) == expected
    assert charpoly_minors(j) == expected


def test_charpoly_matches_minor_expansion_on_random_matrices():
    rng = random.Random(23)
    for _ in range(15):
        m = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4)))
        assert charpoly(m) == charpoly_minors(m)


def test_is_reciprocal():
    assert is_reciprocal(EXAMPLE_CHI)
    assert is_reciprocal(poly_from_high(1, -4, 6, -4, 1))  # (x-1)^4
    assert not is_reciprocal(IntPoly((0, 1, 0, 0, 1)))  # x^4 + x


def test_is_polynomial_in_x_squared():
    assert not is_polynomial_in_x_squared(EXAMPLE_CHI)
    assert is_polynomial_in_x_squared(poly_from_high(1, 0, -3, 0, 1))
    assert is_polynomial_in_x_squared(ONE)


def test_is_polynomial_in_x_power():
    phi9 = cyclotomic_polynomial(9)  # x^6 + x^3 + 1
    assert phi9 == IntPoly((1, 0, 0, 1, 0, 0, 1))
    assert is_polynomial_in_x_power(phi9, 3)
    assert not is_polynomial_in_x_power(phi9, 2)
    with pytest.raises(ValueError):
        is_polynomial_in_x_power(phi9, 0)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == IntPoly((-1, 1))
    assert cyclotomic_polynomial(3) == IntPoly((1, 1, 1))
    assert cyclotomic_polynomial(12) == IntPoly((1, 0, -1, 0, 1))
    # prod over d | n of Phi_d = x^n - 1
    for n in (6, 8, 30):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_is_cyclotomic_product_examples():
    assert not is_cyclotomic_product(EXAMPLE_CHI)
    assert is_cyclotomic_product(IntPoly((1, 1, 1)))  # Phi_3
    assert is_cyclotomic_product(poly_from_high(1, -4, 6, -4, 1))  # Phi_1^4


def test_cyclotomic_indices_radical_divides_x_n_minus_1():
    rng = random.Random(5)
    for _ in range(20):
        indices = [rng.randint(1, 10) for _ in range(rng.randint(1, 3))]
        p = ONE
        for n in indices:
            p = p * cyclotomic_polynomial(n)
        matched = cyclotomic_factor_indices(factor_over_Z(p))
        assert matched is not None
        assert sorted(matched) == sorted(indices)
        big_n = math.lcm(*matched)
        radical = ONE
        for n in sorted(set(matched)):
            radical = radical * cyclotomic_polynomial(n)
        x_n_minus_1 = IntPoly((-1,) + (0,) * (big_n - 1) + (1,))
        assert x_n_minus_1.monic_divmod(radical)[1].is_zero()


def test_factor_over_Z_examples():
    assert factor_over_Z(EXAMPLE_CHI) == (EXAMPLE_CHI,)
    # rational roots fail: chi(1) = 2, chi(-1) = -2
    assert EXAMPLE_CHI.evaluate(1) == 2
    assert EXAMPLE_CHI.evaluate(-1) == -2
    assert factor_over_Z(IntPoly((-1, 0, 1))) == (IntPoly((-1, 1)), IntPoly((1, 1)))
    assert factor_over_Z(poly_from_high(1, -4, 6, -4, 1)) == (IntPoly((-1, 1)),) * 4


def test_factor_over_Z_validation():
    with pytest.raises(ValueError):
        factor_over_Z(IntPoly((2, 2)))  # not monic
    with pytest.raises(ValueError):
        factor_over_Z(IntPoly(()))
    with pytest.raises(ValueError):
        factor_over_Z(IntPoly((0,) * 65 + (1,)))  # degree 65 over desk bound


def test_factor_product_reassembles():
    rng = random.Random(31)
    for _ in range(25):
        degree = rng.randint(2, 8)
        p = IntPoly(tuple(rng.randint(-5, 5) for _ in range(degree)) + (1,))
        factors = factor_over_Z(p)
        assert math.prod(factors, start=ONE) == p
        for f in factors:
            assert f.is_monic()
            # irreducibility recheck against degree-1 and degree-2 trial division
            if f.degree >= 2:
                for r in range(-10, 11):
                    assert f.evaluate(r) != 0 or f == IntPoly((-r, 1))
            if f.degree >= 3:
                for b in range(-6, 7):
                    for c in range(-6, 7):
                        cand = IntPoly((c, b, 1))
                        assert not f.monic_divmod(cand)[1].is_zero()


def test_factor_known_monic_products():
    f1, f2, f3 = IntPoly((1, 1, 1)), IntPoly((1, -3, 1)), IntPoly((2, 1))
    p = f1 * f2 * f3
    assert p.is_monic()
    assert factor_over_Z(p) == tuple(sorted((f1, f2, f3), key=lambda f: (f.degree, f.coeffs)))
    assert factor_over_Z_bruteforce(p) == factor_over_Z(p)


def test_bruteforce_matches_zassenhaus_on_structured_inputs():
    rng = random.Random(41)
    for _ in range(30):
        pieces = []
        total = 0
        while total < 6:
            d = rng.randint(1, 3)
            pieces.append(IntPoly(tuple(rng.randint(-3, 3) for _ in range(d)) + (1,)))
            total += d
        p = math.prod(pieces, start=ONE)
        if p.degree > 8:
            continue
        assert factor_over_Z_bruteforce(p) == factor_over_Z(p)


def test_bruteforce_rejects_large_degree():
    with pytest.raises(ValueError):
        factor_over_Z_bruteforce(IntPoly((0,) * 9 + (1,)))


def test_is_symplectically_irreducible_examples():
    assert is_symplectically_irreducible(EXAMPLE_CHI)
    both_reciprocal = IntPoly((1, 1, 1)) * IntPoly((1, -3, 1))
    assert is_reciprocal(both_reciprocal)
    assert not is_symplectically_irreducible(both_reciprocal)
    assert not is_symplectically_irreducible(IntPoly((1, -2, 1)))  # (x-1)^2


def test_is_symplectically_irreducible_requires_reciprocal():
    with pytest.raises(ValueError):
        is_symplectically_irreducible(IntPoly((2, 3, 1)))
    with pytest.raises(ValueError):
        is_symplectically_irreducible(IntPoly((1, 1)))  # odd degree palindrome
    with pytest.raises(ValueError):
        is_symplectically_irreducible(IntPoly((3, 1)))  # not monic reciprocal


def test_symplectically_irreducible_but_reducible():
    # (x^2 - x - 1)(x^2 + x - 1) = x^4 - 3x^2 + 1: reciprocal, reducible, but
    # neither factor is reciprocal up to sign
    p = IntPoly((-1, -1, 1)) * IntPoly((-1, 1, 1))
    assert p == IntPoly((1, 0, -3, 0, 1))
    assert is_reciprocal(p)
    assert len(factor_over_Z(p)) == 2
    assert is_symplectically_irreducible(p)
    # two such pairs split as p * p
    assert not is_symplectically_irreducible(p * p)


def test_cyclotomic_division_check_survives_optimize():
    # a lower factor that leaves a remainder must raise, not be skipped with
    # an assert, so the check still runs under python -O
    script = textwrap.dedent("""
        import twistcert.polynomials as p
        exact = p.cyclotomic_polynomial
        p.cyclotomic_polynomial = lambda n: p.IntPoly((1, 1)) if n == 1 else exact(n)
        try:
            phi = exact(3)
        except ArithmeticError:
            raise SystemExit(0)
        raise SystemExit(f"cyclotomic_polynomial(3) returned {phi}")
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
