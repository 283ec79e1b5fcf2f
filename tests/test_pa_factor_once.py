"""The factor-once PA criterion against the reference implementations it
replaced: a sub-multiset search for a symplectic splitting and a divmod scan
of chi by every Phi_n with n <= 2*deg^2. The search shares the factorization
over Z; what it checks is the counting rule the library reads off it."""
import itertools
import math
import random

import pytest

from twistcert.certify import (
    REASON_CYCLOTOMIC,
    REASON_NOT_SYMPL_IRRED,
    REASON_REDUCIBLE,
    REASON_X_SQUARED,
    pa_failure_reasons,
    sample_t_word,
)
from twistcert.congruence import GenWord, eval_gen_word
from twistcert.polynomials import (
    ONE,
    IntPoly,
    charpoly,
    cyclotomic_factor_indices,
    cyclotomic_polynomial,
    euler_phi,
    factor_over_Z,
    is_polynomial_in_x_power,
    is_polynomial_in_x_squared,
    is_reciprocal,
    is_symplectically_irreducible,
)
from twistcert.words import eval_word


def reciprocal_up_to_sign(p: IntPoly) -> bool:
    rev = p.reversed_poly()
    if rev.degree != p.degree:
        return False
    return (-rev if rev.coeffs[-1] < 0 else rev) == p


def oracle_symplectically_irreducible(factors) -> bool:
    """Search every proper sub-multiset f of the factors of p for a split
    p = f * g with f and g both reciprocal up to sign."""
    n = len(factors)
    seen = set()
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            key = tuple(factors[i].coeffs for i in combo)
            if key in seen:
                continue
            seen.add(key)
            f = math.prod((factors[i] for i in combo), start=ONE)
            g = math.prod((factors[i] for i in range(n) if i not in combo), start=ONE)
            if reciprocal_up_to_sign(f) and reciprocal_up_to_sign(g):
                return False
    return True


def oracle_cyclotomic_indices(p: IntPoly):
    """Divide p by Phi_n for n = 1 .. 2*deg^2 as often as it goes; p is a
    cyclotomic product iff nothing of positive degree remains."""
    deg = p.degree
    matched = []
    remaining = p
    for n in range(1, 2 * deg * deg + 1):
        if remaining.degree == 0:
            break
        if euler_phi(n) > remaining.degree:
            continue
        phi_n = cyclotomic_polynomial(n)
        while remaining.degree >= phi_n.degree:
            q, r = remaining.monic_divmod(phi_n)
            if not r.is_zero():
                break
            remaining = q
            matched.append(n)
    return matched if remaining.degree == 0 else None


def oracle_pa_failure_reasons(chi: IntPoly, factors, strict_power_mode: bool) -> frozenset:
    reasons = set()
    if not oracle_symplectically_irreducible(factors):
        reasons.add(REASON_NOT_SYMPL_IRRED)
    if oracle_cyclotomic_indices(chi) is not None:
        reasons.add(REASON_CYCLOTOMIC)
    if is_polynomial_in_x_squared(chi) or strict_power_mode and any(
            is_polynomial_in_x_power(chi, k) for k in range(3, chi.degree + 1)):
        reasons.add(REASON_X_SQUARED)
    if reasons and len(factors) > 1:
        reasons.add(REASON_REDUCIBLE)
    return frozenset(reasons)


def family_charpolys():
    rng = random.Random(401)
    return [charpoly(eval_word(sample_t_word(g, blocks, 3, rng)).m)
            for g in range(2, 7) for blocks in (1, 2, 3) for _ in range(8)]


def generator_word_charpolys():
    rng = random.Random(409)
    out = []
    for g in range(2, 6):
        for _ in range(20):
            letters = []
            for _ in range(rng.randint(4, 24)):
                kind = rng.choice("AABBC")
                if kind == "C":
                    letters.append(("C", rng.randint(1, g - 1), rng.choice((2, -2))))
                else:
                    letters.append((kind, rng.randint(1, g), rng.choice((1, -1))))
            out.append(charpoly(eval_gen_word(GenWord(g, tuple(letters))).m))
    return out


def built_products():
    """Reciprocal products of cyclotomic factors, reciprocal-pair products
    f * f* (f* the sign-normalized reversal) and reciprocal irreducibles."""
    rng = random.Random(419)
    small = [n for n in range(1, 31) if euler_phi(n) <= 8]
    pieces = []
    while len(pieces) < 60:
        f = IntPoly((rng.choice((1, -1)),) + tuple(
            rng.randint(-3, 3) for _ in range(rng.randint(0, 3))) + (1,))
        rev = f.reversed_poly()
        star = -rev if rev.coeffs[-1] < 0 else rev
        if star != f:
            pieces.append(f * star)
    pieces += [IntPoly((1, 1, -2, 1, 1)), IntPoly((1, -3, 1)), IntPoly((1, 0, -3, 0, 1)),
               IntPoly((1, -1, 0, -1, 1)), IntPoly((1, 1, -1, -3, -1, 1, 1))]
    out = []
    while len(out) < 60:
        p = ONE
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                p = p * cyclotomic_polynomial(rng.choice(small))
            else:
                p = p * rng.choice(pieces)
        if 2 <= p.degree <= 24 and p.degree % 2 == 0 and is_reciprocal(p):
            out.append(p)
    return out


INPUT_FAMILIES = {
    "family_words": family_charpolys,
    "generator_words": generator_word_charpolys,
    "built_products": built_products,
}


@pytest.mark.parametrize("family", sorted(INPUT_FAMILIES))
def test_pa_reasons_match_reference(family):
    seen = set()
    for chi in INPUT_FAMILIES[family]():
        factors = factor_over_Z(chi)
        for strict in (False, True):
            expected = oracle_pa_failure_reasons(chi, factors, strict)
            assert pa_failure_reasons(chi, strict) == expected, (str(chi), strict)
            seen |= expected
        assert is_symplectically_irreducible(chi) == oracle_symplectically_irreducible(factors)
        assert cyclotomic_factor_indices(chi) == oracle_cyclotomic_indices(chi)
    # each family reaches every reason, so the comparison is not vacuous
    assert seen == {REASON_CYCLOTOMIC, REASON_NOT_SYMPL_IRRED, REASON_REDUCIBLE,
                    REASON_X_SQUARED}


def test_cyclotomic_indices_share_the_factoring_bound():
    assert cyclotomic_factor_indices(math.prod([cyclotomic_polynomial(1)] * 64, start=ONE)) == [1] * 64
    with pytest.raises(ValueError):
        cyclotomic_factor_indices(math.prod([cyclotomic_polynomial(1)] * 65, start=ONE))
