"""The fast paths of charpoly and factor_over_Z against slow, independent
references: the full Faddeev-LeVerrier run, Euclid over Q for the gcd, a
pinned digest of the factor multisets, and products built from known
irreducible pieces."""
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import twistcert.polynomials as polynomials
from twistcert.certify import sample_t_word
from twistcert.congruence import GenWord, eval_gen_word
from twistcert.matrices import IntMatrix
from twistcert.polynomials import (
    ONE,
    ZERO,
    IntPoly,
    _primitive_gcd,
    _squarefree_prime,
    charpoly,
    cyclotomic_polynomial,
    factor_over_Z,
    is_reciprocal,
)
from twistcert.words import eval_word

from brute_force_factor import factor_over_Z_bruteforce
from mod_oracle import add, scale
from test_pa_factor_once import family_charpolys


def charpoly_full_run(m: IntMatrix) -> IntPoly:
    """The palindrome oracle: Faddeev-LeVerrier for all k = 1..n, with no
    use of the symmetry of chi."""
    n = m.dim
    coeffs_high_first = [1]
    mk = scale(IntMatrix.identity(n), 0)
    c = 1
    for k in range(1, n + 1):
        mk = m @ add(mk, scale(IntMatrix.identity(n), c))
        tr = sum(mk.rows[i][i] for i in range(n))
        assert tr % k == 0
        c = -tr // k
        coeffs_high_first.append(c)
    return IntPoly(tuple(reversed(coeffs_high_first)))


def monic_gcd_over_Q(a: IntPoly, b: IntPoly) -> IntPoly:
    """The gcd oracle: plain Euclid over Q in Fractions, normalized monic."""
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def rem(u, v):
        u = u[:]
        dv = len(v) - 1
        while u and len(u) - 1 >= dv:
            coef = u[-1] / v[-1]
            off = len(u) - 1 - dv
            for j in range(dv + 1):
                u[off + j] -= coef * v[j]
            trim(u)
        return u

    fa = trim([Fraction(c) for c in a.coeffs])
    fb = trim([Fraction(c) for c in b.coeffs])
    while fb:
        fa, fb = fb, rem(fa, fb)
    mon = [c / fa[-1] for c in fa]
    assert all(c.denominator == 1 for c in mon)
    return IntPoly(tuple(int(c) for c in mon))


def random_monic(rng, degree, bound=4):
    return IntPoly(tuple(rng.randint(-bound, bound) for _ in range(degree)) + (1,))


def symplectic_words():
    rng = random.Random(811)
    out = []
    for g in range(2, 11):
        for blocks in (1, 2, 3):
            out.append(eval_word(sample_t_word(g, blocks, 3, rng)))
        letters = []
        for _ in range(rng.randint(4, 24)):
            kind = rng.choice("AABBC")
            if kind == "C":
                letters.append(("C", rng.randint(1, g - 1), rng.choice((2, -2))))
            else:
                letters.append((kind, rng.randint(1, g), rng.choice((1, -1))))
        out.append(eval_gen_word(GenWord(g, tuple(letters))))
    return out


def test_half_length_charpoly_matches_full_run():
    for sp in symplectic_words():
        full = charpoly_full_run(sp.m)
        assert is_reciprocal(full)
        assert charpoly(sp) == full
        assert charpoly(sp.m) == full  # a plain IntMatrix keeps the full run


def repeated_nonlinear_factor(p: IntPoly) -> bool:
    """True iff a factor other than x, x - 1, x + 1 divides p twice: the
    gcd of p and p' over Q keeps a part with none of the roots 0, 1, -1."""
    g = monic_gcd_over_Q(p, p.derivative())
    for root in (0, 1, -1):
        while g.evaluate(root) == 0:
            g = g.monic_divmod(IntPoly((-root, 1)))[0]
    return g.degree > 0


def spy_on_yun(monkeypatch) -> list:
    calls = []
    yun = polynomials._squarefree_decomposition

    def spy(f):
        calls.append(f)
        return yun(f)

    monkeypatch.setattr(polynomials, "_squarefree_decomposition", spy)
    return calls


def test_family_chi_reach_yun_only_when_not_squarefree(monkeypatch):
    calls = spy_on_yun(monkeypatch)
    factors, through_yun = [], 0
    for chi in family_charpolys():
        calls.clear()
        factors.append([f.coeffs for f in factor_over_Z(chi)])
        assert bool(calls) == repeated_nonlinear_factor(chi), str(chi)
        through_yun += bool(calls)
    # 8 of the 120 have a squared reciprocal factor such as (x^2 + 7x + 1)^2
    assert through_yun == 8
    # sha256 of the same multisets, recorded with the Yun-always route
    # (squarefree decomposition by Euclid over Q before every Zassenhaus run)
    assert hashlib.sha256(repr(factors).encode()).hexdigest() == (
        "2d672eae334f9d5f1ba9c6250137843716eee80eb6d32824008efb2f64d15e3a")


def irreducible_pieces(rng, count):
    """Distinct monic irreducibles of degree 2..6, each confirmed by the
    brute-force oracle."""
    pieces = []
    while len(pieces) < count:
        f = random_monic(rng, rng.randint(2, 6), bound=5)
        if f not in pieces and factor_over_Z_bruteforce(f) == (f,):
            pieces.append(f)
    return pieces


def built_nonsquarefree():
    """(polynomial, its factor multiset, whether a repeated non-linear
    factor sends it through Yun's squarefree decomposition)."""
    rng = random.Random(823)
    x_minus_1, x_plus_1, golden = IntPoly((-1, 1)), IntPoly((1, 1)), IntPoly((1, -3, 1))
    pieces = irreducible_pieces(rng, 12)
    cases = [
        ([x_minus_1] * 2 + pieces[:2], False),
        ([x_plus_1] * 2 + pieces[2:4], False),
        ([x_minus_1] * 4 + [x_plus_1] * 2 + [cyclotomic_polynomial(5)], False),
        ([golden] * 2, True),
        ([golden] * 2 + [x_minus_1] * 2 + [pieces[4]], True),
        ([pieces[5]] * 3 + [pieces[6]] * 2 + [pieces[7]], True),
    ]
    big = [golden] * 2 + [x_minus_1] * 2 + [x_plus_1] * 2 + [cyclotomic_polynomial(7)]
    cases.append((big + pieces[8:] * 2, True))
    out = []
    for factors, repeated in cases:
        p = ONE
        for f in factors:
            p = p * f
        out.append((p, sorted(factors, key=lambda f: (f.degree, f.coeffs)), repeated))
    assert 40 <= out[-1][0].degree <= polynomials.DESK_DEGREE_BOUND
    return out


def test_nonsquarefree_inputs_take_the_fallback(monkeypatch):
    calls = spy_on_yun(monkeypatch)
    for p, expected, repeated in built_nonsquarefree():
        calls.clear()
        assert list(factor_over_Z(p)) == expected, str(p)
        assert bool(calls) == repeated == repeated_nonlinear_factor(p), str(p)
        if repeated:
            assert _squarefree_prime(calls[0]) is None  # the bounded search gave up


def test_primitive_gcd_matches_euclid_over_Q():
    rng = random.Random(829)
    for _ in range(150):
        g = random_monic(rng, rng.randint(0, 5))
        a = g * random_monic(rng, rng.randint(0, 6))
        lead = rng.choice((-3, -2, -1, 1, 2, 5))
        h = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 6))) + (lead,))
        for b in (g * h, a.derivative(), g * g * h, ZERO):
            assert _primitive_gcd(a, b) == monic_gcd_over_Q(a, b), (str(a), str(b))


def test_yun_part_without_a_prime_raises_under_optimize():
    # the bounded prime search finds nothing for any part: an explicit
    # ArithmeticError, not an assert, so python -O keeps the check
    script = textwrap.dedent("""
        import twistcert.polynomials as p
        p.ZASSENHAUS_PRIMES = ()
        try:
            p.factor_over_Z(p.IntPoly((1, -3, 1)) * p.IntPoly((1, -3, 1)))
        except ArithmeticError:
            raise SystemExit(0)
        raise SystemExit("factored with no prime")
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("make", [
    lambda: IntPoly((1, -3, 1)) * IntPoly((1, -3, 1)),
    lambda: IntPoly((1, 0, 1)) * IntPoly((1, 0, 1)) * IntPoly((1, 0, 1)) * IntPoly((2, 1)),
])
def test_prime_search_is_bounded_on_nonsquarefree_input(make):
    assert _squarefree_prime(make()) is None
