"""Brute-force factorization over Z for monic polynomials of degree <= 8:
integer roots, then divisor interpolation. It shares no search with the
Zassenhaus route of twistcert.polynomials.factor_over_Z and serves the tests
as its independent oracle.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from twistcert.polynomials import (
    ONE,
    X,
    IntPoly,
    _mignotte_bound,
    canonical_factor_order,
)

BRUTE_FORCE_DEGREE_BOUND = 8
_SAMPLE_POINTS = (0, 1, -1, 2, -2, 3, -3, 4)


def _signed_divisors(n: int) -> list[int]:
    """All signed divisors of n != 0, deterministic order by (abs, sign)."""
    n = abs(n)
    divs: list[int] = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
    divs.sort()
    return [s * d for d in divs for s in (1, -1)]


@lru_cache(maxsize=None)
def _interp_matrix(d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer inverse (up to denominator) of the d-point Vandermonde system.

    For points m_0..m_{d-1}, solving sum_j a_j m^j = rhs_m: returns (N, D)
    with a = N @ rhs / D.
    """
    pts = _SAMPLE_POINTS[:d]
    v = [[Fraction(m ** j) for j in range(d)] for m in pts]
    # invert via Gauss-Jordan over Q
    aug = [row[:] + [Fraction(1 if i == j else 0) for j in range(d)]
           for i, row in enumerate(v)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pivval = aug[col][col]
        aug[col] = [x / pivval for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[d:] for row in aug]
    denom = math.lcm(*[x.denominator for row in inv for x in row])
    numer = tuple(tuple(int(x * denom) for x in row) for row in inv)
    return numer, denom


def _find_monic_factor(p: IntPoly, d: int) -> IntPoly | None:
    """Smallest monic factor of degree exactly d via divisor interpolation.

    Requires that p has no integer roots (degree-1 factors already stripped),
    so p(m) != 0 at every sample point.
    """
    pts = _SAMPLE_POINTS[:d]
    values = [p.evaluate(m) for m in pts]
    assert all(v != 0 for v in values)
    bound = _mignotte_bound(p)
    numer, denom = _interp_matrix(d)
    divisor_lists = [_signed_divisors(v) for v in values]
    for choice in itertools.product(*divisor_lists):
        # rhs_m = f(m) - m^d
        rhs = [choice[i] - pts[i] ** d for i in range(d)]
        coeffs = []
        ok = True
        for row in numer:
            s = sum(r * v for r, v in zip(row, rhs))
            if s % denom != 0:
                ok = False
                break
            c = s // denom
            if abs(c) > bound:
                ok = False
                break
            coeffs.append(c)
        if not ok:
            continue
        candidate = IntPoly(tuple(coeffs) + (1,))
        if p.monic_divmod(candidate)[1].is_zero():
            return candidate
    return None


def factor_over_Z_bruteforce(p: IntPoly) -> tuple[IntPoly, ...]:
    """Exhaustive factorization for monic p of degree <= 8.

    Integer roots first, then divisor-interpolation search for factors of
    degree 2..deg/2, recursing on quotients. Independent of the Zassenhaus
    route; used as its oracle.
    """
    if p.is_zero() or not p.is_monic():
        raise ValueError("polynomial must be nonzero and monic")
    if p.degree > BRUTE_FORCE_DEGREE_BOUND:
        raise ValueError(f"degree {p.degree} exceeds brute-force bound {BRUTE_FORCE_DEGREE_BOUND}")
    factors: list[IntPoly] = []
    body = p
    while body.constant() == 0:
        body = IntPoly(body.coeffs[1:])
        factors.append(X)

    # strip integer roots (divisors of the constant term)
    changed = True
    while changed and body.degree >= 1:
        changed = False
        for r in _signed_divisors(body.constant()):
            if body.evaluate(r) == 0:
                factors.append(IntPoly((-r, 1)))
                body = body.monic_divmod(IntPoly((-r, 1)))[0]
                changed = True
                break

    while body.degree >= 2:
        found = None
        for d in range(2, body.degree // 2 + 1):
            found = _find_monic_factor(body, d)
            if found is not None:
                break
        if found is None:
            factors.append(body)
            break
        factors.append(found)
        body = body.monic_divmod(found)[0]
    else:
        if body.degree == 1:
            factors.append(body)
    if math.prod(factors, start=ONE) != p:
        raise ArithmeticError("factor product does not reproduce the polynomial")
    return canonical_factor_order(factors)
