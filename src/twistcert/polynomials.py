"""Integer polynomial algebra: characteristic polynomials, reciprocal and
cyclotomic tests, and exact factorization over Z.

Factorization is a Zassenhaus-style routine: finite-field factorization,
Hensel lifting to the Mignotte bound, subset recombination. The test suite
cross-checks it against an independent brute-force search up to degree 8.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .matrices import IntMatrix

DESK_DEGREE_BOUND = 64


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; coefficients lowest degree first, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def __pow__(self, k: int) -> IntPoly:
        result = IntPoly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic_divmod(self, divisor: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Exact quotient and remainder for a monic divisor."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.degree
        if len(rem) <= d:
            return IntPoly(()), self
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            q = rem[i + d]
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return IntPoly(tuple(quot)), IntPoly(tuple(rem[:d]))

    def divisible_by(self, divisor: IntPoly) -> bool:
        return self.monic_divmod(divisor)[1].is_zero()

    def derivative(self) -> IntPoly:
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def reversed_poly(self) -> IntPoly:
        """x^deg * p(1/x): the coefficient sequence reversed."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


X = IntPoly((0, 1))
ONE = IntPoly((1,))


def charpoly(m: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

    All intermediate divisions are exact over Z.
    """
    n = m.dim
    coeffs_high_first = [1]
    mk = IntMatrix.identity(n).scale(0)
    c = 1
    for k in range(1, n + 1):
        mk = m @ mk.add(IntMatrix.identity(n).scale(c))
        tr = sum(mk.rows[i][i] for i in range(n))
        if tr % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier trace division is not exact")
        c = -tr // k
        coeffs_high_first.append(c)
    return IntPoly(tuple(reversed(coeffs_high_first)))


def is_reciprocal(p: IntPoly) -> bool:
    """True iff x^deg * p(1/x) = p(x), i.e. the coefficients are a palindrome."""
    return p.coeffs == tuple(reversed(p.coeffs))


def is_polynomial_in_x_squared(p: IntPoly) -> bool:
    """True iff every odd-degree coefficient vanishes."""
    return all(c == 0 for c in p.coeffs[1::2])


def is_polynomial_in_x_power(p: IntPoly, k: int) -> bool:
    """True iff p lies in Z[x^k]."""
    if k < 1:
        raise ValueError("power must be >= 1")
    return all(c == 0 for i, c in enumerate(p.coeffs) if i % k != 0)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """Phi_n, computed by dividing x^n - 1 by all lower cyclotomic factors."""
    if n < 1:
        raise ValueError("n must be positive")
    xn_minus_1 = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    result = xn_minus_1
    for d in range(1, n):
        if n % d == 0:
            q, r = result.monic_divmod(cyclotomic_polynomial(d))
            if not r.is_zero():
                raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1 over the lower factors")
            result = q
    return result


def cyclotomic_index(f: IntPoly) -> int | None:
    """The n with f = Phi_n, or None. Searches n <= 2*deg(f)^2, which covers
    every candidate since phi(n) >= sqrt(n/2)."""
    d = f.degree
    return next((n for n in range(1, 2 * d * d + 1)
                 if euler_phi(n) == d and cyclotomic_polynomial(n) == f), None)


def cyclotomic_factor_indices(p: IntPoly) -> list[int] | None:
    """Sorted indices n (with multiplicity) such that p = prod Phi_n, or
    None: p is such a product iff each of its irreducible factors is a Phi_n."""
    indices = [cyclotomic_index(f) for f in factor_over_Z(p)]
    return None if None in indices else sorted(indices)


def is_cyclotomic_product(p: IntPoly) -> bool:
    """True iff p is a (possibly repeated) product of cyclotomic polynomials."""
    return cyclotomic_factor_indices(p) is not None


# ---------------------------------------------------------------------------
# GF(p) polynomial helpers (dense lists, lowest degree first)
# ---------------------------------------------------------------------------

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_from_poly(f: IntPoly, p: int) -> list[int]:
    return _gf_trim([c % p for c in f.coeffs])


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_trim(out)


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, p - 2, p)
    if len(a) - 1 < db:
        return [], _gf_trim(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        q = (a[i + db] * inv) % p
        quot[i] = q
        if q:
            for j, c in enumerate(b):
                a[i + j] = (a[i + j] - q * c) % p
    return _gf_trim(quot), _gf_trim(a[:db])


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _gf_gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended gcd: returns (s, t, g) with s*a + t*b = g, g monic."""
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while b:
        q, r = _gf_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, _gf_trim([(x - y) % p for x, y in
                               itertools.zip_longest(s0, _gf_mul(q, s1, p), fillvalue=0)])
        t0, t1 = t1, _gf_trim([(x - y) % p for x, y in
                               itertools.zip_longest(t0, _gf_mul(q, t1, p), fillvalue=0)])
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
        s0 = [(c * inv) % p for c in s0]
        t0 = [(c * inv) % p for c in t0]
    return s0, t0, a


def _gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _gf_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _gf_divmod(_gf_mul(result, base, p), mod, p)[1]
        base = _gf_divmod(_gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _gf_factor_squarefree(f: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """Factor a monic squarefree polynomial over GF(p) into monic irreducibles.

    Distinct-degree factorization followed by Cantor-Zassenhaus splitting
    (p odd). Deterministic given the rng state.
    """
    factors: list[list[int]] = []
    # distinct-degree stage
    stages: list[tuple[list[int], int]] = []
    h = [0, 1]
    v = f[:]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, v, p)
        diff = _gf_trim([(x - y) % p for x, y in
                         itertools.zip_longest(h, [0, 1], fillvalue=0)])
        g = _gf_gcd(diff, v, p)
        if len(g) > 1:
            stages.append((g, d))
            v = _gf_divmod(v, g, p)[0]
            h = _gf_divmod(h, v, p)[1]
    if len(v) > 1:
        stages.append((v, len(v) - 1))
    # equal-degree splitting
    for g, d in stages:
        work = [g]
        while work:
            u = work.pop()
            if len(u) - 1 == d:
                factors.append(u)
                continue
            # random splitting attempt
            while True:
                r = [rng.randrange(p) for _ in range(len(u) - 1)]
                r = _gf_trim(r)
                if len(r) <= 1:
                    continue
                t = _gf_pow_mod(r, (p ** d - 1) // 2, u, p)
                t = _gf_trim([(x - y) % p for x, y in
                              itertools.zip_longest(t, [1], fillvalue=0)])
                w = _gf_gcd(t, u, p)
                if 1 < len(w) < len(u):
                    work.append(w)
                    work.append(_gf_divmod(u, w, p)[0])
                    break
    return factors


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus recombination
# ---------------------------------------------------------------------------

def _hensel_step(m: int, f: IntPoly, g: IntPoly, h: IntPoly,
                 s: IntPoly, t: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly, IntPoly]:
    """One quadratic Hensel step: lifts f = g*h (mod m) to mod m**2."""
    mm = m * m

    def trunc(p: IntPoly) -> IntPoly:
        return IntPoly(tuple(_sym(c, mm) for c in p.coeffs))

    e = trunc(f - g * h)
    q, r = (e * s).monic_divmod(h)
    g1 = trunc(g + e * t + q * g)
    h1 = trunc(h + r)
    b = trunc(s * g1 + t * h1 - ONE)
    c, d = (s * b).monic_divmod(h1)
    s1 = trunc(s - d)
    t1 = trunc(t - t * b - c * g1)
    return g1, h1, s1, t1


def _sym(c: int, q: int) -> int:
    """Symmetric representative of c mod q in (-q/2, q/2]."""
    c %= q
    if c > q // 2:
        c -= q
    return c


def _hensel_lift(f: IntPoly, mod_factors: list[list[int]], p: int, bound: int) -> tuple[list[IntPoly], int]:
    """Lift the mod-p factorization of monic f until the modulus exceeds bound.

    Recursive factor-tree lifting; returns integer-coefficient factors in
    symmetric representation mod q, together with q.
    """
    target = p
    while target <= bound:
        target *= target

    def lift(f_int: IntPoly, parts: list[list[int]]) -> list[IntPoly]:
        if len(parts) == 1:
            return [f_int]
        half = len(parts) // 2
        g_mod = [1]
        for fac in parts[:half]:
            g_mod = _gf_mul(g_mod, fac, p)
        h_mod = [1]
        for fac in parts[half:]:
            h_mod = _gf_mul(h_mod, fac, p)
        s_mod, t_mod, one = _gf_gcdex(g_mod, h_mod, p)
        if one != [1]:
            raise ArithmeticError("lift factors are not coprime mod p")
        g = IntPoly(tuple(_sym(c, p) for c in g_mod))
        h = IntPoly(tuple(_sym(c, p) for c in h_mod))
        s = IntPoly(tuple(_sym(c, p) for c in s_mod))
        t = IntPoly(tuple(_sym(c, p) for c in t_mod))
        m = p
        while m < target:
            g, h, s, t = _hensel_step(m, f_int, g, h, s, t)
            m *= m
        return lift(g, parts[:half]) + lift(h, parts[half:])

    return lift(f, mod_factors), target


def _mignotte_bound(f: IntPoly) -> int:
    """Coefficient bound for any monic factor of monic f."""
    n = f.degree
    norm_sq = sum(c * c for c in f.coeffs)
    return (2 ** n) * (math.isqrt(norm_sq) + 1)


def _factor_squarefree_monic(f: IntPoly, rng: random.Random) -> list[IntPoly]:
    """Zassenhaus factorization of a squarefree monic polynomial, deg >= 1."""
    if f.degree == 1:
        return [f]
    # pick an odd prime keeping f squarefree mod p
    p = 3
    while True:
        fp = _gf_from_poly(f, p)
        if len(fp) - 1 == f.degree and len(_gf_gcd(fp, _gf_trim(
                [(i * c) % p for i, c in enumerate(fp)][1:]), p)) == 1:
            break
        p = _next_prime(p)
    mod_factors = _gf_factor_squarefree(fp, p, rng)
    mod_factors.sort(key=lambda g: (len(g), g))
    if len(mod_factors) == 1:
        return [f]
    lifted, q = _hensel_lift(f, mod_factors, p, 2 * _mignotte_bound(f))

    # subset recombination
    result: list[IntPoly] = []
    remaining = f
    active = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(active):
        found = True
        while found:
            found = False
            for combo in itertools.combinations(active, size):
                prod = ONE
                for idx in combo:
                    prod = IntPoly(tuple(_sym(c, q) for c in (prod * lifted[idx]).coeffs))
                c0 = prod.constant()
                r0 = remaining.constant()
                if r0 != 0 and (c0 == 0 or r0 % c0 != 0):
                    continue
                quot, rem = remaining.monic_divmod(prod)
                if rem.is_zero():
                    result.append(prod)
                    remaining = quot
                    active = [i for i in active if i not in combo]
                    found = True
                    break
        size += 1
    if remaining.degree > 0:
        result.append(remaining)
    return result


def _next_prime(p: int) -> int:
    candidate = p + 2
    while True:
        if all(candidate % d for d in range(3, math.isqrt(candidate) + 1, 2)):
            return candidate
        candidate += 2


def _squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm for monic f: list of (monic squarefree part, multiplicity)."""
    out: list[tuple[IntPoly, int]] = []
    g = _monic_gcd(f, f.derivative())
    w = f.monic_divmod(g)[0]
    mult = 1
    while w.degree > 0:
        y = _monic_gcd(w, g)
        part = w.monic_divmod(y)[0]
        if part.degree > 0:
            out.append((part, mult))
        w = y
        g = g.monic_divmod(y)[0]
        mult += 1
    return out


def _monic_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd of integer polynomials, normalized monic with integer coefficients.

    Computed over Q by plain Euclid; fine at desk-scale degrees. The gcd of
    two monic integer polynomials is itself integral (Gauss's lemma).
    """
    def trim(v: list[Fraction]) -> list[Fraction]:
        while v and v[-1] == 0:
            v.pop()
        return v

    def rem(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
        u = u[:]
        dv = len(v) - 1
        while len(u) - 1 >= dv:
            coef = u[-1] / v[-1]
            off = len(u) - 1 - dv
            for j in range(dv + 1):
                u[off + j] -= coef * v[j]
            trim(u)
            if not u:
                break
        return u

    fa = trim([Fraction(c) for c in a.coeffs])
    fb = trim([Fraction(c) for c in b.coeffs])
    while fb:
        fa, fb = fb, rem(fa, fb)
    if not fa:
        return IntPoly(())
    mon = [c / fa[-1] for c in fa]
    if any(c.denominator != 1 for c in mon):
        raise ArithmeticError("gcd of monic inputs must be integral")
    return IntPoly(tuple(int(c) for c in mon))


def _strip_x_powers(f: IntPoly) -> tuple[IntPoly, int]:
    k = 0
    coeffs = f.coeffs
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        k += 1
    return IntPoly(coeffs), k


def canonical_factor_order(factors: list[IntPoly]) -> tuple[IntPoly, ...]:
    """Deterministic multiset order: by (degree, coefficient tuple)."""
    return tuple(sorted(factors, key=lambda f: (f.degree, f.coeffs)))


def factor_over_Z(p: IntPoly) -> tuple[IntPoly, ...]:
    """Factor a monic integer polynomial into monic irreducibles over Z.

    Returns the multiset in canonical order; the product of the returned
    factors equals p exactly.
    """
    if p.is_zero() or not p.is_monic():
        raise ValueError("polynomial must be nonzero and monic")
    if p.degree > DESK_DEGREE_BOUND:
        raise ValueError(f"degree {p.degree} exceeds desk-scale bound {DESK_DEGREE_BOUND}")
    if p.degree == 0:
        return ()
    rng = random.Random(0x5EED ^ p.degree)
    body, xpow = _strip_x_powers(p)
    factors: list[IntPoly] = [X] * xpow
    for part, mult in _squarefree_decomposition(body):
        for factor in _factor_squarefree_monic(part, rng):
            factors.extend([factor] * mult)
    if math.prod(factors, start=ONE) != p:
        raise ArithmeticError("factor product does not reproduce the polynomial")
    return canonical_factor_order(factors)


# ---------------------------------------------------------------------------
# Symplectic irreducibility
# ---------------------------------------------------------------------------

def _reciprocal_up_to_sign(p: IntPoly) -> bool:
    """True iff the reversal of p is p or -p."""
    return p.reversed_poly() in (p, -p)


def check_symplectic_charpoly(p: IntPoly) -> None:
    """ValueError unless p is monic, reciprocal and of even degree, like the
    characteristic polynomial of a symplectic matrix."""
    if not (p.is_monic() and is_reciprocal(p) and p.degree % 2 == 0):
        raise ValueError("polynomial must be monic, reciprocal and of even degree")


def symplectically_irreducible_factors(factors: tuple[IntPoly, ...]) -> bool:
    """is_symplectically_irreducible, read off the irreducible factors over Z
    of a monic reciprocal polynomial. A factor reciprocal up to sign splits
    off with its cofactor; otherwise the factors pair up as f and its
    reversal f*, and two or more pairs split as f f* times the rest."""
    return len(factors) <= 1 or (
        len(factors) == 2 and not _reciprocal_up_to_sign(factors[0]))


def is_symplectically_irreducible(p: IntPoly) -> bool:
    """True iff monic reciprocal p has no factorization into two monic
    reciprocal-up-to-sign polynomials of positive degree.

    Reversals are sign-normalized to monic before comparison, so (x-1)^2 =
    (x-1)(x-1) counts as reducible. Plain irreducibility implies True.
    """
    check_symplectic_charpoly(p)
    return symplectically_irreducible_factors(factor_over_Z(p))
