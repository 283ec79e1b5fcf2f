"""Integer polynomial algebra: characteristic polynomials, reciprocal and
cyclotomic tests, and exact factorization over Z.

The characteristic polynomial is Faddeev-LeVerrier; for an SpMatrix it runs
half the steps and mirrors the coefficients, since chi is reciprocal.

Factorization divides out the powers of x, x - 1 and x + 1. A palindromic
rest, as every characteristic polynomial of a symplectic matrix leaves, has
even degree 2d and equals x^d q(x + 1/x) for a trace polynomial q of degree
d, and only q is factored. Each irreducible r of q, of degree e, maps back
with its multiplicity to x^e r(x + 1/x): irreducible, or f f* for f* the
reversal of f, which is factored again only if |r(2)| and |r(-2)| are both
squares, as f f* forces.

q, such an f f* and a rest that is not palindromic take the generic route: a
prime in ZASSENHAUS_PRIMES modulo which the polynomial is squarefree proves
it squarefree over Z, and the fast path factors it mod p, Hensel-lifts to
the Mignotte bound on coefficient lists reduced mod m**2 and recombines
subsets (Zassenhaus). Finding no prime means a repeated factor, or, far less
likely, that every listed prime divides the discriminant: Yun's squarefree
decomposition runs first, with its gcds as primitive remainder sequences
over Z, and each part is searched alike. So Yun never sees a palindromic
rest, only its q at half the degree. The test suite cross-checks the trace
route against the generic one, both against an independent brute-force
search up to degree 8, Euclid over Q and built products with repeated
factors, and the Hensel lift against the earlier IntPoly kernel.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache

from .matrices import IntMatrix, SpMatrix

DESK_DEGREE_BOUND = 64


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; coefficients lowest degree first, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        trimmed = IntPoly._exact(tuple(map(operator.index, self.coeffs)))
        object.__setattr__(self, "coeffs", trimmed.coeffs)

    @classmethod
    def _exact(cls, coeffs: tuple[int, ...]) -> IntPoly:
        # coefficients already ints, as every operation on IntPoly values
        # yields: trim, but skip the coercion
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        p = object.__new__(cls)
        p.__dict__["coeffs"] = coeffs if n == len(coeffs) else coeffs[:n]
        return p

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly._exact(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> IntPoly:
        return IntPoly._exact(tuple(-x for x in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly._exact(tuple(out))

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
            return ZERO, self
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            q = rem[i + d]
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return IntPoly._exact(tuple(quot)), IntPoly._exact(tuple(rem[:d]))

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


ZERO = IntPoly(())
X = IntPoly((0, 1))
ONE = IntPoly((1,))


def charpoly(m: IntMatrix | SpMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

    All intermediate divisions are exact over Z. For an SpMatrix, certified
    symplectic when it was built, chi is reciprocal of degree 2g: the run
    stops at k = g and mirrors c_1..c_g.
    """
    steps = m.dim
    if isinstance(m, SpMatrix):
        steps, m = m.genus, m.m
    n = m.dim
    a = m.rows
    coeffs_high_first = [1]
    mk = a  # rows of M_k = M (M_{k-1} + c_{k-1} I), with M_1 = M
    for k in range(1, steps + 1):
        if k == 1:
            tr = sum(a[i][i] for i in range(n))
        else:
            shifted = tuple(row[:i] + (row[i] + c,) + row[i + 1:] for i, row in enumerate(mk))
            if k < steps:
                mk = (m @ IntMatrix._exact(shifted)).rows
                tr = sum(mk[i][i] for i in range(n))
            else:  # the last M_k is read only through its trace: skip the product
                tr = sum(x * shifted[j][i] for i, row in enumerate(a)
                         for j, x in enumerate(row) if x)
        if tr % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier trace division is not exact")
        c = -tr // k
        coeffs_high_first.append(c)
    if steps < n:
        coeffs_high_first += reversed(coeffs_high_first[:n - steps])
    return IntPoly._exact(tuple(reversed(coeffs_high_first)))


def is_reciprocal(p: IntPoly) -> bool:
    """True iff x^deg * p(1/x) = p(x), i.e. the coefficients are a palindrome."""
    return p.coeffs == tuple(reversed(p.coeffs))


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


@lru_cache(maxsize=None)
def _orders_of_degree(d: int) -> tuple[int, ...]:
    """Every n with phi(n) = d: they all lie in n <= 2*d^2, since
    phi(n) >= sqrt(n/2)."""
    return tuple(n for n in range(1, 2 * d * d + 1) if euler_phi(n) == d)


def cyclotomic_index(f: IntPoly) -> int | None:
    """The n with f = Phi_n, or None."""
    return next((n for n in _orders_of_degree(f.degree) if cyclotomic_polynomial(n) == f), None)


def cyclotomic_factor_indices(factors: tuple[IntPoly, ...]) -> list[int] | None:
    """For the irreducible factors of a polynomial, as `factor_over_Z`
    returns them: the sorted n with each factor Phi_n, or None when a factor
    is no Phi_n. The polynomial is a product of cyclotomics iff this is not
    None."""
    indices = [cyclotomic_index(f) for f in factors]
    return None if None in indices else sorted(indices)


def is_cyclotomic_product(p: IntPoly) -> bool:
    """True iff p is a (possibly repeated) product of cyclotomic polynomials."""
    return cyclotomic_factor_indices(factor_over_Z(p)) is not None


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
    """a * b mod p; p need not be prime (the Hensel steps pass m**2)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _gf_trim([c % p for c in out])


def _gf_add(a: list[int], b: list[int], p: int) -> list[int]:
    return _gf_trim([(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    return _gf_trim([(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod p, for p prime or for b with b[-1] == 1
    (the Hensel steps divide by monic factors mod m**2)."""
    if not b:
        raise ZeroDivisionError
    a = a[:]
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _gf_trim(a)
    inv = 1 if b[-1] == 1 else pow(b[-1], p - 2, p)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        q = quot[i] = a[i + db] * inv % p
        if q:
            for j in range(db):
                a[i + j] -= q * b[j]
    return _gf_trim(quot), _gf_trim([c % p for c in a[:db]])


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
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
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
        g = _gf_gcd(_gf_sub(h, [0, 1], p), v, p)
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
                t = _gf_sub(_gf_pow_mod(r, (p ** d - 1) // 2, u, p), [1], p)
                w = _gf_gcd(t, u, p)
                if 1 < len(w) < len(u):
                    work.append(w)
                    work.append(_gf_divmod(u, w, p)[0])
                    break
    return factors


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus recombination
# ---------------------------------------------------------------------------

def _hensel_step(m: int, f: list[int], g: list[int], h: list[int], s: list[int], t: list[int],
                 last: bool) -> tuple[list[int], list[int], list[int] | None, list[int] | None]:
    """One quadratic Hensel step (von zur Gathen-Gerhard, Algorithm 15.10):
    from f = g*h and s*g + t*h = 1 mod m, with g, h monic, to the same
    mod m**2. Coefficient lists reduced into [0, m**2). On a node's last
    step the new s and t would go unused: they come back as None."""
    mm = m * m
    e = _gf_sub(f, _gf_mul(g, h, mm), mm)
    q, r = _gf_divmod(_gf_mul(e, s, mm), h, mm)
    g1 = _gf_add(g, _gf_add(_gf_mul(e, t, mm), _gf_mul(q, g, mm), mm), mm)
    h1 = _gf_add(h, r, mm)
    if last:
        return g1, h1, None, None
    b = _gf_sub(_gf_add(_gf_mul(s, g1, mm), _gf_mul(t, h1, mm), mm), [1], mm)
    c, d = _gf_divmod(_gf_mul(s, b, mm), h1, mm)
    s1 = _gf_sub(s, d, mm)
    t1 = _gf_sub(t, _gf_add(_gf_mul(t, b, mm), _gf_mul(c, g1, mm), mm), mm)
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
    leaves = _lift_tree([c % target for c in f.coeffs], mod_factors, p, target)
    return [IntPoly._exact(tuple(_sym(c, target) for c in leaf)) for leaf in leaves], target


def _lift_tree(f_mod: list[int], parts: list[list[int]], p: int, target: int) -> list[list[int]]:
    """One node of the factor tree of `_hensel_lift`: lift f_mod = g h, for g
    and h the products of the two halves of parts, from p to target, then
    lift each half. A module-level function, so no closure cell keeps a
    reference cycle alive after each factorization."""
    if len(parts) == 1:
        return [f_mod]
    half = len(parts) // 2
    g = [1]
    for fac in parts[:half]:
        g = _gf_mul(g, fac, p)
    h = [1]
    for fac in parts[half:]:
        h = _gf_mul(h, fac, p)
    s, t, one = _gf_gcdex(g, h, p)
    if one != [1]:
        raise ArithmeticError("lift factors are not coprime mod p")
    m = p
    while m < target:
        g, h, s, t = _hensel_step(m, f_mod, g, h, s, t, m * m >= target)
        m *= m
    return _lift_tree(g, parts[:half], p, target) + _lift_tree(h, parts[half:], p, target)


def _mignotte_bound(f: IntPoly) -> int:
    """Coefficient bound for any monic factor of monic f."""
    n = f.degree
    norm_sq = sum(c * c for c in f.coeffs)
    return (2 ** n) * (math.isqrt(norm_sq) + 1)


# Odd primes tried, in order, for the Zassenhaus prime. A monic f that is
# squarefree over Z is squarefree mod every prime not dividing its
# discriminant, so for such f one of these is all but certain to work.
ZASSENHAUS_PRIMES = tuple(p for p in range(3, 256, 2)
                          if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))


def _squarefree_prime(f: IntPoly) -> int | None:
    """The first p in ZASSENHAUS_PRIMES with monic f squarefree mod p, or None.

    Such a p proves f squarefree over Z: f keeps its degree mod p (it is
    monic), and a repeated monic factor over Z stays repeated mod p.
    """
    for p in ZASSENHAUS_PRIMES:
        fp = _gf_from_poly(f, p)
        dfp = _gf_trim([(i * c) % p for i, c in enumerate(fp)][1:])
        if len(_gf_gcd(fp, dfp, p)) == 1:
            return p
    return None


def _factor_squarefree_monic(f: IntPoly, p: int, rng: random.Random) -> list[IntPoly]:
    """Zassenhaus factorization of a monic f, deg >= 1, squarefree mod p."""
    mod_factors = _gf_factor_squarefree(_gf_from_poly(f, p), p, rng)
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
                    prod = IntPoly._exact(tuple(_sym(c, q) for c in (prod * lifted[idx]).coeffs))
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


def _squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm for monic f: list of (monic squarefree part, multiplicity)."""
    out: list[tuple[IntPoly, int]] = []
    g = _primitive_gcd(f, f.derivative())
    w, mult = f.monic_divmod(g)[0], 1
    while w.degree > 0:
        y = _primitive_gcd(w, g)
        part = w.monic_divmod(y)[0]
        if part.degree > 0:
            out.append((part, mult))
        w, g, mult = y, g.monic_divmod(y)[0], mult + 1
    return out


def _primitive_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Monic gcd of a monic a and any b, by the primitive remainder sequence
    over Z (W. S. Brown, J. ACM 1971): every pseudo-remainder is divided by
    its content, so no fractions arise. The gcd divides the monic a, so its
    primitive part has leading coefficient +-1 (Gauss's lemma).
    """
    u, v = list(a.coeffs), _primitive(list(b.coeffs))
    while v:
        u, v = v, _primitive(_pseudo_remainder(u, v))
    if abs(u[-1]) != 1:
        raise ArithmeticError("gcd with a monic polynomial must be monic up to sign")
    return IntPoly._exact(tuple(u) if u[-1] == 1 else tuple(-c for c in u))


def _pseudo_remainder(u: list[int], v: list[int]) -> list[int]:
    """c * (u mod v) for some integer c != 0; v nonzero, lowest degree first."""
    u = u[:]
    dv, lv = len(v) - 1, v[-1]
    while len(u) - 1 >= dv:
        top = u.pop()
        k = math.gcd(lv, top)
        su, sv = lv // k, top // k  # su * u - sv * x^off * v cancels the top
        off = len(u) - dv
        if su != 1:
            u = [su * c for c in u]
        for j in range(dv):
            u[off + j] -= sv * v[j]
        _gf_trim(u)
    return u


def _primitive(u: list[int]) -> list[int]:
    content = math.gcd(*u)
    return u if content <= 1 else [c // content for c in u]


def _strip_unit_roots(f: IntPoly) -> tuple[IntPoly, list[IntPoly]]:
    """Divide monic f by x, x - 1 and x + 1 as often as each goes."""
    factors = []
    for root in (0, 1, -1):
        linear = IntPoly((-root, 1))
        while f.evaluate(root) == 0:
            f = f.monic_divmod(linear)[0]
            factors.append(linear)
    return f, factors


def _trace_polynomial(f: IntPoly) -> IntPoly:
    """The q of degree d with f = x^d q(x + 1/x), for f palindromic of degree
    2d: q = c_d + sum_k c_{d+k} T_k(y), where T_k(x + 1/x) = x^k + x^-k is
    T_0 = 2, T_1 = y, T_k = y T_{k-1} - T_{k-2}."""
    c, d = f.coeffs, f.degree // 2
    q = [c[d]] + [0] * d
    t_prev, t_k = [2], [0, 1]
    for k in range(1, d + 1):
        for i, a in enumerate(t_k):
            q[i] += c[d + k] * a
        t_next = [0] + t_k
        for i, a in enumerate(t_prev):
            t_next[i] -= a
        t_prev, t_k = t_k, t_next
    return IntPoly._exact(tuple(q))


def _from_trace(r: IntPoly) -> IntPoly:
    """x^e r(x + 1/x) for r of degree e, by Horner in y: step i takes P to
    P (x^2 + 1) + r_{e-i} x^i."""
    out = [r.coeffs[-1]]
    for i, a in enumerate(reversed(r.coeffs[:-1]), 1):
        out = [x + y for x, y in zip(out + [0, 0], [0, 0] + out)]
        out[i] += a
    return IntPoly._exact(tuple(out))


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def _factor_through_trace(body: IntPoly, rng: random.Random) -> list[IntPoly]:
    """Irreducible factors, with multiplicity, of a palindromic body with no
    root 0, 1 or -1, so of even degree 2d, read off its trace polynomial q.

    Exact: if q = prod r_i^(m_i) over Z with deg r_i = e_i, then body =
    x^d q(x + 1/x) = prod (x^(e_i) r_i(x + 1/x))^(m_i), as the e_i m_i add
    up to d; no r_i is y -+ 2, since x -+ 1 do not divide body. Each R =
    x^e r(x + 1/x) is irreducible or f f*, f* the reversal of f up to sign,
    and R = f f* makes |r(+-2)| = |R(+-1)| = f(+-1)^2: R is kept whole unless
    both are squares, and else takes the generic route of its own degree.
    """
    factors = []
    for r in _factor_generic(_trace_polynomial(body), rng):
        big = _from_trace(r)
        if _is_square(abs(r.evaluate(2))) and _is_square(abs(r.evaluate(-2))):
            factors += _factor_generic(big, rng)
        else:
            factors.append(big)
    return factors


def _factor_generic(f: IntPoly, rng: random.Random) -> list[IntPoly]:
    """Irreducible factors, with multiplicity, of a monic f of degree >= 1:
    Zassenhaus on f when a prime keeps it squarefree, else on each part of
    Yun's squarefree decomposition, repeated by its multiplicity."""
    prime = _squarefree_prime(f)
    if prime is not None:
        return _factor_squarefree_monic(f, prime, rng)
    factors = []
    for part, mult in _squarefree_decomposition(f):
        prime = _squarefree_prime(part)
        if prime is None:
            raise ArithmeticError("no prime in ZASSENHAUS_PRIMES keeps a squarefree factor squarefree")
        factors += _factor_squarefree_monic(part, prime, rng) * mult
    return factors


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
    body, factors = _strip_unit_roots(p)
    if body.degree > 0:
        route = _factor_through_trace if is_reciprocal(body) else _factor_generic
        factors += route(body, rng)
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
