"""Independent reference computations for checking twistcert's outputs.

Nothing here imports twistcert. Twist and generator words are evaluated from
the transvection formulas on H_1 in the basis (a_1..a_g, b_1..b_g) with the
form J = [[0, I], [-I, 0]]; characteristic polynomials and factorizations over
Z come from sympy; the genus-2 image mod 4 comes from a plain-Python
breadth-first search.
"""
from __future__ import annotations

import itertools

# The README's worked example: word, matrix and characteristic polynomial
# (coefficients lowest degree first).
README_WORD = "d1^-2 c1^-2 a1 d1^-2 b2 b1"
README_MATRIX = [[1, 0, 3, -2], [0, 1, -2, 2], [-1, 0, -2, 2], [0, -1, 2, -1]]
README_CHARPOLY = [1, 1, -2, 1, 1]


# ---------------------------------------------------------------------------
# Transvections
# ---------------------------------------------------------------------------

def _omega(u: list[int], w: list[int], g: int) -> int:
    """Symplectic pairing u^T J w."""
    return sum(u[i] * w[g + i] - u[g + i] * w[i] for i in range(g))


def _twist_vector(kind: str, index: int, g: int) -> tuple[list[int], int] | None:
    """(v, s) with T(x) = x + s * omega(v, x) * v; None for the separating
    d-curves, which act trivially on homology."""
    v = [0] * (2 * g)
    if kind == "a":
        v[index - 1] = 1
        return v, 1
    if kind == "b":
        v[g + index - 1] = 1
        return v, 1
    if kind == "c":
        v[index - 1], v[index] = 1, -1
        return v, -1
    return None


def _apply(acc: list[list[int]], kind: str, index: int, exponent: int, g: int) -> None:
    """acc <- acc * T^exponent in place (T^e(x) = x + e*s*omega(v, x)*v)."""
    tv = _twist_vector(kind, index, g)
    if tv is None:
        return
    v, s = tv
    n = 2 * g
    acc_v = [sum(row[k] * v[k] for k in range(n) if v[k]) for row in acc]
    unit = [0] * n
    for j in range(n):
        unit[j] = 1
        coef = exponent * s * _omega(v, unit, g)
        unit[j] = 0
        if coef:
            for r in range(n):
                acc[r][j] += coef * acc_v[r]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def eval_twist_word(letters: list[tuple[str, int, int]], g: int) -> list[list[int]]:
    """Product of the letter matrices in reverse written order."""
    acc = identity(2 * g)
    for kind, index, exponent in reversed(letters):
        _apply(acc, kind, index, exponent, g)
    return acc


def eval_gen_word(letters: list[tuple[str, int, int]], g: int) -> list[list[int]]:
    """Generator words (A, B, C letters) multiply in literal written order."""
    acc = identity(2 * g)
    for kind, index, exponent in letters:
        _apply(acc, kind.lower(), index, exponent, g)
    return acc


def parse_gen_word(text: str) -> list[tuple[str, int, int]]:
    letters = []
    for token in text.split():
        body, _, exp = token.partition("^")
        letters.append((body[0], int(body[1:]), int(exp) if exp else 1))
    return letters


def root_matrix(kind: str, i: int, j: int, t: int, g: int) -> list[list[int]]:
    """Elementary symplectic root elements V, W, X, Y, Z at parameter t."""
    m = identity(2 * g)
    i0, j0 = i - 1, j - 1
    if kind == "V":
        m[i0][g + i0] += t
    elif kind == "W":
        m[g + i0][i0] += t
    elif kind == "X":
        m[i0][j0] += t
        m[g + j0][g + i0] -= t
    elif kind == "Y":
        m[g + i0][j0] += t
        m[g + j0][i0] += t
    else:
        m[i0][g + j0] += t
        m[j0][g + i0] += t
    return m


def mod2_block_diagonal(m: list[list[int]], g: int) -> bool:
    """Mod 2, in the interleaved basis (a_1, b_1, a_2, b_2, ...), is m 2x2
    block diagonal? Every Gamma element is; a single C_i twist is not."""
    def plane(k: int) -> int:
        return k % g
    n = 2 * g
    return all(m[r][c] % 2 == 0 for r in range(n) for c in range(n)
               if plane(r) != plane(c))


# ---------------------------------------------------------------------------
# The pseudo-Anosov criterion, re-derived with sympy
# ---------------------------------------------------------------------------

class PAOracle:
    """Characteristic polynomial, factors over Z and the PA verdict's
    properties for integer matrices, via sympy. Imported lazily so that the
    timed process holds no sympy state while it measures."""

    def __init__(self) -> None:
        import sympy
        self.sympy = sympy
        self.x = sympy.Symbol("x")

    def charpoly(self, m: list[list[int]]) -> list[int]:
        poly = self.sympy.Matrix(m).charpoly(self.x)
        return [int(c) for c in reversed(poly.all_coeffs())]

    def factors(self, coeffs: list[int]) -> list[tuple[list[int], int]]:
        """Monic irreducible factors over Z with multiplicities."""
        poly = self.sympy.Poly(list(reversed(coeffs)), self.x, domain="ZZ")
        _, pairs = poly.factor_list()
        out = []
        for f, mult in pairs:
            c = [int(a) for a in reversed(f.all_coeffs())]
            if c[-1] < 0:
                c = [-a for a in c]
            out.append((c, mult))
        return out

    def is_cyclotomic(self, coeffs: list[int]) -> bool:
        return bool(self.sympy.Poly(list(reversed(coeffs)), self.x, domain="ZZ").is_cyclotomic)

    def pa_reasons(self, chi: list[int]) -> tuple[set[str], bool]:
        """(failing criteria, irreducible over Z) for a monic reciprocal chi:
        cyclotomic product, polynomial in x^2, not symplectically irreducible,
        and reducible over Z reported alongside any failure."""
        fac = self.factors(chi)
        reasons = set()
        if all(self.is_cyclotomic(f) for f, _ in fac):
            reasons.add("cyclotomic")
        if all(c == 0 for c in chi[1::2]):
            reasons.add("polynomial_in_x2")
        if not _symplectically_irreducible(fac):
            reasons.add("not_symplectically_irreducible")
        irreducible = sum(mult for _, mult in fac) == 1
        if reasons and not irreducible:
            reasons.add("reducible_charpoly")
        return reasons, irreducible


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _reciprocal_up_to_sign(p: list[int]) -> bool:
    rev = list(reversed(p))
    return rev == p or [-c for c in rev] == p


def _symplectically_irreducible(fac: list[tuple[list[int], int]]) -> bool:
    """No split of the factor multiset into two non-empty parts whose
    products are both reciprocal up to sign."""
    ranges = [range(mult + 1) for _, mult in fac]
    for take in itertools.product(*ranges):
        if all(t == 0 for t in take) or all(t == m for t, (_, m) in zip(take, fac)):
            continue
        left, right = [1], [1]
        for t, (f, mult) in zip(take, fac):
            for _ in range(t):
                left = _poly_mul(left, f)
            for _ in range(mult - t):
                right = _poly_mul(right, f)
        if _reciprocal_up_to_sign(left) and _reciprocal_up_to_sign(right):
            return False
    return True


# ---------------------------------------------------------------------------
# Genus 2 modulo 4
# ---------------------------------------------------------------------------

def sp_order_mod_prime_power(g: int, p: int, k: int) -> int:
    """|Sp(2g, Z/p^k)| = p^((k-1)(2g^2+g)) * p^(g^2) * prod_{i<=g} (p^(2i) - 1)."""
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order * p ** ((k - 1) * (2 * g * g + g))


def key_mod4(m: list[list[int]]) -> int:
    """Column-packed key of a 4x4 matrix mod 4: column c is byte c, entry
    (r, c) sits at bits 2r of that byte."""
    return sum((m[r][c] % 4) << (8 * c + 2 * r) for r in range(4) for c in range(4))


def closure_mod4_genus2() -> set[int]:
    """Image of <A_i^+-1, B_i^+-1, C_1^+-2> in Sp(4, Z/4), by BFS under right
    multiplication. An element is keyed by its columns, each packed into one
    byte of four 2-bit entries (key_mod4), so a generator is a column update
    done with byte lookup tables."""
    g, n = 2, 4
    add = [0] * 65536
    for x in range(256):
        for y in range(256):
            add[x << 8 | y] = sum(((((x >> s) & 3) + ((y >> s) & 3)) & 3) << s
                                  for s in (0, 2, 4, 6))
    scale = [[sum(((((x >> s) & 3) * c) & 3) << s for s in (0, 2, 4, 6))
              for x in range(256)] for c in range(4)]
    updates = []
    for kind, index, exps in (("a", 1, (1, -1)), ("a", 2, (1, -1)),
                              ("b", 1, (1, -1)), ("b", 2, (1, -1)),
                              ("c", 1, (2, -2))):
        v, s = _twist_vector(kind, index, g)
        for e in exps:
            unit = [0] * n
            targets = []
            for j in range(n):
                unit[j] = 1
                coef = e * s * _omega(v, unit, g) % 4
                unit[j] = 0
                if coef:
                    targets.append((j, [(k, scale[coef * v[k] % 4]) for k in range(n) if v[k]]))
            updates.append(targets)
    start = key_mod4(identity(n))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for key in frontier:
            cols = [(key >> (8 * c)) & 255 for c in range(n)]
            for targets in updates:
                out = cols[:]
                for j, terms in targets:
                    acc = out[j]
                    for k, table in terms:
                        acc = add[acc << 8 | table[cols[k]]]
                    out[j] = acc
                t = out[0] | out[1] << 8 | out[2] << 16 | out[3] << 24
                if t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return seen
