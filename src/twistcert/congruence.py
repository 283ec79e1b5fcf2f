"""The subgroup generated by the twist matrices A_i^{+-1}, B_i^{+-1},
C_i^{+-2}: root-subgroup matrices, machine verification of the generation
identities, constructive word synthesis, the image mod 4 at any genus g as
per-block lift words and the F_2 span of the relator layer, over keys with
entry (i, c) in bits 2(2g i + c), a byte per row at g = 2, membership (one
sequence at every genus, exact at genus 2) and the genus-2 index.

Generator words evaluate in literal (written) product order, unlike twist
words; every synthesized certificate is independently re-checkable by
multiplying its letters out.

The identity checks hold each matrix as its sparse delta M - I. A root
element is I + N with at most two entries in N, so products (A + B + AB) and
inverses (-J A^T J, a signed permutation of the nonzeros) of such deltas stay
small, and no dense matrix is formed unless an identity fails.
"""
from __future__ import annotations

import errno
import operator
import os
import stat
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

from .matrices import IntMatrix, SpMatrix, symplectic_form
from .words import (MAX_WORD_LETTERS, CurveLetter, generator_matrix, token_pattern,
                    transvection_product)

ROOT_KINDS = ("V", "W", "X", "Y", "Z")

_CACHE_MAGIC = b"TWCL"
_CACHE_VERSION = 2


def sp_group_order_mod(genus: int, modulus: int) -> int:
    """|Sp(2g, Z/2^k Z)| = |Sp(2g, F_2)| * 2^((k-1) * g(2g+1))."""
    if modulus & (modulus - 1) or modulus < 2:
        raise ValueError("modulus must be a power of two >= 2")
    k = modulus.bit_length() - 1
    order_f2 = 2 ** (genus * genus)
    for i in range(1, genus + 1):
        order_f2 *= 4 ** i - 1
    return order_f2 * 2 ** ((k - 1) * genus * (2 * genus + 1))


# ---------------------------------------------------------------------------
# Generator and root matrices
# ---------------------------------------------------------------------------

def twist_gen(kind: str, index: int, genus: int) -> SpMatrix:
    """A_i, B_i or C_i as a symplectic matrix."""
    return generator_matrix(CurveLetter(kind.lower(), index), genus)


@dataclass(frozen=True)
class RootSpec:
    """One-parameter root subgroup element: kind, indices, exponent t."""

    kind: str
    i: int
    j: int = 0
    t: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ROOT_KINDS:
            raise ValueError(f"unknown root kind {self.kind!r}")
        if self.kind in ("V", "W") and self.j != 0:
            raise ValueError(f"{self.kind} takes a single index")

    def validate(self, genus: int) -> None:
        if self.kind in ("V", "W"):
            if not 1 <= self.i <= genus:
                raise ValueError(f"{self.kind} index {self.i} out of range")
        elif self.kind == "X":
            if not (1 <= self.i <= genus and 1 <= self.j <= genus and self.i != self.j):
                raise ValueError(f"X indices ({self.i},{self.j}) out of range")
        else:
            if not 1 <= self.i < self.j <= genus:
                raise ValueError(f"{self.kind} indices ({self.i},{self.j}) must satisfy j < k")

    def __str__(self) -> str:
        indices = str(self.i) if self.kind in ("V", "W") else f"{self.i},{self.j}"
        return f"{self.kind}{indices}^{self.t}"


def _root_entries(spec: RootSpec, genus: int) -> dict[tuple[int, int], int]:
    """The at most two off-identity entries of the displayed root element,
    as {(row, col): value} with 1-based indices."""
    spec.validate(genus)
    g, t = genus, spec.t
    i, j = spec.i, spec.j
    if spec.kind == "V":
        return {(i, g + i): t}
    if spec.kind == "W":
        return {(g + i, i): t}
    if spec.kind == "X":
        return {(i, j): t, (g + j, g + i): -t}
    if spec.kind == "Y":
        return {(g + i, j): t, (g + j, i): t}
    return {(i, g + j): t, (j, g + i): t}


def root_matrix(spec: RootSpec, genus: int) -> SpMatrix:
    """The displayed one-parameter subgroup matrix at exponent t."""
    return SpMatrix(IntMatrix.from_unit_entries(2 * genus, _root_entries(spec, genus)))


def rotation_matrix(i: int, genus: int) -> SpMatrix:
    """A_i B_i A_i: rotation by a quarter turn in the (e_i, e_{g+i}) plane."""
    return eval_gen_word(parse_gen_word(f"A{i} B{i} A{i}", genus))


def d_matrix(i: int, genus: int) -> SpMatrix:
    """D_i, the literal product of its generator word `_d_word`."""
    if not 1 <= i <= genus - 1:
        raise ValueError(f"index {i} out of range")
    return eval_gen_word(_d_word(i, genus))


def d_prime_matrix(i: int, genus: int) -> SpMatrix:
    """D'_i, the literal product of its generator word `_d_prime_word`."""
    if not 2 <= i <= genus:
        raise ValueError(f"index {i} out of range")
    return eval_gen_word(_d_prime_word(i, genus))


# ---------------------------------------------------------------------------
# Sparse deltas
# ---------------------------------------------------------------------------

# A delta is M - I for a matrix M, held as {row: {col: value}} over its
# nonzero entries with 0-based indices. Root elements have at most two, and
# their products and inverses stay about as sparse.
Delta = dict[int, dict[int, int]]


def _delta(m: SpMatrix) -> Delta:
    """M - I of a certified matrix."""
    out: Delta = {}
    for r, row in enumerate(m.m.rows):
        entries = {c: x - (r == c) for c, x in enumerate(row) if x != (r == c)}
        if entries:
            out[r] = entries
    return out


def _root_delta(spec: RootSpec, genus: int) -> Delta:
    """The root element's delta, read from its at most two entries."""
    out: Delta = {}
    for (r, c), t in _root_entries(spec, genus).items():
        out.setdefault(r - 1, {})[c - 1] = t
    return out


def _delta_mul(a: Delta, b: Delta) -> Delta:
    """(I + A)(I + B) - I = A + B + AB."""
    out = {r: dict(row) for r, row in a.items()}
    for r, row in b.items():
        acc = out.setdefault(r, {})
        for c, y in row.items():
            acc[c] = acc.get(c, 0) + y
    for r, row in a.items():
        acc = out[r]
        for k, x in row.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + x * y
    return {r: kept for r, row in out.items() if (kept := {c: x for c, x in row.items() if x})}


def _delta_inverse(a: Delta, genus: int) -> Delta:
    """(I + A)^-1 - I = -J A^T J = J A^T J^-1 for I + A symplectic: entry
    (r, c) moves to (c', r'), where x' swaps the halves (x +- g), and changes
    sign when r and c lie in different halves."""
    n = 2 * genus
    out: Delta = {}
    for r, row in a.items():
        for c, x in row.items():
            flip = (r < genus) != (c < genus)
            out.setdefault((c + genus) % n, {})[(r + genus) % n] = -x if flip else x
    return out


def _delta_diff(lhs: Delta, rhs: Delta, dim: int) -> str:
    """The dense difference of the two matrices, as a failure detail."""
    rows = [[0] * dim for _ in range(dim)]
    for sign, delta in ((1, lhs), (-1, rhs)):
        for r, row in delta.items():
            for c, x in row.items():
                rows[r][c] += sign * x
    return f"difference rows {tuple(map(tuple, rows))}"


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_identities(genus: int) -> IdentityReport:
    """Machine-check every matrix identity behind the generation argument.

    Each side of an identity is held as a sparse delta M - I: root elements
    from their at most two entries, products as A + B + AB, inverses as
    -J A^T J. D_i, D'_i, theta and the rotations are evaluated as certified
    matrices once and converted. An identity holds when the two deltas are
    equal; a failing one records the dense difference of its sides.

    The chain-relation identity is evaluated in both multiplication orders and
    under both readings of the c-twist symbol (the displayed matrix and its
    inverse); the detail string records which combination holds.
    """
    if genus < 2:
        raise ValueError("genus must be >= 2")
    g = genus
    checks: list[IdentityCheck] = []

    def check(name: str, lhs: Delta, rhs: Delta) -> None:
        ok = lhs == rhs
        checks.append(IdentityCheck(name, ok, "" if ok else _delta_diff(lhs, rhs, 2 * g)))

    def root(kind: str, i: int, j: int = 0, t: int = 1) -> Delta:
        return _root_delta(RootSpec(kind, i, j, t), g)

    def inv(a: Delta) -> Delta:
        return _delta_inverse(a, g)

    def commutator(p: Delta, q: Delta) -> Delta:
        return _delta_mul(_delta_mul(_delta_mul(p, q), inv(p)), inv(q))

    for i in range(1, g + 1):
        check(f"v_equals_a_twist[i={i}]", root("V", i), _delta(twist_gen("A", i, g)))
        check(f"w_equals_b_twist_inverse[i={i}]", root("W", i),
              _delta(twist_gen("B", i, g).inverse()))
    d = {i: _delta(d_matrix(i, g)) for i in range(1, g)}  # each D_i built once per call
    d_inv = {i: inv(x) for i, x in d.items()}
    for i in range(1, g):
        check(f"x_up_base[i={i}]", d[i], root("X", i, i + 1, 2))
    for i in range(2, g + 1):
        check(f"x_down_base[i={i}]", _delta(d_prime_matrix(i, g)), root("X", i, i - 1, -2))
    for j in range(1, g):
        for ell in range(1, g - j):
            lhs = commutator(root("X", j, j + ell, 2 ** ell), root("X", j + ell, j + ell + 1, 2))
            check(f"x_up_step[j={j},l={ell}]", lhs, root("X", j, j + ell + 1, 2 ** (ell + 1)))
    for j in range(2, g + 1):
        for ell in range(1, j - 1):
            lhs = commutator(root("X", j, j - ell, 2 ** ell), root("X", j - ell, j - ell - 1, 2))
            check(f"x_down_step[j={j},l={ell}]", lhs, root("X", j, j - ell - 1, 2 ** (ell + 1)))
    for k in range(2, g + 1):
        lhs = _delta_mul(commutator(root("V", k), d_inv[k - 1]), root("V", k - 1, t=4))
        check(f"z_base[k={k}]", lhs, root("Z", k - 1, k, 2))
    for k in range(3, g + 1):
        for ell in range(2, k):
            lhs = commutator(root("Z", k - ell + 1, k, 2 ** (ell - 1)), d_inv[k - ell])
            check(f"z_step[k={k},l={ell}]", lhs, root("Z", k - ell, k, 2 ** ell))

    theta = _delta(eval_gen_word(_theta_word(g)))
    form = _delta(SpMatrix(symplectic_form(g)))
    check("rotations_give_form_matrix", theta, form)
    theta_inv = inv(theta)
    for jj in range(1, g + 1):
        for kk in range(jj + 1, g + 1):
            lhs = _delta_mul(_delta_mul(theta, inv(root("Z", jj, kk))), theta_inv)
            check(f"y_from_z_conjugation[j={jj},k={kk}]", lhs, root("Y", jj, kk))
    for i in range(1, g + 1):
        # e_i -> -e_{g+i}, e_{g+i} -> e_i: the two diagonal 1s cleared
        a, b = i - 1, g + i - 1
        check(f"quarter_turn[i={i}]", _delta(rotation_matrix(i, g)),
              {a: {a: -1, b: 1}, b: {a: -1, b: -1}})

    for i in range(1, g):
        checks.append(_chain_relation_check(i, g))

    return IdentityReport(tuple(checks))


def _chain_relation_check(i: int, g: int) -> IdentityCheck:
    """The identity expressing the square c-twist through the generators:
    a_{i+1}^2 (a_i^-1 b_i^-1 c_i^-2)^2 a_i^-1 b_i^-1 = c_i^2.

    As a matrix identity this holds, in both multiplication orders, when the
    c-twist symbol is read as the inverse of the displayed matrix; with the
    displayed matrix itself it fails (the displayed c matrix is the
    opposite-handed transvection relative to the displayed a and b matrices,
    as the braid relation test shows).
    """
    results = {}
    for reading, c in (("displayed", 2), ("inverse", -2)):  # c_i^2 read as C_i^c
        block = (("A", i, -1), ("B", i, -1), ("C", i, -c))
        written = (("A", i + 1, 1),) * 2 + block * 2 + block[:2]
        c2 = eval_gen_word(GenWord(g, (("C", i, c),)))
        results[f"written,{reading}"] = eval_gen_word(GenWord(g, written)) == c2
        results[f"reverse,{reading}"] = eval_gen_word(GenWord(g, written[::-1])) == c2
    passed = any(results.values())
    holding = sorted(key for key, ok in results.items() if ok)
    detail = f"holds for (order, c-reading) in {holding}" if holding else "holds in no reading"
    return IdentityCheck(f"chain_relation[i={i}]", passed, detail)


# ---------------------------------------------------------------------------
# Generator words and synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenWord:
    """Word over A_i^{+-1}, B_i^{+-1}, C_i^{+-2}; evaluates in literal order."""

    genus: int
    letters: tuple[tuple[str, int, int], ...]  # (kind, index, exponent)

    def __post_init__(self) -> None:
        for kind, index, exponent in self.letters:
            if kind not in ("A", "B", "C"):
                raise ValueError(f"unknown generator kind {kind!r}")
            power, top = (2, self.genus - 1) if kind == "C" else (1, self.genus)
            if exponent not in (power, -power):
                raise ValueError(f"{kind}-letters carry exponent +-{power}, got {exponent}")
            if not 1 <= index <= top:
                raise ValueError(f"{kind}{index} out of range")

    @classmethod
    def _exact(cls, genus: int, letters: tuple[tuple[str, int, int], ...]) -> GenWord:
        # letters already validated, as those of GenWord values are: skip the check
        word = object.__new__(cls)
        word.__dict__.update(genus=genus, letters=letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: GenWord) -> GenWord:
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        _check_length(len(self) + len(other))
        return GenWord._exact(self.genus, self.letters + other.letters)

    def inverse(self) -> GenWord:
        return GenWord._exact(self.genus, tuple(
            (kind, index, -exponent) for kind, index, exponent in reversed(self.letters)
        ))

    def repeat(self, times: int) -> GenWord:
        if times < 0:
            return self.inverse().repeat(-times)
        _check_length(len(self) * times)
        return GenWord._exact(self.genus, self.letters * times)


def _check_length(letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise ValueError(f"word of {letters} letters exceeds the bound {MAX_WORD_LETTERS}")


def eval_gen_word(word: GenWord) -> SpMatrix:
    """Literal product order: eval(x_1 ... x_n) = M(x_1) ... M(x_n)."""
    return transvection_product(word.genus, (
        (_curve(kind, index), exponent) for kind, index, exponent in word.letters))


@lru_cache(maxsize=None)
def _curve(kind: str, index: int) -> CurveLetter:
    return CurveLetter(kind.lower(), index)


def format_gen_word(word: GenWord) -> str:
    parts = []
    for kind, index, exponent in word.letters:
        parts.append(f"{kind}{index}" if exponent == 1 else f"{kind}{index}^{exponent}")
    return " ".join(parts)


def parse_gen_word(text: str, genus: int) -> GenWord:
    letters = _gen_letters(text)
    _check_length(len(letters))
    return GenWord(genus, letters)


_GEN_TOKEN_RE = token_pattern("ABC")


def _gen_letters(text: str) -> tuple[tuple[str, int, int], ...]:
    letters = []
    for token in text.split():
        m = _GEN_TOKEN_RE.fullmatch(token)
        if m is None:
            raise ValueError(f"malformed generator token {token!r}")
        kind, index_text, exp_text = m.groups()
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            letters.append((kind, int(index_text), int(exp_text or 1)))
        except ValueError:
            raise ValueError(
                f"integer too long in a {len(token)}-character generator token") from None
    return tuple(letters)


def _d_word(i: int, genus: int) -> GenWord:
    """D_i := A_i^2 B_{i+1}^2 (A_{i+1} B_{i+1} A_{i+1}) C_i^2 (A_{i+1} B_{i+1} A_{i+1})^-1."""
    # the formula words are valid at every index their callers pass, so they
    # are built unchecked and synthesis checks no letter of them
    j = i + 1
    return GenWord._exact(genus, _gen_letters(
        f"A{i} A{i} B{j} B{j} A{j} B{j} A{j} C{i}^2 A{j}^-1 B{j}^-1 A{j}^-1"))


def _d_prime_word(i: int, genus: int) -> GenWord:
    """D'_i := (A_h B_h A_h) C_h^-2 (A_h B_h A_h)^-1 B_h^-2 A_i^-2, with h = i - 1."""
    h = i - 1
    return GenWord._exact(genus, _gen_letters(
        f"A{h} B{h} A{h} C{h}^-2 A{h}^-1 B{h}^-1 A{h}^-1 B{h}^-1 B{h}^-1 A{i}^-1 A{i}^-1"))


def _commutator_word(p: GenWord, q: GenWord) -> GenWord:
    return p * q * p.inverse() * q.inverse()


def _x_power_word(j: int, k: int, genus: int) -> GenWord:
    """Word for X_{j,k}^{2^|k-j|}, by the commutator induction."""
    g = genus
    if j < k:
        word = _d_word(j, g)                      # X_{j,j+1}^2
        for ell in range(1, k - j):
            word = _commutator_word(word, _d_word(j + ell, g))
    else:
        word = _d_prime_word(j, g).inverse()      # X_{j,j-1}^2
        for ell in range(1, j - k):
            word = _commutator_word(word, _d_prime_word(j - ell, g).inverse())
    return word


def _z_power_word(j: int, k: int, genus: int) -> GenWord:
    """Word for Z_{j,k}^{2^(k-j)}, from the base case and the commutator
    induction."""
    g = genus
    word = _commutator_word(GenWord(g, (("A", k, 1),)), _d_word(k - 1, g).inverse())
    word = word * GenWord(g, (("A", k - 1, 1),)).repeat(4)   # Z_{k-1,k}^2
    for ell in range(2, k - j + 1):
        word = _commutator_word(word, _d_word(k - ell, g).inverse())
    return word


def _theta_word(genus: int) -> GenWord:
    """theta := (A_1 B_1 A_1) ... (A_g B_g A_g), whose product is the form matrix J."""
    return GenWord._exact(genus, _gen_letters(
        " ".join(f"A{i} B{i} A{i}" for i in range(1, genus + 1))))


def synthesize_root(spec: RootSpec, genus: int) -> GenWord:
    """Generator word whose literal product equals root_matrix(spec).

    Supports t a nonzero multiple of 2^(g-1) (and for V, W any nonzero t);
    larger multiples are produced by repetition, negatives by inversion. A
    word longer than MAX_WORD_LETTERS raises ValueError before it is built.
    """
    spec.validate(genus)
    g, t = genus, spec.t
    if t == 0:
        raise ValueError("t must be nonzero")
    base = 2 ** (g - 1)
    if spec.kind == "V":
        word = GenWord(g, (("A", spec.i, 1 if t > 0 else -1),)).repeat(abs(t))
    elif spec.kind == "W":
        word = GenWord(g, (("B", spec.i, -1 if t > 0 else 1),)).repeat(abs(t))
    else:
        if t % base != 0:
            raise ValueError(f"unsupported exponent t={t}; need a multiple of {base}")
        reps = t // base
        if spec.kind == "X":
            step = 2 ** abs(spec.j - spec.i)
            word = _x_power_word(spec.i, spec.j, g).repeat(base // step * reps)
        elif spec.kind == "Z":
            step = 2 ** (spec.j - spec.i)
            word = _z_power_word(spec.i, spec.j, g).repeat(base // step * reps)
        else:  # Y via conjugation of the inverse Z word
            theta = _theta_word(g)
            z_word = synthesize_root(RootSpec("Z", spec.i, spec.j, -t), g)
            word = theta * z_word * theta.inverse()
    return word


# ---------------------------------------------------------------------------
# Finite-quotient image (modulus 4)
# ---------------------------------------------------------------------------

def _closure_letters(genus: int) -> list[tuple[str, int, int]]:
    return ([(kind, i, e) for i in range(1, genus + 1) for kind in "AB" for e in (1, -1)]
            + [("C", i, e) for i in range(1, genus) for e in (2, -2)])


@lru_cache(maxsize=None)
def closure_generators(genus: int = 2) -> tuple[SpMatrix, ...]:
    """The 4g + 2(g-1) group generators with inverses: A_i^{+-1}, B_i^{+-1},
    C_i^{+-2}. Built once per genus; SpMatrix is immutable, so callers share
    them."""
    return tuple(eval_gen_word(GenWord(genus, (letter,))) for letter in _closure_letters(genus))


def _mod4_key(rows: tuple[tuple[int, ...], ...]) -> int:
    """The packed key of a 2g x 2g integer matrix mod 4: entry (i, c) in bits
    2(2g i + c) and 2(2g i + c) + 1, so row i fills 4g bits, one byte at g = 2.
    The low bit of every entry is its reduction mod 2, so `key & low` is the
    key of the matrix mod 2 in the same layout, which F_2 matrices below use."""
    key = 0
    for row in reversed(rows):
        for x in reversed(row):
            key = key << 2 | x & 3          # x & 3 is x mod 4, for x < 0 too
    return key


@lru_cache(maxsize=None)
def _masks(genus: int) -> tuple[int, int]:
    """The low bit of every entry, and the identity (mod 4 and mod 2 alike),
    as packed keys at genus g."""
    n = 2 * genus
    return (4 ** (n * n) - 1) // 3, sum(1 << 2 * (n + 1) * i for i in range(n))


def _f2_mul(a: int, b: int, genus: int) -> int:
    """a b over F_2: row i of the product is the XOR of the rows c of b with
    a[i][c] = 1."""
    width = 4 * genus                               # bits per row
    row = (1 << width) - 1
    out = 0
    while a:
        low = a & -a
        a ^= low
        i, c2 = divmod(low.bit_length() - 1, width)     # c2 = 2c
        out ^= ((b >> (2 * genus * c2)) & row) << (width * i)
    return out


def _sift(basis: list[int] | tuple[int, ...], x: int) -> int:
    """x reduced by a basis with distinct leading bits, in decreasing order;
    0 exactly when x lies in the span."""
    for b in basis:
        x = min(x, x ^ b)
    return x


@lru_cache(maxsize=None)
def _block_lifts(genus: int) -> tuple[int, int, tuple[tuple[int, dict], ...]]:
    """The low bit of every entry, those off every block, and per block t
    (rows and columns t and g + t) the low bits on it and a map from each of
    its six classes mod 2, the words "", A, B, AB, BA, ABA in A_t+1, B_t+1, to
    (the lift mod 4, the reversed word mod 2: its inverse, as A and B are
    involutions mod 2). A, B must be the identity off the block mod 4."""
    by_letter = dict(zip(_closure_letters(genus), closure_generators(genus)))
    n, (low, identity) = 2 * genus, _masks(genus)
    off_blocks, blocks = low, []
    for t in range(genus):
        on_block = sum(3 << 2 * (n * r + c) for r in (t, genus + t) for c in (t, genus + t))
        gens = {kind: by_letter[kind, t + 1, 1].m for kind in "AB"}
        keys = {w: _mod4_key(reduce(operator.matmul, map(gens.get, w)).rows) if w else identity
                for w in ("", "A", "B", "AB", "BA", "ABA")}
        mask = on_block & low
        lifts = {key & mask: (key & on_block, keys[w[::-1]] & mask) for w, key in keys.items()}
        if len(lifts) != 6 or (keys["A"] ^ identity | keys["B"] ^ identity) & ~on_block:
            raise ArithmeticError(f"A{t + 1} and B{t + 1} do not give SL_2(F_2) on their block")
        off_blocks ^= mask
        blocks.append((mask, lifts))
    return low, off_blocks, tuple(blocks)


@dataclass(frozen=True)
class ClosureTable:
    """The image of the subgroup in Sp(2g, Z/4) as a layer certificate: an
    extension of H_2 = SL_2(F_2)^g, its reduction mod 2, lifted block by block
    (`_block_lifts`), by N, its part in Gamma(2)/Gamma(4). `basis` is an F_2
    basis of the layer vectors X of N, whose elements are I + 2X mod 4, with
    entry (i, c) of X in bit 2(2g i + c)."""

    genus: int
    basis: tuple[int, ...]
    modulus = 4

    @property
    def size(self) -> int:
        return 6 ** self.genus * 2 ** len(self.basis)

    @property
    def _export_bytes(self) -> bytes:
        """The cache file: the `<4sIIII` header (magic, version, genus,
        modulus, rank), then the basis vectors in order, each as g^2
        little-endian bytes (its 4g^2 entries lie in the even bits of 8g^2)."""
        header = struct.pack("<4sIIII", _CACHE_MAGIC, _CACHE_VERSION, self.genus, self.modulus,
                             len(self.basis))
        return header + b"".join(x.to_bytes(self.genus ** 2, "little") for x in self.basis)

    def refusal(self, m: SpMatrix) -> str | None:
        """The stage that refuses m, named as a NotInGamma verdict's detail,
        or None when m mod 4 lies in the image. The mod-2 stage: m mod 2 must
        be zero off the blocks, and each block a class of SL_2(F_2). The layer
        stage: the layer vector of m r^-1, for the lift r of that class, must
        sift to zero in the basis."""
        if m.genus != self.genus:
            raise ValueError("genus mismatch")
        low, off_blocks, blocks = _block_lifts(self.genus)
        key = _mod4_key(m.m.rows)
        h = key & low
        found = [lifts.get(h & mask) for mask, lifts in blocks]
        if h & off_blocks or None in found:
            return "mod-2 block obstruction"
        rep, h_inv = map(sum, zip(*found))
        if _sift(self.basis, _f2_mul(((key ^ rep) >> 1) & low, h_inv, self.genus)):
            return "reduction outside the quotient image"
        return None


@lru_cache(maxsize=None)
def _closure_certificate(genus: int) -> ClosureTable:
    """The image mod 4 at genus g, built once per process and genus.

    H_2 = S_3^g has the relators R: a_i^2, b_i^2, (a_i b_i)^3, [x_i, y_j]. C_i^2
    is I mod 2, so the image modulo the normal closure of R and the C_i^2 is
    H_2, and N is that closure. Letters on different blocks commute over Z, so
    the [x_i, y_j] add nothing. N is abelian, as [Gamma(2), Gamma(2)] lies in
    Gamma(4), so conjugation acts on it through H_2, where A_i, B_i are
    involutions. So the layer of N is the F_2 span of the layer vectors of
    A_i^2, B_i^2, (A_i B_i)^3, C_i^2, closed under X -> h X h for h = A_i, B_i
    mod 2. It stops at rank g(2g + 1), the dimension of sp(2g, F_2)."""
    _block_lifts(genus)                 # ArithmeticError unless H_2 is SL_2(F_2)^g
    low, identity = _masks(genus)
    by_letter = dict(zip(_closure_letters(genus), closure_generators(genus)))
    relators = [(f"C{i}^2", by_letter["C", i, 2].m) for i in range(1, genus)]
    conjugators = []
    for i in range(1, genus + 1):
        a, b = by_letter["A", i, 1].m, by_letter["B", i, 1].m
        ab = a @ b
        relators += [(f"A{i}^2", a @ a), (f"B{i}^2", b @ b), (f"(A{i}B{i})^3", ab @ ab @ ab)]
        conjugators += [_mod4_key(h.rows) & low for h in (a, b)]
    keys = {name: _mod4_key(m.rows) for name, m in relators}
    if bad := [name for name, key in keys.items() if key & low != identity]:
        raise ArithmeticError(f"relator {bad[0]} is not I mod 2")
    pending = [key >> 1 & low for key in keys.values()]
    basis: list[int] = []
    while pending and len(basis) < genus * (2 * genus + 1):
        x = _sift(basis, pending.pop())
        if x:
            basis.append(x)
            basis.sort(reverse=True)
            pending += [_f2_mul(_f2_mul(h, x, genus), h, genus) for h in conjugators]
    table = ClosureTable(genus, tuple(basis))
    if sp_group_order_mod(genus, 4) % table.size:
        raise ArithmeticError(f"image size {table.size} does not divide |Sp({2 * genus}, Z/4)|")
    return table


def quotient_closure(cache_path: str | None = None, genus: int = 2) -> ClosureTable:
    """The image of the subgroup in Sp(2g, Z/4), as the layer certificate
    built once per process and genus from closure_generators(genus).

    cache_path names a file the certificate is exported to. The file is
    left as it was when its bytes equal the export bytes, and is otherwise
    written; nothing read from it is used. OSError says which path could not
    be used. This is the one function that touches the cache file.
    """
    table = _closure_certificate(genus)
    if cache_path:
        try:
            _store_closure_cache(cache_path, table._export_bytes)
        except OSError as exc:
            raise OSError(f"cannot use cache {cache_path}: {exc.strerror or exc}") from exc
    return table


def _store_closure_cache(path: str, data: bytes) -> None:
    """Leave the file as it was if it holds exactly data; else write data to
    a temporary file and rename it over the path. A path that is there but is
    not a regular file (a directory, a device, a FIFO) raises OSError before
    anything opens or replaces it."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        pass
    else:
        if not stat.S_ISREG(mode):
            raise OSError(os.strerror(errno.EISDIR) if stat.S_ISDIR(mode) else "not a regular file")
        with open(path, "rb") as fh:
            if fh.read(len(data) + 1) == data:
                return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# Membership and index
# ---------------------------------------------------------------------------

IN_GAMMA = "InGamma"
NOT_IN_GAMMA = "NotInGamma"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: str
    witness: GenWord | None = None
    detail: str = ""


def _match_root_pattern(m: SpMatrix) -> RootSpec | None:
    """Recognize m as a one-parameter root element; None if no family fits.
    The first nonzero (r, c) of M - I fixes the one candidate: its block gives
    the kind, V and W on the block diagonal, and its indices mod g the spec.
    The candidate is rebuilt by `_root_delta` and must give M - I exactly."""
    g, delta = m.genus, _delta(m)
    if not delta:
        return None
    r = min(delta)
    c = min(delta[r])
    i, j = r % g + 1, c % g + 1
    kinds = ("X", "VZ", "WY", "")[2 * (r >= g) + (c >= g)]
    kind = kinds[:1] if i == j else kinds[-1:]
    try:
        spec = RootSpec(kind, i, 0 if kind in ("V", "W") else j, delta[r][c])
        return spec if _root_delta(spec, g) == delta else None
    except ValueError:                  # no kind, or indices out of range
        return None


def membership(m: SpMatrix, witness: GenWord | None = None) -> MembershipVerdict:
    """Decide membership in the generated subgroup, at the genus g of m, by
    one sequence at every genus:

    1. a supplied witness is multiplied out: InGamma if it gives m, else
       ValueError;
    2. the image mod 4 refuses m (`ClosureTable.refusal`): NotInGamma, with
       the refusing stage as the detail;
    3. at g = 2 the subgroup contains Gamma(4), so the image mod 4 is exact:
       InGamma;
    4. the identity, a single generator or its inverse, and a root element
       that `synthesize_root` writes as a word (V and W at any exponent, X,
       Y and Z at a multiple of 2^(g-1)) are InGamma with that word;
    5. otherwise Unknown.

    The certificate is built on the first call at each genus and kept for
    the process; from genus 16 on, that build is most of the first call's
    time. The cache file is not read or written.
    """
    g = m.genus
    if witness is not None:
        if witness.genus != g:
            raise ValueError("witness genus mismatch")
        if eval_gen_word(witness) == m:
            return MembershipVerdict(IN_GAMMA, witness, "verified supplied witness")
        raise ValueError("supplied witness does not evaluate to the matrix")
    if refused := _closure_certificate(g).refusal(m):
        return MembershipVerdict(NOT_IN_GAMMA, None, refused)
    if g == 2:                          # Gamma contains Gamma(4): the image mod 4 is exact
        return MembershipVerdict(IN_GAMMA, None, "reduction lies in the quotient image")
    if m.m.is_identity():
        return MembershipVerdict(IN_GAMMA, GenWord(g, ()), "identity")
    for letter, gen in zip(_closure_letters(g), closure_generators(g)):
        if m == gen:
            detail = "generator" if letter[2] > 0 else "generator inverse"
            return MembershipVerdict(IN_GAMMA, GenWord(g, (letter,)), detail)
    spec = _match_root_pattern(m)
    if spec is not None and (spec.kind in ("V", "W") or spec.t % 2 ** (g - 1) == 0):
        word = synthesize_root(spec, g)
        if eval_gen_word(word) != m:
            raise ArithmeticError(f"synthesized word for {spec} does not evaluate to the matrix")
        return MembershipVerdict(IN_GAMMA, word, f"synthesized root word for {spec}")
    return MembershipVerdict(UNKNOWN, None, "no obstruction found and no witness available")


def gamma_index() -> int:
    """[Sp(4,Z) : subgroup] = |Sp(4, Z/4)| / |image|, exact because the
    subgroup contains the level-4 principal congruence subgroup. The cache
    file is not read or written."""
    return sp_group_order_mod(2, 4) // _closure_certificate(2).size
