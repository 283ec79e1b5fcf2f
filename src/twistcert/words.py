"""Dehn-twist words over the curve alphabet {a_i, b_j, c_k, d_l}, their
symplectic evaluation, and the block grammar of certifiable words.

A word is written left to right in application order; its homology matrix is
therefore the product of the letter matrices in reverse written order. This
convention is pinned by an anchor test reproducing a known 4x4 matrix exactly
(the forward product yields a different matrix).

Every letter matrix is a rank-1 transvection I + u w^T with w^T u = 0, so a
product is built column by column: a letter rebuilds only the one or two
columns in supp(w), and a run of one letter is applied once, as one power.
Twist words (eval_word) and generator words share this one kernel.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable

from .matrices import IntMatrix, SpMatrix

KINDS = ("a", "b", "c", "d")

# Longest twist or generator word; synthesized words grow linearly in the exponent
MAX_WORD_LETTERS = 2 ** 16


@dataclass(frozen=True)
class CurveLetter:
    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("curve index must be >= 1")

    def max_index(self, genus: int) -> int:
        return genus if self.kind in ("a", "b") else genus - 1

    def valid_for(self, genus: int) -> bool:
        return 1 <= self.index <= self.max_index(genus)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class TwistWord:
    """Sequence of (letter, nonzero exponent) pairs over a fixed genus."""

    genus: int
    letters: tuple[tuple[CurveLetter, int], ...]

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("genus must be >= 2")
        for letter, exponent in self.letters:
            if exponent == 0:
                raise ValueError("zero exponents must not be stored")
            if not letter.valid_for(self.genus):
                raise ValueError(f"letter {letter} out of range for genus {self.genus}")

    def __len__(self) -> int:
        return len(self.letters)


class WordSyntaxError(ValueError):
    """Parse failure; carries the character offset of the offending token."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset


def token_pattern(kinds: str, indices: int = 1) -> re.Pattern[str]:
    """The twist-token rule, for full matches: a letter of `kinds`, then
    `indices` comma-separated indices and an optional ^ exponent, all in ASCII
    digits, the exponent optionally negative. Twist words, generator words
    and root specs follow it."""
    return re.compile(f"([{kinds}])" + ",".join(["([0-9]+)"] * indices) + r"(?:\^(-?[0-9]+))?")


_TOKEN_RE = token_pattern("abcd")


def parse_word(text: str, genus: int) -> TwistWord:
    """Parse whitespace-separated tokens like `d1^-2 c1^-2 a1`.

    A token is kind letter + decimal index + optional ^ signed exponent
    (default 1); zero exponents are dropped. A token past the
    MAX_WORD_LETTERS-th is refused at its offset, before the word is built.
    """
    letters: list[tuple[CurveLetter, int]] = []
    for number, match in enumerate(re.finditer(r"\S+", text)):
        token = match.group(0)
        offset = match.start()
        if number == MAX_WORD_LETTERS:
            raise WordSyntaxError(offset, f"word exceeds the bound of {MAX_WORD_LETTERS} letters")
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise WordSyntaxError(offset, f"malformed token {token!r}")
        kind, index_text, exp_text = m.groups()
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            index, exponent = int(index_text), int(exp_text or 1)
        except ValueError:
            raise WordSyntaxError(
                offset, f"integer too long in a {len(token)}-character token") from None
        if index < 1:
            raise WordSyntaxError(offset, f"curve index must be >= 1 in {token!r}")
        letter = CurveLetter(kind, index)
        if not letter.valid_for(genus):
            raise WordSyntaxError(
                offset,
                f"{letter} out of range for genus {genus} "
                f"(max index {letter.max_index(genus)})",
            )
        if exponent == 0:
            continue
        letters.append((letter, exponent))
    return TwistWord(genus, tuple(letters))


def format_word(word: TwistWord) -> str:
    """Canonical text form; exponent suffix omitted when 1."""
    parts = []
    for letter, exponent in word.letters:
        parts.append(str(letter) if exponent == 1 else f"{letter}^{exponent}")
    return " ".join(parts)


Sparse = tuple[tuple[int, int], ...]  # (0-based position, coefficient) pairs


@lru_cache(maxsize=None)
def transvection(letter: CurveLetter, genus: int) -> tuple[Sparse, Sparse]:
    """(u, w) with letter matrix I + u w^T and w^T u = 0, so its e-th power is
    I + e u w^T. Basis ([a_1],...,[a_g],[b_1],...,[b_g]); u = w = () for the
    separating curves d_l, whose twists act trivially (Torelli)."""
    if not letter.valid_for(genus):
        raise ValueError(f"letter {letter} out of range for genus {genus}")
    i = letter.index - 1
    if letter.kind == "a":
        return ((i, 1),), ((genus + i, 1),)
    if letter.kind == "b":
        return ((genus + i, 1),), ((i, -1),)
    if letter.kind == "c":
        return ((i, 1), (i + 1, -1)), ((genus + i, -1), (genus + i + 1, 1))
    return (), ()


def transvection_product(genus: int, letters: Iterable[tuple[CurveLetter, int]]) -> SpMatrix:
    """M(x_1)^e_1 ... M(x_k)^e_k for the (x, e) pairs in the given order,
    certified symplectic once.

    The product is kept as columns. Right-multiplying M by I + e u w^T adds
    e (M u) w^T, so only the columns in supp(w) change, each by a multiple of
    M u. Runs of one letter merge first: w^T u = 0 makes powers add, and a
    run whose exponents total zero is skipped."""
    n = 2 * genus
    cols = [[0] * n for _ in range(n)]
    for j, col in enumerate(cols):
        col[j] = 1
    for letter, run in groupby(letters, key=itemgetter(0)):
        e = sum(exponent for _, exponent in run)
        u, w = transvection(letter, genus)
        if not (e and u):                   # a zero total, or a d letter
            continue
        if len(u) == 1:                     # a and b letters
            ((k, a),) = u
            mu, e = cols[k], e * a
        else:                               # c letters
            (k, a), (l, b) = u
            mu = [a * x + b * y for x, y in zip(cols[k], cols[l])]
        for j, c in w:
            s = e * c
            cols[j] = [x + s * y for x, y in zip(cols[j], mu)]
    return SpMatrix(IntMatrix._exact(tuple(zip(*cols))))


@lru_cache(maxsize=None)
def generator_matrix(letter: CurveLetter, genus: int) -> SpMatrix:
    """Homology action of the left Dehn twist along the letter's curve."""
    return transvection_product(genus, ((letter, 1),))


def eval_word(word: TwistWord) -> SpMatrix:
    """Evaluate in reverse written order: eval(x_1 ... x_k) = M(x_k)...M(x_1)."""
    return transvection_product(word.genus, reversed(word.letters))


# ---------------------------------------------------------------------------
# The certifiable family: blocks (all d_l at -2)(b powers)(c powers in {0,-2})
# (a powers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TBlock:
    """Exponent data of one block: p for a-letters, q for b-letters, r for
    c-letters (each entry 0 or -2); the d-part is implicit, every d_l at -2.
    The genus is len(p)."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.q) != len(self.p) or len(self.r) != len(self.p) - 1:
            raise ValueError("exponent vector lengths must be (g, g, g-1)")
        if any(x not in (0, -2) for x in self.r):
            raise ValueError("c-exponents must be 0 or -2")

    @property
    def genus(self) -> int:
        return len(self.p)

    def letters(self) -> tuple[tuple[CurveLetter, int], ...]:
        """The block in canonical order: d-part, b-part, c-part, a-part."""
        parts = (("d", (-2,) * (self.genus - 1)), ("b", self.q), ("c", self.r), ("a", self.p))
        return tuple((CurveLetter(kind, index), exponent) for kind, exponents in parts
                     for index, exponent in enumerate(exponents, start=1) if exponent)


@dataclass(frozen=True)
class TDecomposition:
    """Ordered block decomposition witnessing membership in the family; the
    genus is that of its blocks."""

    blocks: tuple[TBlock, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("decomposition must be non-empty")
        if len({b.genus for b in self.blocks}) > 1:
            raise ValueError("block genus mismatch")

    @property
    def genus(self) -> int:
        return self.blocks[0].genus

    def reassemble(self) -> TwistWord:
        return TwistWord(self.genus, tuple(chain.from_iterable(
            map(TBlock.letters, self.blocks))))


@dataclass(frozen=True)
class FamilyRejection:
    """Why a word is not (syntactically) a product of family blocks."""

    position: int
    reason: str

    def __str__(self) -> str:
        return f"letter {self.position}: {self.reason}"


_PART_RANK = {"d": 0, "b": 1, "c": 2, "a": 3}


def validate_family_T(word: TwistWord) -> TDecomposition | FamilyRejection:
    """Greedy left-to-right block parser for the certifiable family.

    The word is cut into maximal same-kind runs. Within a run the exponents
    of one index merge at its first position and zero totals drop; this uses
    only commutations of disjoint twists (same-kind twists commute). A run
    that empties is skipped, and its neighbours stay separate runs. The runs
    are then walked once: a d-run totalling -2m at every index opens m
    blocks, and each later run fills its part of the last block, in the
    order b, c, a.

    Returns a TDecomposition, or a FamilyRejection carrying the earliest
    offending letter position. An empty word is rejected (trivial product).
    """
    g = word.genus
    if not word.letters:
        return FamilyRejection(0, "empty word is the trivial product")
    runs: list[tuple[str, dict[int, list[int]]]] = []  # kind, {index: [total, position]}
    for pos, (letter, exponent) in enumerate(word.letters):
        if not runs or runs[-1][0] != letter.kind:
            runs.append((letter.kind, {}))
        runs[-1][1].setdefault(letter.index, [0, pos])[0] += exponent

    blocks: list[dict[str, dict[int, int]]] = []
    rank = 4  # above every part: the first run must be a d-part
    for kind, merged in runs:
        entries = sorted((i, e, p) for i, (e, p) in merged.items() if e)
        if not entries:
            continue
        first_pos = min(p for _, _, p in entries)
        if kind == "d":
            # a commuting d-run equals a power of the base product iff every
            # index 1..g-1 carries the same total -2m; it then opens m blocks
            totals = {e for _, e, _ in entries}
            if [i for i, _, _ in entries] != list(range(1, g)):
                return FamilyRejection(
                    first_pos,
                    f"block must open with the full d-part d1^-2 .. d{g - 1}^-2",
                )
            if len(totals) != 1:
                return FamilyRejection(
                    first_pos, "d-exponent totals must agree across all indices")
            (total,) = totals
            if total >= 0 or total % 2 != 0:
                return FamilyRejection(
                    first_pos, f"d-exponents must total -2m per index, got {total}")
            blocks += ({"a": {}, "b": {}, "c": {}} for _ in range(-total // 2))
            rank = 0
            continue
        if _PART_RANK[kind] <= rank:
            return FamilyRejection(
                first_pos,
                f"{kind}-letters cannot appear here; expected a new block d-part",
            )
        if kind == "c":
            for index, exponent, pos in entries:
                if exponent != -2:
                    return FamilyRejection(
                        pos, f"c{index} exponent must be -2 in a block, got {exponent}")
        rank = _PART_RANK[kind]
        blocks[-1][kind] = {index: exponent for index, exponent, _ in entries}

    if not blocks:  # every run totalled zero
        return FamilyRejection(0, "word collapses to the trivial product")
    return TDecomposition(tuple(
        TBlock(p=_exponents(block["a"], g), q=_exponents(block["b"], g),
               r=_exponents(block["c"], g - 1))
        for block in blocks
    ))


def _exponents(part: dict[int, int], n: int) -> tuple[int, ...]:
    return tuple(part.get(i, 0) for i in range(1, n + 1))


def hat_tau_d_word(genus: int) -> TwistWord:
    """The base word d1^-2 ... d(g-1)^-2 (acts trivially on homology)."""
    return TwistWord(genus, tuple(
        (CurveLetter("d", l), -2) for l in range(1, genus)
    ))
