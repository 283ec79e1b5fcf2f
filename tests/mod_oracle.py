"""Test-only matrix helpers: entrywise sums and scalings of `IntMatrix`
values, matrices over Z/qZ for q a power of two with their canonical packed
encoding, and the mod-2 block test in two forms: by indices mod g, and in
the interleaved basis.

The package packs genus-2 matrices mod 4 itself (`congruence._mod4_key`);
`ModMatrix` products and `packed_word` are the independent reference the
closure BFS oracles and the key-layout tests compare it with.
"""
from __future__ import annotations

from dataclasses import dataclass

from twistcert.matrices import IntMatrix, SpMatrix


def add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return IntMatrix(tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    ))


def scale(a: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(c * x for x in row) for row in a.rows))


def _is_power_of_two(q: int) -> bool:
    return q >= 2 and (q & (q - 1)) == 0


@dataclass(frozen=True)
class ModMatrix:
    """Matrix over Z/qZ for q a power of two; entries reduced into [0, q)."""

    rows: tuple[tuple[int, ...], ...]
    modulus: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.modulus):
            raise ValueError(f"modulus must be a power of two >= 2, got {self.modulus}")
        rows = tuple(tuple(int(x) % self.modulus for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: ModMatrix) -> ModMatrix:
        if self.dim != other.dim or self.modulus != other.modulus:
            raise ValueError("dimension or modulus mismatch")
        bt = tuple(zip(*other.rows))
        q = self.modulus
        return ModMatrix(tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % q for col in bt)
            for row in self.rows
        ), q)

    def is_identity(self) -> bool:
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.rows) for j, x in enumerate(row)
        )

    def packed_word(self) -> int:
        """Canonical packed encoding: base-q digits, entry (i,j) at digit i*dim+j.

        Only defined for q <= 256 (entries fit in 8 bits each).
        """
        if self.modulus > 256:
            raise ValueError("packing requires modulus <= 256")
        bits = (self.modulus - 1).bit_length()
        word = 0
        pos = 0
        for row in self.rows:
            for x in row:
                word |= x << (bits * pos)
                pos += 1
        return word


def reduce_mod(m: IntMatrix, q: int) -> ModMatrix:
    """Entrywise reduction into [0, q) for q a power of two."""
    if not _is_power_of_two(q):
        raise ValueError(f"modulus must be a power of two >= 2, got {q}")
    return ModMatrix(m.rows, q)


def mod2_block_test(m: SpMatrix) -> bool:
    """Necessary condition for membership: the mod-2 reduction, reindexed into
    the interleaved basis (a_1, b_1, a_2, b_2, ...), is 2x2 block diagonal:
    t and g + t share a block, so every odd entry (r, c) has r = c mod g."""
    g = m.genus
    return all((r - c) % g == 0
               for r, row in enumerate(m.m.rows) for c, x in enumerate(row) if x % 2)


def mod2_block_test_interleaved(m, genus):
    """The mod-2 reduction, reindexed into the interleaved basis
    (a_1, b_1, a_2, b_2, ...), is 2x2 block diagonal."""
    g = genus
    # interleaved position 2t <- a-index t, position 2t+1 <- b-index g+t
    order = []
    for t in range(g):
        order.append(t)
        order.append(g + t)
    rows = m.m.rows
    for r_new, r_old in enumerate(order):
        for c_new, c_old in enumerate(order):
            if r_new // 2 != c_new // 2 and rows[r_old][c_old] % 2 != 0:
                return False
    return True
