"""The Schreier BFS over H_2 that built the mod-4 layer certificate before the
per-block lifts and the relator layer, kept as their oracle at small genus,
and the full enumeration of a genus-2 certificate with its generator recheck.

A BFS over H_2 keeps the first mod-4 product r reaching each class mod 2, so
it holds 6^g lifts at genus g. Every other product p = r s lands on the class
h of an earlier lift r', and the Schreier element p r'^-1 = I + 2X lies in N,
with X = D h^-1 mod 2 for D = (p - r') / 2. By Schreier's lemma these
elements generate N, so the X span its layer, and |image| = |H_2| 2^rank.
It takes any subset of the closure letters.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from twistcert.congruence import (ClosureTable, _closure_letters, _delta, _f2_mul, _mod4_key,
                                  _sift, closure_generators)


@lru_cache(maxsize=None)
def elements(table: ClosureTable) -> frozenset[int]:
    """Every packed key of the certificate's image: genus 2 only."""
    return frozenset(table._keys())


def recheck_generator_closed(table: ClosureTable) -> bool:
    """Full pass, about 0.2 s at genus 2: every element times every generator
    stays inside. Row i of key G is row i of key times G; each distinct row is
    multiplied once."""
    keys = elements(table)
    n = 2 * table.genus
    shifts, mask = range(0, 2 * n * n, 2 * n), (1 << 2 * n) - 1
    rows = [[key >> s & mask for key in keys] for s in shifts]
    entries = {row: [row >> 2 * c & 3 for c in range(n)] for row in set().union(*rows)}
    for gen in closure_generators(table.genus):
        times = {row: sum(sum(map(operator.mul, e, col)) % 4 << 2 * j
                          for j, col in enumerate(zip(*gen.m.rows)))
                 for row, e in entries.items()}
        products = (map({row: p << s for row, p in times.items()}.__getitem__, column)
                    for s, column in zip(shifts, rows))
        if not keys.issuperset(map(sum, zip(*products))):
            return False
    return True


def masks(genus: int) -> tuple[int, int, int]:
    """The low bit of every entry, both bits of entry (i, 0) of every row i,
    and the identity, as packed keys at genus g."""
    n = 2 * genus
    return ((4 ** (n * n) - 1) // 3, sum(3 << 2 * n * i for i in range(n)),
            sum(1 << 2 * (n + 1) * i for i in range(n)))


def f2_symplectic_inverse(h: int, genus: int) -> int:
    """J^-1 h^T J mod 2, which is h^-1 when h is symplectic mod 2. Mod 2, J
    swaps index t with t' = t + g mod 2g, so entry (i, c) is h[c'][i']."""
    n = 2 * genus
    return sum(1 << 2 * (n * i + c) for i in range(n) for c in range(n)
               if h >> 2 * (n * ((c + genus) % n) + (i + genus) % n) & 1)


def times(key: int, delta: tuple[tuple[int, int, int], ...], column: int) -> int:
    """key (I + delta) mod 4, for delta given by its nonzero entries (k, j, v):
    column j gains v times column k of key; `column` masks column 0."""
    out = key
    for k, j, v in delta:
        col = ((out >> (2 * j)) & column) + ((key >> (2 * k)) & column) * v
        out = out & ~(column << (2 * j)) | (col & column) << (2 * j)
    return out


@dataclass(frozen=True)
class BfsCertificate:
    genus: int
    reps: tuple[int, ...]
    basis: tuple[int, ...]
    classes: dict[int, tuple[int, int]]     # class mod 2 -> (its lift, h^-1)

    @property
    def size(self) -> int:
        return len(self.reps) * 2 ** len(self.basis)

    def keys(self) -> set[int]:
        """Every packed key, coset by coset: (I + 2X) r = r + 2 X h."""
        low = masks(self.genus)[0]
        keys = set()
        for rep in self.reps:
            coset = [rep]
            for x in self.basis:
                step = _f2_mul(x, rep & low, self.genus) << 1
                coset += [key ^ step for key in coset]
            keys.update(coset)
        return keys

    def contains(self, m) -> bool:
        low = masks(self.genus)[0]
        key = _mod4_key(m.m.rows)
        lift = self.classes.get(key & low)
        if lift is None:
            return False
        rep, h_inv = lift
        return _sift(self.basis, _f2_mul(((key ^ rep) >> 1) & low, h_inv, self.genus)) == 0


def bfs_certificate(letters: list[tuple[str, int, int]], genus: int) -> BfsCertificate:
    """The image mod 4 of the group generated by the closure generators of
    the given letters, by the Schreier BFS over H_2."""
    by_letter = dict(zip(_closure_letters(genus), closure_generators(genus)))
    deltas = [tuple((k, j, x % 4) for k, row in _delta(by_letter[letter]).items()
                    for j, x in row.items() if x % 4)
              for letter in letters]
    low, column, identity = masks(genus)
    reps = [identity]
    classes = {identity: (identity, identity)}
    basis: list[int] = []
    for rep in reps:                                            # grows as it runs
        for delta in deltas:
            p = times(rep, delta, column)
            h = p & low
            if h not in classes:
                h_inv = f2_symplectic_inverse(h, genus)
                assert _f2_mul(h, h_inv, genus) == identity
                classes[h] = (p, h_inv)
                reps.append(p)
            elif len(basis) < genus * (2 * genus + 1):
                lift, h_inv = classes[h]
                x = _sift(basis, _f2_mul(((p ^ lift) >> 1) & low, h_inv, genus))
                if x:
                    basis.append(x)
                    basis.sort(reverse=True)
    return BfsCertificate(genus, tuple(reps), tuple(basis), classes)
