"""The block-family validator as a two-pass parser, kept as the differential
oracle for `words.validate_family_T`: first the maximal same-kind runs with
same-index exponents merged (`_merged_runs`), then a state machine over them
that closes one block at a time."""
from __future__ import annotations

from twistcert.words import FamilyRejection, TBlock, TDecomposition, TwistWord


_PART_RANK = {"d": 0, "b": 1, "c": 2, "a": 3}


def _merged_runs(word: TwistWord) -> list[tuple[str, list[tuple[int, int, int]]]]:
    """Maximal same-kind runs with same-index exponents merged and indices
    sorted ascending. Each entry is (kind, [(index, exponent, first_position)]).

    Only commutations of disjoint twists are used: same-kind twists always
    commute, and powers of one letter merge. Merged-to-zero letters drop.
    """
    runs: list[tuple[str, list[tuple[int, int, int]]]] = []
    for pos, (letter, exponent) in enumerate(word.letters):
        if runs and runs[-1][0] == letter.kind:
            runs[-1][1].append((letter.index, exponent, pos))
        else:
            runs.append((letter.kind, [(letter.index, exponent, pos)]))
    merged: list[tuple[str, list[tuple[int, int, int]]]] = []
    for kind, items in runs:
        by_index: dict[int, tuple[int, int]] = {}
        for index, exponent, pos in items:
            if index in by_index:
                old_exp, old_pos = by_index[index]
                by_index[index] = (old_exp + exponent, old_pos)
            else:
                by_index[index] = (exponent, pos)
        entries = [(i, e, p) for i, (e, p) in sorted(by_index.items()) if e != 0]
        if entries:
            merged.append((kind, entries))
    return merged


def validate_family_T(word: TwistWord) -> TDecomposition | FamilyRejection:
    """Greedy left-to-right block parser for the certifiable family.

    Returns a TDecomposition, or a FamilyRejection carrying the earliest
    offending letter position. An empty word is rejected (trivial product).
    """
    g = word.genus
    if not word.letters:
        return FamilyRejection(0, "empty word is the trivial product")
    runs = _merged_runs(word)
    if not runs:
        return FamilyRejection(0, "word collapses to the trivial product")

    blocks: list[TBlock] = []
    current: dict[str, dict[int, int]] | None = None
    rank = 4  # forces the first run to open a block via its d-part

    def close_block() -> None:
        assert current is not None
        blocks.append(TBlock(
            tuple(current["a"].get(i, 0) for i in range(1, g + 1)),
            tuple(current["b"].get(j, 0) for j in range(1, g + 1)),
            tuple(current["c"].get(k, 0) for k in range(1, g)),
        ))

    for kind, entries in runs:
        first_pos = min(pos for _, _, pos in entries)
        if kind == "d":
            # a commuting d-run equals a power of the base product iff every
            # index 1..g-1 carries the same total -2m; it then opens m blocks
            indices = [i for i, _, _ in entries]
            exponents = {e for _, e, _ in entries}
            if indices != list(range(1, g)):
                return FamilyRejection(
                    first_pos,
                    f"block must open with the full d-part d1^-2 .. d{g - 1}^-2",
                )
            if len(exponents) != 1:
                return FamilyRejection(
                    first_pos, "d-exponent totals must agree across all indices")
            total = exponents.pop()
            if total >= 0 or total % 2 != 0:
                return FamilyRejection(
                    first_pos, f"d-exponents must total -2m per index, got {total}")
            if current is not None:
                close_block()
            for _ in range(-total // 2 - 1):
                current = {"a": {}, "b": {}, "c": {}}
                close_block()
            current = {"a": {}, "b": {}, "c": {}}
            rank = 0
            continue
        if current is None or _PART_RANK[kind] <= rank:
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
        for index, exponent, _ in entries:
            current[kind][index] = exponent

    assert current is not None
    close_block()
    return TDecomposition(tuple(blocks))
