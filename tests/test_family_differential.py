"""Differential test of the one-pass block-family validator against the
two-pass parser in `family_oracle`, on seeded random, family and near-family
words."""
import random
from collections import Counter

from family_oracle import validate_family_T as validate_two_pass
from twistcert.words import CurveLetter, FamilyRejection, TwistWord, validate_family_T

WORDS_PER_GENUS = 4000


def _nonzero(rng, bound):
    return rng.choice([e for e in range(-bound, bound + 1) if e])


def _run(rng, letters):
    """One same-kind run, shuffled (same-kind twists commute), with some
    exponents split over two letters and some cancelling pairs inserted."""
    out = []
    for kind, index, exponent in letters:
        if rng.random() < 0.2:
            part = _nonzero(rng, 3)
            if part != exponent:
                out += [(kind, index, part), (kind, index, exponent - part)]
                continue
        out.append((kind, index, exponent))
    if out and rng.random() < 0.2:
        kind, index, _ = rng.choice(out)
        e = _nonzero(rng, 2)
        out += [(kind, index, e), (kind, index, -e)]
    rng.shuffle(out)
    return out


def family_letters(rng, g):
    letters = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice((1, 1, 1, 2, 3))                       # a d-run may open m blocks
        letters += _run(rng, [("d", l, -2 * m) for l in range(1, g)])
        for kind, n, exponent in (("b", g, None), ("c", g - 1, -2), ("a", g, None)):
            part = [(kind, i, exponent or _nonzero(rng, 3))
                    for i in range(1, n + 1) if rng.random() < 0.5]
            letters += _run(rng, part)
    return letters


def near_family_letters(rng, g):
    letters = family_letters(rng, g)
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(letters) + 1)
        kind, index, exponent = rng.choice(letters) if letters else ("a", 1, 1)
        mutation = rng.randrange(6)
        if mutation == 0:       # an emptied run, often between two same-kind runs
            kind = rng.choice("abcd")
            index = rng.randint(1, g if kind in "ab" else g - 1)
            e = _nonzero(rng, 2)
            letters[at:at] = [(kind, index, e), (kind, index, -e)]
        elif mutation == 1:     # d totals made positive, odd or unequal
            index = rng.randint(1, g - 1)
            letters.insert(at, ("d", index, rng.choice((1, 2, 3, 4, -1, -3))))
        elif mutation == 2:     # a c exponent other than -2
            index = rng.randint(1, g - 1)
            letters.insert(at, ("c", index, rng.choice((-4, -3, -1, 1, 2, 3))))
        elif mutation == 3 and letters:   # a letter dropped
            del letters[rng.randrange(len(letters))]
        elif mutation == 4 and len(letters) > 1:   # two neighbours swapped
            i = rng.randrange(len(letters) - 1)
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
        else:                   # a letter repeated elsewhere
            letters.insert(at, (kind, index, exponent))
    return letters


def random_letters(rng, g):
    out = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.choice("abcd")
        out.append((kind, rng.randint(1, g if kind in "ab" else g - 1), _nonzero(rng, 4)))
    return out


def test_one_pass_validator_matches_two_pass_parser():
    rng = random.Random(20261019)
    outcomes = Counter()
    for g in range(2, 7):
        for n in range(WORDS_PER_GENUS):
            make = (random_letters, family_letters, near_family_letters)[n % 3]
            word = TwistWord(g, tuple(
                (CurveLetter(kind, index), e) for kind, index, e in make(rng, g) if e))
            result = validate_family_T(word)
            assert result == validate_two_pass(word), word
            if isinstance(result, FamilyRejection):
                outcomes[result.reason.split(" ")[0]] += 1
            else:
                outcomes["accepted", len(result.blocks) > 1] += 1
    assert sum(outcomes.values()) >= 20000
    # both verdicts, multi-block words and every rejection reason occur
    assert set(outcomes) >= {
        ("accepted", False), ("accepted", True), "empty", "word", "block",
        "d-exponent", "d-exponents", "a-letters", "b-letters", "c-letters", "c1",
    }, outcomes
