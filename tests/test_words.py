import random
import time

import pytest

from twistcert.certify import sample_t_block
from twistcert.congruence import GenWord, eval_gen_word, format_gen_word
from twistcert.matrices import IntMatrix, SpMatrix, det, mat_mul, mat_pow, sp_check
from twistcert.polynomials import charpoly, is_reciprocal
from twistcert.words import (
    MAX_WORD_LETTERS,
    CurveLetter,
    FamilyRejection,
    TBlock,
    TDecomposition,
    TwistWord,
    WordSyntaxError,
    eval_word,
    format_word,
    generator_matrix,
    hat_tau_d_word,
    parse_word,
    validate_family_T,
)


# Non-commuting letter pairs: (a_m, b_m), (b_n, c_n), (b_{n+1}, c_n), (c_n, d_n).
# Twists along all other curve pairs are disjoint and commute.
def curves_commute(x: CurveLetter, y: CurveLetter) -> bool:
    """True iff the twists along x and y commute (disjoint curves)."""
    pair = {(x.kind, x.index), (y.kind, y.index)}
    if len(pair) == 1:
        return True
    k1, k2 = sorted((x, y), key=lambda c: c.kind)
    if (k1.kind, k2.kind) == ("a", "b"):
        return k1.index != k2.index
    if (k1.kind, k2.kind) == ("b", "c"):
        return k1.index not in (k2.index, k2.index + 1)
    if (k1.kind, k2.kind) == ("c", "d"):
        return k1.index != k2.index
    return True


def random_word(rng, genus, length):
    letters = []
    for _ in range(length):
        kind = rng.choice("abcd")
        top = genus if kind in "ab" else genus - 1
        letters.append((CurveLetter(kind, rng.randint(1, top)), rng.choice((-2, -1, 1, 2))))
    return TwistWord(genus, tuple(letters))


def test_generator_matrices_at_genus_two():
    a1 = generator_matrix(CurveLetter("a", 1), 2)
    assert a1.m.rows == ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    d1 = generator_matrix(CurveLetter("d", 1), 2)
    assert d1.m.is_identity()
    c1 = generator_matrix(CurveLetter("c", 1), 2)
    assert c1.m.rows == ((1, 0, -1, 1), (0, 1, 1, -1), (0, 0, 1, 0), (0, 0, 0, 1))
    b1 = generator_matrix(CurveLetter("b", 1), 2)
    assert b1.m == IntMatrix.from_unit_entries(4, {(3, 1): -1})


def test_generator_matrix_range_error():
    with pytest.raises(ValueError):
        generator_matrix(CurveLetter("c", 2), 2)
    with pytest.raises(ValueError):
        generator_matrix(CurveLetter("a", 3), 2)


def test_parse_word_basics():
    w = parse_word("a1^3 b2^-1", 2)
    assert len(w) == 2
    assert w.letters[0] == (CurveLetter("a", 1), 3)
    assert w.letters[1] == (CurveLetter("b", 2), -1)
    assert parse_word("", 2).letters == ()
    assert parse_word("a1^0 b1", 2).letters == ((CurveLetter("b", 1), 1),)


def test_parse_word_errors_carry_offsets():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("z1", 2)
    assert err.value.offset == 0
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a1 c3", 2)
    assert err.value.offset == 3
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a1 b2^x", 2)
    assert err.value.offset == 3
    # offsets count characters: U+3000 is one character, three bytes in UTF-8
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a1\u3000x", 2)
    assert err.value.offset == 3


def test_parse_word_over_long_integers_carry_offsets():
    # more digits than int() converts, in the exponent and in the index
    nines = "9" * 5000
    with pytest.raises(WordSyntaxError) as err:
        parse_word(f"a1 b2^-{nines}", 2)
    assert err.value.offset == 3
    with pytest.raises(WordSyntaxError) as err:
        parse_word(f"a1  b{nines}", 2)
    assert err.value.offset == 4


def test_parse_word_letter_bound():
    # the 65537th token is refused at its offset, zero exponents included
    longest = " ".join(["a1 a1^-1"] * (MAX_WORD_LETTERS // 2))
    assert len(parse_word(longest, 2)) == MAX_WORD_LETTERS
    for extra in (" b1", " b1^0", " z9"):
        with pytest.raises(WordSyntaxError, match="exceeds the bound of 65536 letters") as err:
            parse_word(longest + extra, 2)
        assert err.value.offset == len(longest) + 1
    assert len(parse_word(longest.replace("a1^-1", "a1^0"), 2)) == MAX_WORD_LETTERS // 2


def test_format_parse_round_trip(example_word_text):
    w = parse_word(example_word_text, 2)
    assert format_word(w) == example_word_text
    assert parse_word(format_word(w), 2) == w
    assert format_word(parse_word("a1^1", 2)) == "a1"


def test_eval_word_reproduces_known_matrix(example_word_text, example_matrix_rows):
    w = parse_word(example_word_text, 2)
    assert eval_word(w).m.rows == example_matrix_rows


def test_eval_word_trivial_cases():
    assert eval_word(TwistWord(2, ())).m.is_identity()
    assert eval_word(parse_word("a1 a1^-1", 2)).m.is_identity()
    assert eval_word(hat_tau_d_word(3)).m.is_identity()
    assert eval_word(parse_word("d1^-2 d2^4 d1^6", 3)).m.is_identity()


def test_eval_word_is_anti_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        g = rng.choice((2, 3))
        u = random_word(rng, g, rng.randint(0, 6))
        v = random_word(rng, g, rng.randint(0, 6))
        assert eval_word(TwistWord(g, u.letters + v.letters)) == eval_word(v) @ eval_word(u)


def test_eval_word_symplectic_with_reciprocal_charpoly():
    rng = random.Random(17)
    for _ in range(15):
        g = rng.choice((2, 3))
        m = eval_word(random_word(rng, g, 10))
        assert sp_check(m.m)
        assert det(m.m) == 1
        assert is_reciprocal(charpoly(m.m))


def test_disjoint_adjacent_swap_preserves_eval():
    rng = random.Random(29)
    checked = 0
    while checked < 25:
        g = rng.choice((2, 3))
        w = random_word(rng, g, 8)
        i = rng.randint(0, len(w.letters) - 2)
        (x, ex), (y, ey) = w.letters[i], w.letters[i + 1]
        if not curves_commute(x, y):
            continue
        swapped = TwistWord(g, w.letters[:i] + ((y, ey), (x, ex)) + w.letters[i + 2:])
        assert eval_word(swapped) == eval_word(w)
        checked += 1


def test_non_commuting_pairs():
    a1, b1 = CurveLetter("a", 1), CurveLetter("b", 1)
    b2, c1, d1 = CurveLetter("b", 2), CurveLetter("c", 1), CurveLetter("d", 1)
    assert not curves_commute(a1, b1)
    assert not curves_commute(b1, c1)
    assert not curves_commute(b2, c1)
    assert not curves_commute(c1, d1)
    assert curves_commute(a1, CurveLetter("a", 2))
    assert curves_commute(a1, c1)
    assert curves_commute(a1, d1)
    # the lone non-commuting matrix pairs really fail to commute
    ma, mb = generator_matrix(a1, 2), generator_matrix(b1, 2)
    assert ma @ mb != mb @ ma


def test_validate_example_word(example_word_text):
    dec = validate_family_T(parse_word(example_word_text, 2))
    assert isinstance(dec, TDecomposition)
    assert len(dec.blocks) == 2
    assert dec.blocks[0] == TBlock((1, 0), (0, 0), (-2,))
    assert dec.blocks[1] == TBlock((0, 0), (1, 1), (0,))


def test_validate_hat_tau_d():
    for g in (2, 3, 4):
        dec = validate_family_T(hat_tau_d_word(g))
        assert isinstance(dec, TDecomposition)
        assert len(dec.blocks) == 1
        block = dec.blocks[0]
        assert block.p == (0,) * g and block.q == (0,) * g and block.r == (0,) * (g - 1)


def test_validate_rejections():
    rej = validate_family_T(parse_word("c1^-1", 2))
    assert isinstance(rej, FamilyRejection)
    assert rej.position == 0
    rej = validate_family_T(parse_word("a1", 2))
    assert isinstance(rej, FamilyRejection)
    rej = validate_family_T(TwistWord(2, ()))
    assert isinstance(rej, FamilyRejection)
    # wrong c exponent inside a block, position points at the c letter
    rej = validate_family_T(parse_word("d1^-2 c1^-1", 2))
    assert isinstance(rej, FamilyRejection)
    assert rej.position == 1
    # letter out of place: b after a needs a fresh d-part
    rej = validate_family_T(parse_word("d1^-2 a1 b1", 2))
    assert isinstance(rej, FamilyRejection)
    assert rej.position == 2
    # incomplete d-part at genus 3
    rej = validate_family_T(parse_word("d1^-2 a1", 3))
    assert isinstance(rej, FamilyRejection)
    assert rej.position == 0
    # odd d total cannot split into -2 blocks
    rej = validate_family_T(parse_word("d1^-2 d1^-3", 2))
    assert isinstance(rej, FamilyRejection)


def test_validate_splits_repeated_base_blocks():
    dec = validate_family_T(parse_word("d1^-2 d1^-2", 2))
    assert isinstance(dec, TDecomposition)
    assert len(dec.blocks) == 2
    dec = validate_family_T(parse_word("d1^-4 a1", 2))
    assert isinstance(dec, TDecomposition)
    assert len(dec.blocks) == 2
    assert dec.blocks[0].p == (0, 0)
    assert dec.blocks[1].p == (1, 0)
    dec = validate_family_T(parse_word("d1^-2 d2^-2 d1^-2 d2^-2 b3", 3))
    assert isinstance(dec, TDecomposition)
    assert len(dec.blocks) == 2
    assert dec.blocks[1].q == (0, 0, 1)


def test_validate_accepts_sampled_family_words():
    rng = random.Random(37)
    for _ in range(40):
        g = rng.choice((2, 3))
        blocks = []
        for _ in range(rng.randint(1, 3)):
            p = tuple(rng.randint(-3, 3) for _ in range(g))
            q = tuple(rng.randint(-3, 3) for _ in range(g))
            r = tuple(rng.choice((0, -2)) for _ in range(g - 1))
            blocks.append(TBlock(p, q, r))
        word = TDecomposition(tuple(blocks)).reassemble()
        dec = validate_family_T(word)
        assert isinstance(dec, TDecomposition)
        assert eval_word(dec.reassemble()) == eval_word(word)


def concatenated_blocks(dec: TDecomposition) -> TwistWord:
    """Reference for TDecomposition.reassemble: each block's letters in the
    order d, b, c, a, appended one block at a time."""
    letters = ()
    for block in dec.blocks:
        letters = letters + tuple((CurveLetter("d", l), -2) for l in range(1, dec.genus))
        for kind, exponents in (("b", block.q), ("c", block.r), ("a", block.p)):
            letters = letters + tuple((CurveLetter(kind, i), e)
                                      for i, e in enumerate(exponents, start=1) if e)
    return TwistWord(dec.genus, letters)


def test_reassemble_matches_block_by_block_concatenation():
    rng = random.Random(19)
    for g in range(2, 7):
        for count in (1, 2, 50, *(rng.randint(1, 50) for _ in range(5))):
            bound = rng.randint(0, 3)
            dec = TDecomposition(tuple(sample_t_block(g, bound, rng) for _ in range(count)))
            assert dec.reassemble() == concatenated_blocks(dec)


def test_reassemble_is_linear_in_the_block_count():
    # 20000 blocks took 9.4 s when each block's letters were appended to a
    # new tuple; one pass takes about 0.15 s on one core of a 2-core x86-64
    # container
    rng = random.Random(20000)
    dec = TDecomposition(tuple(sample_t_block(2, 2, rng) for _ in range(20000)))
    start = time.perf_counter()
    word = dec.reassemble()
    assert time.perf_counter() - start < 1.0
    assert len(word) == sum(1 + len([e for e in b.p + b.q + b.r if e]) for b in dec.blocks)


def test_validate_accepts_unordered_b_run():
    dec = validate_family_T(parse_word("d1^-2 b2 b1", 2))
    assert isinstance(dec, TDecomposition)
    assert dec.blocks[0].q == (1, 1)


def test_tblock_validation():
    with pytest.raises(ValueError):
        TBlock((1,), (0, 0), (0,))
    with pytest.raises(ValueError, match="lengths"):
        TBlock((0, 0), (0, 0), ())
    with pytest.raises(ValueError):
        TBlock((0, 0), (0, 0), (-1,))
    with pytest.raises(ValueError):
        TDecomposition(())
    # the genus is len(p), and a decomposition's genus is that of its blocks
    g2, g3 = TBlock((1, 0), (0, 0), (-2,)), TBlock((0, 0, 1), (0, 0, 0), (0, -2))
    assert (g2.genus, g3.genus, TDecomposition((g3, g3)).genus) == (2, 3, 3)
    with pytest.raises(ValueError, match="block genus mismatch"):
        TDecomposition((g2, g3))


def test_twist_word_validation():
    with pytest.raises(ValueError):
        TwistWord(2, ((CurveLetter("a", 1), 0),))
    with pytest.raises(ValueError):
        TwistWord(2, ((CurveLetter("c", 2), 1),))
    with pytest.raises(ValueError):
        TwistWord(1, ())


def dense_letter(kind, index, genus):
    """Letter matrix from the displayed unit-entry formulas, independent of
    the transvection kernel."""
    n, g, i = 2 * genus, genus, index
    if kind == "a":
        return IntMatrix.from_unit_entries(n, {(i, g + i): 1})
    if kind == "b":
        return IntMatrix.from_unit_entries(n, {(g + i, i): -1})
    if kind == "c":
        return IntMatrix.from_unit_entries(n, {
            (i, g + i): -1, (i + 1, g + i + 1): -1, (i + 1, g + i): 1, (i, g + i + 1): 1})
    return IntMatrix.identity(n)


def dense_power(kind, index, genus, exponent):
    m = dense_letter(kind, index, genus)
    base = m if exponent > 0 else SpMatrix(m).inverse().m
    return mat_pow(base, abs(exponent))


def dense_product(genus, letters):
    acc = IntMatrix.identity(2 * genus)
    for kind, index, exponent in letters:
        acc = mat_mul(acc, dense_power(kind, index, genus, exponent))
    return acc


def test_generator_matrix_matches_dense_formulas():
    for g in (2, 3, 4):
        for kind in "abcd":
            top = g if kind in "ab" else g - 1
            for i in range(1, top + 1):
                assert generator_matrix(CurveLetter(kind, i), g).m == dense_letter(kind, i, g)


def test_eval_word_matches_dense_oracle():
    rng = random.Random(2024)
    for g in range(2, 7):
        for _ in range(8):
            letters = []
            for _ in range(rng.randint(1, 10)):
                kind = rng.choice("abcd")
                top = g if kind in "ab" else g - 1
                exponent = rng.choice((-1, 1)) * rng.randint(1, 50)
                letters.append((CurveLetter(kind, rng.randint(1, top)), exponent))
            word = TwistWord(g, tuple(letters))
            expected = dense_product(
                g, [(x.kind, x.index, e) for x, e in reversed(word.letters)])
            assert eval_word(word).m == expected, format_word(word)


def test_eval_gen_word_matches_dense_oracle():
    rng = random.Random(2025)
    for g in range(2, 7):
        for _ in range(8):
            letters = []
            for _ in range(rng.randint(1, 10)):
                kind = rng.choice("ABC")
                if kind == "C":
                    letters.append(("C", rng.randint(1, g - 1), rng.choice((2, -2))))
                else:
                    letters.append((kind, rng.randint(1, g), rng.choice((1, -1))))
            word = GenWord(g, tuple(letters))
            expected = dense_product(g, [(k.lower(), i, e) for k, i, e in word.letters])
            assert eval_gen_word(word).m == expected, format_gen_word(word)
