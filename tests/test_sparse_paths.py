"""The column transvection kernel and the sparse-delta identity checks against
their dense, row-form references in `dense_oracles`."""
import json
import random

import pytest

import dense_oracles
from dense_oracles import match_root_pattern_dense, row_form_product, verify_identities_dense
from twistcert import congruence
from twistcert.cli import main
from twistcert.congruence import (
    MAX_WORD_LETTERS,
    UNKNOWN,
    GenWord,
    RootSpec,
    _delta,
    _delta_conjugate_by_form,
    _delta_inverse,
    _delta_mul,
    _match_root_pattern,
    eval_gen_word,
    membership,
    parse_gen_word,
    root_matrix,
    synthesize_root,
    verify_identities,
)
from twistcert.matrices import IntMatrix, SpMatrix, symplectic_form
from twistcert.words import (
    CurveLetter,
    TwistWord,
    eval_word,
    generator_matrix,
    parse_word,
    transvection_product,
)


def random_letter(rng, g):
    kind = rng.choice("abcd")
    top = g if kind in "ab" else g - 1
    return CurveLetter(kind, rng.randint(1, top))


def random_run_word(rng, g, length):
    """Letters with runs of one letter, runs whose exponents cancel, and d
    letters, as (CurveLetter, exponent) pairs."""
    letters = []
    while len(letters) < length:
        letter = random_letter(rng, g)
        shape = rng.randrange(4)
        if shape == 0:                                   # a run of one letter
            letters += [(letter, rng.choice((-2, -1, 1, 2)))
                        for _ in range(rng.randint(2, 5))]
        elif shape == 1:                                 # a run that cancels
            e = rng.choice((-3, -1, 1, 2))
            letters += [(letter, e), (CurveLetter(letter.kind, letter.index), -e)]
        else:
            letters.append((letter, rng.choice((-1, 1)) * rng.randint(1, 4)))
    return letters


def gen_letters(word):
    return [(CurveLetter(kind.lower(), index), e) for kind, index, e in word.letters]


def root_specs(g, t):
    specs = [RootSpec("V", i, t=t) for i in range(1, g + 1)]
    specs += [RootSpec("W", i, t=t) for i in range(1, g + 1)]
    specs += [RootSpec("X", j, k, t=t)
              for j in range(1, g + 1) for k in range(1, g + 1) if j != k]
    specs += [RootSpec(kind, j, k, t=t)
              for kind in "YZ" for j in range(1, g + 1) for k in range(j + 1, g + 1)]
    return specs


# ---------------------------------------------------------------------------
# Column kernel against the row-form product
# ---------------------------------------------------------------------------

def test_column_kernel_matches_row_form_on_seeded_twist_words():
    rng = random.Random(0xC01)
    for g in range(2, 9):
        for _ in range(12):
            letters = random_run_word(rng, g, rng.randint(1, 24))
            assert transvection_product(g, letters) == row_form_product(g, letters)
            word = TwistWord(g, tuple(letters))
            assert eval_word(word) == row_form_product(g, reversed(letters))


@pytest.mark.parametrize("text, genus, trivial", [
    ("a1^2 a1^-2", 2, True),
    ("a1 a1 a1", 2, False),
    ("c1^-2 c1 c1 b2", 3, False),
    ("d1^-2 d2^-2 d1^2", 3, True),
    ("b1^3 b1^-1 b1^-2 a2", 2, False),
    ("c2 c2^5 d1 c2^-6 c1", 4, False),
    ("a1 d1 a1^-1", 2, True),
    ("", 3, True),
])
def test_column_kernel_on_runs_and_d_letters(text, genus, trivial):
    word = parse_word(text, genus)
    expected = row_form_product(genus, reversed(word.letters))
    assert eval_word(word) == expected
    assert expected.m.is_identity() == trivial


def test_column_kernel_validates_every_letter():
    # a cancelling run still names its letter, which must be in range
    with pytest.raises(ValueError):
        transvection_product(2, [(CurveLetter("c", 2), 1), (CurveLetter("c", 2), -1)])


def test_column_kernel_matches_row_form_on_generator_words():
    rng = random.Random(0xC02)
    for g in range(2, 9):
        for kind in "abcd":
            for i in range(1, (g if kind in "ab" else g - 1) + 1):
                letter = CurveLetter(kind, i)
                assert generator_matrix(letter, g) == row_form_product(g, [(letter, 1)])
        for _ in range(10):
            letters = []
            for _ in range(rng.randint(1, 30)):
                kind = rng.choice("AABBC")
                if kind == "C":
                    letters.append(("C", rng.randint(1, g - 1), rng.choice((2, -2))))
                else:
                    letters.append((kind, rng.randint(1, g), rng.choice((1, -1))))
                if rng.random() < 0.3:
                    letters.append(letters[-1])
            word = GenWord(g, tuple(letters))
            assert eval_gen_word(word) == row_form_product(g, gen_letters(word))


def test_synthesized_words_match_row_form():
    for g in range(2, 5):
        for spec in root_specs(g, 2 ** (g - 1)):
            word = synthesize_root(spec, g)
            expected = row_form_product(g, gen_letters(word))
            assert eval_gen_word(word) == expected == root_matrix(spec, g), str(spec)


# ---------------------------------------------------------------------------
# Sparse deltas against dense products
# ---------------------------------------------------------------------------

def test_delta_product_and_inverse_match_dense():
    rng = random.Random(0xDE17)
    for g in range(2, 6):
        for _ in range(15):
            p, q = (eval_gen_word(parse_gen_word(" ".join(
                rng.choice((f"A{rng.randint(1, g)}", f"B{rng.randint(1, g)}^-1",
                            f"C{rng.randint(1, g - 1)}^2"))
                for _ in range(rng.randint(0, 8))), g)) for _ in range(2))
            assert _delta_mul(_delta(p), _delta(q)) == _delta(p @ q)
            assert _delta_inverse(_delta(p), g) == _delta(p.inverse())
        for spec in root_specs(g, 3):
            root = root_matrix(spec, g)
            assert congruence._root_delta(spec, g) == _delta(root)
            assert _delta_inverse(_delta(root), g) == _delta(root.inverse())


@pytest.mark.parametrize("genus", range(2, 11))
def test_verify_identities_matches_dense_oracle(genus):
    fast = verify_identities(genus)
    assert fast == verify_identities_dense(genus)
    assert fast.all_passed


def test_conjugation_by_form_matches_delta_mul():
    for g in range(2, 9):
        form = _delta(SpMatrix(symplectic_form(g)))
        form_inv = _delta_inverse(form, g)
        for j in range(1, g + 1):
            for k in range(j + 1, g + 1):
                z_inv = _delta_inverse(congruence._root_delta(RootSpec("Z", j, k), g), g)
                assert _delta_conjugate_by_form(z_inv, g) == \
                    _delta_mul(_delta_mul(form, z_inv), form_inv)


def test_theta_other_than_the_form_keeps_the_product_path(monkeypatch):
    # theta^2 = -I fails the rotation identity, so the conjugations fall back
    # to products with it and report their dense differences like the oracle
    real = congruence._theta_word

    def theta_word(g):
        return real(g) * real(g)

    monkeypatch.setattr(congruence, "_theta_word", theta_word)
    monkeypatch.setattr(dense_oracles, "_theta_word", theta_word)
    conjugate, plain = congruence._delta_conjugate_by_form, []

    def spy(a, genus, transpose=False):
        plain.append(not transpose)
        return conjugate(a, genus, transpose)

    monkeypatch.setattr(congruence, "_delta_conjugate_by_form", spy)
    report = verify_identities(3)
    assert plain and not any(plain)  # inverses only, no conjugation by J
    failing = {c.name for c in report.failures()}
    assert "rotations_give_form_matrix" in failing
    assert {f"y_from_z_conjugation[j={j},k={k}]" for j, k in ((1, 2), (1, 3), (2, 3))} < failing
    assert report == verify_identities_dense(3)


def corrupt_root(monkeypatch, target):
    """Every root element of the spec `target` gets exponent t + 2: still a
    symplectic root element, so both the sparse and the dense side see it."""
    real = congruence._root_entries

    def entries(spec, genus):
        if spec == target:
            spec = RootSpec(spec.kind, spec.i, spec.j, spec.t + 2)
        return real(spec, genus)

    monkeypatch.setattr(congruence, "_root_entries", entries)


@pytest.mark.parametrize("target, genus, failing", [
    (RootSpec("X", 1, 3, 4), 3, {"x_up_step[j=1,l=1]"}),
    (RootSpec("V", 2), 3, {"v_equals_a_twist[i=2]", "z_base[k=2]"}),
    (RootSpec("Z", 1, 2), 3, {"y_from_z_conjugation[j=1,k=2]"}),
    (RootSpec("Y", 2, 4), 4, {"y_from_z_conjugation[j=2,k=4]"}),
])
def test_verify_identities_failure_path(monkeypatch, capsys, target, genus, failing):
    corrupt_root(monkeypatch, target)
    report = verify_identities(genus)
    assert not report.all_passed
    assert {c.name for c in report.failures()} == failing
    dense = verify_identities_dense(genus)
    assert report == dense
    for check in report.failures():
        assert check.detail.startswith("difference rows ((")
    code = main(["verify-claims", "--genus", str(genus), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["all_passed"] is False
    assert [[c["name"], c["passed"], c["detail"]] for c in payload["checks"]] == \
        [[c.name, c.passed, c.detail] for c in dense.checks]


# ---------------------------------------------------------------------------
# Root-pattern recognition
# ---------------------------------------------------------------------------

def unchecked(genus, entries):
    """I + the given 1-based entries, not certified: the pattern reader only
    reads entries, and near misses are mostly not symplectic."""
    return SpMatrix._closed(IntMatrix.from_unit_entries(2 * genus, entries))


def test_match_root_pattern_on_every_root_kind():
    for g in range(3, 7):
        for t in (1, -1, 2, -3, 2 ** (g - 1), -(2 ** g)):
            for spec in root_specs(g, t):
                m = root_matrix(spec, g)
                assert _match_root_pattern(m) == spec == match_root_pattern_dense(m)


def near_misses(g):
    """Entry sets one step away from a root element."""
    t = 2 ** (g - 1)
    out = []
    for j in range(1, g + 1):
        for k in range(1, g + 1):
            if j == k:
                out.append({(j, j): t})                              # diagonal entry
                out.append({(j, j): t, (g + j, g + j): -t})          # X with j = k
                continue
            out.append({(j, k): t, (g + k, g + j): t})               # X, wrong sign
            out.append({(j, k): t, (g + j, g + k): -t})              # X, wrong partner
            out.append({(j, k): t})                                  # X, no partner
            out.append({(g + k, g + j): t})                          # X partner alone
            out.append({(j, g + k): t})                              # Z, no partner
            if j < k:
                out.append({(j, g + k): t, (k, g + j): -t})          # Z, wrong sign
                out.append({(j, g + k): t, (k, g + k): t})           # Z, wrong partner
                out.append({(g + j, k): t, (g + k, j): -t})          # Y, wrong sign
                out.append({(g + j, k): t, (g + j, j): t})           # Y, wrong partner
                out.append({(j, g + j): t, (k, g + k): t})           # two V entries
                out.append({(j, g + k): t, (k, g + j): t, (j, g + j): t})  # Z plus V
    return out


def test_match_root_pattern_near_misses_stay_unmatched():
    for g in range(3, 7):
        for entries in near_misses(g):
            m = unchecked(g, entries)
            assert _match_root_pattern(m) is None, entries
            assert match_root_pattern_dense(m) is None, entries


def test_near_miss_members_stay_unknown():
    for g in range(3, 7):
        t = 2 ** (g - 1)
        for j in range(1, g + 1):
            for k in range(j + 1, g + 1):
                for entries in ({(j, g + j): t, (k, g + k): t},          # V_j V_k
                                {(g + j, j): t, (g + k, k): -t},         # W_j W_k^-1
                                {(j, g + k): t, (k, g + j): t, (j, g + j): t}):  # Z V
                    m = SpMatrix(IntMatrix.from_unit_entries(2 * g, entries))
                    assert membership(m).verdict == UNKNOWN, entries


# ---------------------------------------------------------------------------
# GenWord concatenation
# ---------------------------------------------------------------------------

def test_synthesis_validates_only_single_letters(monkeypatch):
    validated = []
    real = GenWord.__post_init__

    def spy(self):
        validated.append(len(self.letters))
        real(self)

    monkeypatch.setattr(GenWord, "__post_init__", spy)
    for g in range(2, 6):
        for spec in root_specs(g, 2 ** (g - 1)):
            validated.clear()
            word = synthesize_root(spec, g)
            assert max(validated, default=0) <= 1, str(spec)
            assert word == GenWord(g, word.letters)      # every letter is valid


def test_gen_word_checks_survive_the_exact_constructor():
    with pytest.raises(ValueError):
        GenWord(3, (("A", 1, 1), ("C", 3, 2)))
    with pytest.raises(ValueError):
        parse_gen_word("A1 B1^2", 2)
    a = GenWord(2, (("A", 1, 1), ("B", 2, -1)))
    assert (a * a.inverse()).letters == (("A", 1, 1), ("B", 2, -1), ("B", 2, 1), ("A", 1, -1))
    assert a.repeat(-2).letters == (("B", 2, 1), ("A", 1, -1)) * 2
    assert a.repeat(0).letters == ()
    half = GenWord(2, (("A", 1, 1),)).repeat(MAX_WORD_LETTERS // 2 + 1)
    with pytest.raises(ValueError, match="exceeds the bound"):
        half * half
    with pytest.raises(ValueError, match="exceeds the bound"):
        a.repeat(MAX_WORD_LETTERS)
    with pytest.raises(ValueError, match="genus mismatch"):
        a * GenWord(3, ())
