import hashlib
import json
import operator
import os
import random
import struct
import subprocess
import sys
import textwrap
import time
from array import array
from collections import Counter, deque
from functools import lru_cache

import pytest

from twistcert import congruence
from twistcert.congruence import (
    IN_GAMMA,
    NOT_IN_GAMMA,
    UNKNOWN,
    ClosureTable,
    GenWord,
    RootSpec,
    closure_generators,
    d_matrix,
    d_prime_matrix,
    eval_gen_word,
    format_gen_word,
    gamma_index,
    membership,
    parse_gen_word,
    quotient_closure,
    root_matrix,
    rotation_matrix,
    sp_group_order_mod,
    synthesize_root,
    twist_gen,
    verify_identities,
)
from layer_oracle import bfs_certificate, elements, recheck_generator_closed
from mod_oracle import mod2_block_test, mod2_block_test_interleaved, reduce_mod
from test_cli import write_matrix
from test_sparse_paths import unchecked
from twistcert.cli import main
from twistcert.matrices import IntMatrix, SpMatrix, symplectic_form
from twistcert.words import eval_word, parse_word


def random_gen_word(rng, genus, length):
    letters = []
    for _ in range(length):
        kind = rng.choice("AABBC")
        if kind == "C":
            letters.append(("C", rng.randint(1, genus - 1), rng.choice((2, -2))))
        else:
            letters.append((kind, rng.randint(1, genus), rng.choice((1, -1))))
    return GenWord(genus, tuple(letters))


def test_root_matrix_observation_a():
    for g in (2, 3):
        for i in range(1, g + 1):
            assert root_matrix(RootSpec("V", i), g) == twist_gen("A", i, g)
            assert root_matrix(RootSpec("W", i), g) == twist_gen("B", i, g).inverse()


def test_root_matrix_x_example():
    expected = IntMatrix.from_unit_entries(4, {(1, 2): 2, (4, 3): -2})
    assert root_matrix(RootSpec("X", 1, 2, 2), 2).m == expected


def test_root_spec_validation():
    with pytest.raises(ValueError):
        RootSpec("Q", 1)
    with pytest.raises(ValueError):
        root_matrix(RootSpec("X", 1, 1, 2), 2)  # j == k
    with pytest.raises(ValueError):
        root_matrix(RootSpec("Z", 2, 1, 2), 2)  # needs j < k
    with pytest.raises(ValueError):
        root_matrix(RootSpec("V", 3), 2)


def test_d_matrix_values():
    assert d_matrix(1, 2).m == IntMatrix.from_unit_entries(4, {(1, 2): 2, (4, 3): -2})
    assert d_matrix(1, 3).m == IntMatrix.from_unit_entries(6, {(1, 2): 2, (5, 4): -2})
    assert d_matrix(2, 3).m == IntMatrix.from_unit_entries(6, {(2, 3): 2, (6, 5): -2})
    assert d_prime_matrix(2, 2) == root_matrix(RootSpec("X", 2, 1, -2), 2)
    with pytest.raises(ValueError):
        d_matrix(2, 2)
    with pytest.raises(ValueError):
        d_prime_matrix(1, 2)


def test_rotation_and_j_product():
    for g in (2, 3):
        theta = SpMatrix.identity(g)
        for i in range(1, g + 1):
            theta = theta @ rotation_matrix(i, g)
        assert theta.m == symplectic_form(g)


def test_verify_identities_pass():
    for g in (2, 3, 4):
        report = verify_identities(g)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_verify_identities_counts():
    report = verify_identities(2)
    names = [c.name for c in report.checks]
    assert "x_up_base[i=1]" in names
    assert "z_base[k=2]" in names
    assert not any(n.startswith("x_up_step") for n in names)  # vacuous at g=2
    assert not any(n.startswith("z_step") for n in names)
    report3 = verify_identities(3)
    names3 = [c.name for c in report3.checks]
    assert "x_up_step[j=1,l=1]" in names3
    assert "z_step[k=3,l=2]" in names3


def test_chain_relation_reading_is_recorded():
    # regression: the identity holds in both multiplication orders with the
    # c-twist symbol read as the inverse of the displayed matrix, and fails
    # as displayed
    for g in (2, 3):
        report = verify_identities(g)
        chains = [c for c in report.checks if c.name.startswith("chain_relation")]
        assert chains
        for c in chains:
            assert c.passed
            assert c.detail == (
                "holds for (order, c-reading) in ['reverse,inverse', 'written,inverse']")


def test_gen_word_validation():
    with pytest.raises(ValueError):
        GenWord(2, (("C", 1, 1),))
    with pytest.raises(ValueError):
        GenWord(2, (("A", 1, 2),))
    with pytest.raises(ValueError):
        GenWord(2, (("A", 3, 1),))
    with pytest.raises(ValueError):
        GenWord(2, (("D", 1, 1),))


def test_gen_word_parse_format_round_trip():
    text = "A1 A2^-1 B1 C1^2 C1^-2 B2^-1"
    word = parse_gen_word(text, 2)
    assert format_gen_word(word) == text
    with pytest.raises(ValueError):
        parse_gen_word("A1 Q2", 2)


def test_gen_word_inverse_law():
    rng = random.Random(73)
    for _ in range(20):
        g = rng.choice((2, 3))
        w = random_gen_word(rng, g, rng.randint(1, 10))
        assert (eval_gen_word(w) @ eval_gen_word(w.inverse())).m.is_identity()


def test_synthesize_v_word_letters():
    word = synthesize_root(RootSpec("V", 1, t=2), 2)
    assert word.letters == (("A", 1, 1), ("A", 1, 1))
    word = synthesize_root(RootSpec("W", 2, t=2), 2)
    assert word.letters == (("B", 2, -1), ("B", 2, -1))


def test_synthesize_x12_is_the_d_word():
    word = synthesize_root(RootSpec("X", 1, 2, t=2), 2)
    assert word.letters == (
        ("A", 1, 1), ("A", 1, 1), ("B", 2, 1), ("B", 2, 1),
        ("A", 2, 1), ("B", 2, 1), ("A", 2, 1),
        ("C", 1, 2),
        ("A", 2, -1), ("B", 2, -1), ("A", 2, -1),
    )
    assert eval_gen_word(word) == d_matrix(1, 2)


def _rot(i):
    return (("A", i, 1), ("B", i, 1), ("A", i, 1))


def _inv(letters):
    return tuple((kind, i, -e) for kind, i, e in reversed(letters))


def test_formula_words_letter_for_letter():
    for g in range(2, 9):
        for i in range(1, g):
            # D_i := A_i^2 B_{i+1}^2 (A_{i+1} B_{i+1} A_{i+1}) C_i^2 (A_{i+1} B_{i+1} A_{i+1})^-1
            word = congruence._d_word(i, g)
            assert word.genus == g
            assert word.letters == ((("A", i, 1),) * 2 + (("B", i + 1, 1),) * 2 + _rot(i + 1)
                                    + (("C", i, 2),) + _inv(_rot(i + 1)))
        for i in range(2, g + 1):
            # D'_i := (A_{i-1} B_{i-1} A_{i-1}) C_{i-1}^-2 (A_{i-1} B_{i-1} A_{i-1})^-1
            #         B_{i-1}^-2 A_i^-2
            word = congruence._d_prime_word(i, g)
            assert word.genus == g
            assert word.letters == (_rot(i - 1) + (("C", i - 1, -2),) + _inv(_rot(i - 1))
                                    + (("B", i - 1, -1),) * 2 + (("A", i, -1),) * 2)
        # theta := (A_1 B_1 A_1) ... (A_g B_g A_g)
        word = congruence._theta_word(g)
        assert word.genus == g
        assert word.letters == sum((_rot(i) for i in range(1, g + 1)), ())
        for i in range(1, g + 1):
            assert rotation_matrix(i, g) == eval_gen_word(GenWord(g, _rot(i)))


def test_synthesize_x13_at_genus_three():
    spec = RootSpec("X", 1, 3, t=4)
    word = synthesize_root(spec, 3)
    target = root_matrix(spec, 3)
    assert target.m == IntMatrix.from_unit_entries(6, {(1, 3): 4, (6, 4): -4})
    assert eval_gen_word(word) == target


def test_synthesize_all_specs_small_genus():
    for g in (2, 3):
        t = 2 ** (g - 1)
        specs = [RootSpec("V", i, t=t) for i in range(1, g + 1)]
        specs += [RootSpec("W", i, t=t) for i in range(1, g + 1)]
        specs += [RootSpec("X", j, k, t=t)
                  for j in range(1, g + 1) for k in range(1, g + 1) if j != k]
        specs += [RootSpec(kind, j, k, t=t)
                  for kind in ("Y", "Z")
                  for j in range(1, g + 1) for k in range(j + 1, g + 1)]
        for spec in specs:
            word = synthesize_root(spec, g)
            assert eval_gen_word(word) == root_matrix(spec, g), str(spec)


def test_synthesize_multiples_and_negatives():
    for t in (4, -2, -4):
        spec = RootSpec("Z", 1, 2, t=t)
        assert eval_gen_word(synthesize_root(spec, 2)) == root_matrix(spec, 2)
    with pytest.raises(ValueError):
        synthesize_root(RootSpec("X", 1, 2, t=3), 2)
    with pytest.raises(ValueError):
        synthesize_root(RootSpec("Z", 1, 2, t=0), 2)


def mod2_refused(m):
    """The genus-g certificate refuses m at its mod-2 stage."""
    return congruence._closure_certificate(m.genus).refusal(m) == "mod-2 block obstruction"


def test_mod2_block_test_examples():
    # the certificate's mod-2 stage refuses exactly what the block test does
    for m, passes in ((twist_gen("A", 1, 2), True), (twist_gen("C", 1, 2), False),
                      (twist_gen("C", 1, 2).pow(2), True), (twist_gen("C", 2, 3).pow(-2), True)):
        assert mod2_block_test_interleaved(m, m.genus) == passes
        assert mod2_refused(m) == (not passes)


def test_mod2_block_test_on_gen_words():
    rng = random.Random(79)
    for _ in range(30):
        g = rng.choice((2, 3))
        m = eval_gen_word(random_gen_word(rng, g, rng.randint(1, 12)))
        assert mod2_block_test_interleaved(m, g)
        assert not mod2_refused(m)


def test_mod2_block_test_matches_interleaved_oracle():
    rng = random.Random(83)
    for g in range(3, 7):
        members = [eval_gen_word(random_gen_word(rng, g, rng.randint(1, 10)))
                   for _ in range(8)]
        # an odd power of C_i, times a member, is obstructed
        obstructed = [twist_gen("C", i, g).pow(k) for i in range(1, g) for k in (1, 3, -1)]
        obstructed += [member @ c for member, c in zip(members, obstructed)]
        for m in members + obstructed:
            assert mod2_refused(m) == (not mod2_block_test_interleaved(m, g))
        assert not any(map(mod2_refused, members))
        assert all(map(mod2_refused, obstructed))
        # one odd (or even) entry at every position: off the 2x2 blocks of
        # the interleaved basis an odd entry obstructs, on them nothing does,
        # except an odd x on the diagonal: its 1 + x is even, so the block is
        # singular mod 2 and the matrix not symplectic, and the mod-2 stage
        # refuses it too
        for r in range(1, 2 * g + 1):
            for c in range(1, 2 * g + 1):
                for x in (1, -3, 2):
                    m = unchecked(g, {(r, c): x})
                    singular = r == c and x % 2 == 1
                    assert mod2_refused(m) == (singular or not mod2_block_test_interleaved(m, g)), \
                        (r, c, x)
        assert mod2_refused(unchecked(g, {(1, 2): 1}))
        assert not mod2_refused(unchecked(g, {(2, g + 2): 1}))


def test_sp_group_orders():
    assert sp_group_order_mod(2, 2) == 720
    assert sp_group_order_mod(2, 4) == 737280
    with pytest.raises(ValueError):
        sp_group_order_mod(2, 3)


def test_closure_size_and_membership(closure_table):
    table = closure_table
    assert table.modulus == 4
    # regression constant from the first verified run; equals
    # |SL(2,F2)|^2 * 2^10, the full preimage of the mod-2 block subgroup
    assert table.size == 36864
    assert sp_group_order_mod(2, 4) % table.size == 0
    assert reduce_mod(IntMatrix.identity(4), 4).packed_word() in elements(table)
    assert table.refusal(SpMatrix.identity(2)) is None
    # reductions of every root matrix at t = 2 are members
    specs = [RootSpec("V", i, t=2) for i in (1, 2)]
    specs += [RootSpec("W", i, t=2) for i in (1, 2)]
    specs += [RootSpec("X", 1, 2, 2), RootSpec("X", 2, 1, 2),
              RootSpec("Y", 1, 2, 2), RootSpec("Z", 1, 2, 2)]
    for spec in specs:
        assert table.refusal(root_matrix(spec, 2)) is None, str(spec)
    assert table.refusal(twist_gen("C", 1, 2)) is not None


def test_contains_key_matches_packed_word():
    rng = random.Random(89)
    mats = [eval_gen_word(random_gen_word(rng, g, rng.randint(8, 40)))
            for g in (2, 3, 4) for _ in range(20)]
    mats += [SpMatrix(IntMatrix.from_unit_entries(4, {(1, 3): t}))
             for t in (-(2 ** 70) - 1, -5, 7, 3 ** 45)]
    assert any(min(map(min, m.m.rows)) < 0 for m in mats)
    assert any(max(map(max, m.m.rows)) > 2 ** 64 for m in mats)
    for m in mats:
        assert congruence._mod4_key(m.m.rows) == reduce_mod(m.m, 4).packed_word()
    for n in (4, 6, 8):
        for _ in range(50):
            rows = tuple(tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(n))
                         for _ in range(n))
            assert congruence._mod4_key(rows) == reduce_mod(IntMatrix(rows), 4).packed_word()


def test_contains_refuses_another_genus(closure_table):
    m = eval_word(parse_word("a3^-1 b2 a2 b2 b3^-1 b1 c2", 3))
    assert membership(m).verdict == NOT_IN_GAMMA
    for other in (m, SpMatrix.identity(3)):
        with pytest.raises(ValueError, match="genus mismatch"):
            closure_table.refusal(other)


def test_closure_generator_closed(closure_table):
    assert recheck_generator_closed(closure_table)
    # one layer vector short, the set is not closed
    assert not recheck_generator_closed(ClosureTable(2, closure_table.basis[:-1]))


def test_closure_matches_pure_python_bfs(closure_table):
    # independent oracle for the layer certificate: BFS over every product
    gens = [reduce_mod(g.m, 4) for g in closure_generators(2)]
    assert _bfs_image(gens) == set(elements(closure_table))


def _bfs_image(gens):
    """Right-multiplication BFS from the identity over n x n matrices mod 4.
    A state is held as its `packed_word` (entry (i, c) in bits 2(n i + c))
    and multiplied by a generator entry by entry: no row products, no column
    kernel and no key packing of the package are involved."""
    n = gens[0].dim
    cols = [tuple(zip(*gen.rows)) for gen in gens]
    start = reduce_mod(IntMatrix.identity(n), 4).packed_word()
    seen = {start}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        rows = [[(key >> (2 * (n * i + c))) & 3 for c in range(n)] for i in range(n)]
        for gen_cols in cols:
            nxt = sum((sum(map(operator.mul, row, col)) & 3) << (2 * (n * i + c))
                      for i, row in enumerate(rows) for c, col in enumerate(gen_cols))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@pytest.mark.parametrize("genus, dropped, size", [
    # SL_2(Z/4)^2: the C_1^2 layer directions are missing
    pytest.param(2, {"C"}, 36 * 2 ** 6, id="dropped0-2304"),
    # A_1, A_2: two commuting elements of order 4
    pytest.param(2, {"B", "C"}, 16, id="dropped1-16"),
    pytest.param(2, {"A"}, 4 * 2 ** 6, id="dropped2-256"),       # B_1, B_2, C_1^2
    pytest.param(3, {"B", "C"}, 2 ** 3 * 2 ** 3, id="g3-dropped-BC-64"),
    pytest.param(3, {"B"}, 2 ** 3 * 2 ** 5, id="g3-dropped-B-256"),  # A_i and C_i^2
])
def test_layer_certificate_matches_bfs_on_letter_subsets(genus, dropped, size):
    letters = [l for l in congruence._closure_letters(genus) if l[0] not in dropped]
    table = bfs_certificate(letters, genus)
    by_letter = dict(zip(congruence._closure_letters(genus), closure_generators(genus)))
    image = _bfs_image([reduce_mod(by_letter[l].m, 4) for l in letters])
    assert table.size == len(image) == size
    assert table.keys() == image
    assert len(table.basis) < genus * (2 * genus + 1)
    assert size < congruence._closure_certificate(genus).size   # a dropped letter leaves the image
    # contains agrees with the BFS set on words over all the letters; C_i^2
    # is I mod 2, so words with it reach classes in H_2 whose layer vector
    # the sift must reject
    rng = random.Random(71)
    low = int("01" * (2 * genus) ** 2, 2)      # the low bit of every entry
    outcomes = set()
    for _ in range(150):
        m = eval_gen_word(random_gen_word(rng, genus, rng.randint(1, 8)))
        key = reduce_mod(m.m, 4).packed_word()
        in_h2 = any(r & low == key & low for r in table.reps)
        assert table.contains(m) == (key in image)
        outcomes.add((key in image, in_h2))
    assert (True, True) in outcomes and (False, True) in outcomes


@pytest.mark.parametrize("genus", [3, 4])
def test_layer_certificate_beyond_genus_two(genus):
    # H_2 = SL_2(F_2)^g has 6^g classes, and the layer rank is 7g - 4
    table = congruence._closure_certificate(genus)
    assert (table.size, len(table.basis)) == (6 ** genus * 2 ** (7 * genus - 4), 7 * genus - 4)
    rng = random.Random(101 + genus)
    for _ in range(30):
        assert table.refusal(eval_gen_word(random_gen_word(rng, genus, rng.randint(1, 12)))) is None
    if genus == 3:
        # I mod 2, with a layer vector outside the span; the same roots at
        # t = 4 have synthesized words, so they lie inside
        for kind, i, j in (("X", 1, 3), ("X", 3, 1), ("Y", 1, 3), ("Z", 1, 3)):
            root = root_matrix(RootSpec(kind, i, j, 2), 3)
            assert table.refusal(root) == "reduction outside the quotient image"
            assert membership(root) == congruence.MembershipVerdict(
                NOT_IN_GAMMA, None, "reduction outside the quotient image")
            assert table.refusal(root_matrix(RootSpec(kind, i, j, 4), 3)) is None


@lru_cache(maxsize=None)
def _oracle(genus):
    return bfs_certificate(congruence._closure_letters(genus), genus)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_relator_layer_matches_the_bfs_oracle(genus):
    table, oracle = congruence._closure_certificate(genus), _oracle(genus)
    # the same span: the same rank, and every oracle vector sifts to zero
    assert len(table.basis) == len(oracle.basis) == 7 * genus - 4
    assert all(congruence._sift(table.basis, x) == 0 for x in oracle.basis)
    assert table.size == oracle.size
    # seeded words, alone and times a root element at t = 2 (I mod 2) or
    # times C_i (outside H_2)
    rng = random.Random(300 + genus)
    mats = []
    for _ in range(40):
        m = eval_gen_word(random_gen_word(rng, genus, rng.randint(1, 12)))
        kind = rng.choice("XYZ")
        i, j = sorted(rng.sample(range(1, genus + 1), 2))
        if kind == "X" and rng.random() < 0.5:
            i, j = j, i
        mats += [m, m @ root_matrix(RootSpec(kind, i, j, 2), genus),
                 m @ twist_gen("C", rng.randint(1, genus - 1), genus)]
    if genus == 3:
        mats += [root_matrix(RootSpec(kind, i, j, t), 3)
                 for kind, i, j in (("X", 1, 3), ("X", 3, 1), ("Y", 1, 3), ("Z", 1, 3))
                 for t in (2, 4)]
    verdicts = [table.refusal(m) is None for m in mats]
    assert verdicts == [oracle.contains(m) for m in mats]
    refused = [membership(m).verdict == NOT_IN_GAMMA for m in mats]
    assert refused == [not oracle.contains(m) for m in mats]
    assert all(verdicts[:120:3])                 # the seeded words themselves
    # at genus 2 the image is the whole preimage of H_2 (index 720 / 36 = 20);
    # above it, some products with a root element leave the layer span
    outcomes = set(zip(verdicts, map(mod2_block_test, mats)))
    assert ((False, True) in outcomes) == (genus > 2)
    assert (False, False) in outcomes


def test_certificate_builds_to_genus_eight_with_rank_7g_minus_4():
    start = time.perf_counter()
    for genus in range(2, 9):
        table = congruence._closure_certificate.__wrapped__(genus)
        assert len(table.basis) == 7 * genus - 4
        assert table.size == 6 ** genus * 2 ** (7 * genus - 4)
    # about 0.03 s in all on one x86-64 core; the Schreier BFS over the 6^g
    # classes took 31 s at genus 6 alone
    assert time.perf_counter() - start < 5


def test_enumeration_refuses_genus_three():
    # a genus-3 key has 72 bits and there are 6^3 2^17 of them; the cache
    # file holds the 17 basis vectors instead, 9 bytes each
    table = congruence._closure_certificate(3)
    for read in (lambda: elements(table), lambda: recheck_generator_closed(table)):
        with pytest.raises(ValueError, match="genus 2 only"):
            read()
    raw = table._export_bytes
    assert len(raw) == 20 + 17 * 9 == 173
    assert _decode_cache(raw) == (b"TWCL", 2, 3, 4, table.basis)
    assert table.refusal(SpMatrix.identity(3)) is None
    assert table.size == 6 ** 3 * 2 ** 17


def test_certificate_invariants_survive_optimize():
    # A_1 not the identity off its block, so H_2 is not SL_2(F_2)^2 block by
    # block; C_1^2 not I mod 2, so it is no relator; and an image size not
    # dividing the group order. All three are explicit raises.
    script = textwrap.dedent("""
        import types
        import twistcert.congruence as c
        from twistcert.matrices import IntMatrix
        closure_generators = c.closure_generators
        corrupt = IntMatrix.from_unit_entries(4, {(1, 2): 1})  # I + E_12, not symplectic
        for index, matrix, message in ((0, corrupt, "on their block"),
                                       (8, closure_generators(2)[0].m, "C1^2 is not I mod 2")):
            gens = list(closure_generators(2))
            gens[index] = types.SimpleNamespace(m=matrix, genus=2)
            c.closure_generators = lambda genus=2: tuple(gens)
            try:
                c.quotient_closure()
            except ArithmeticError as exc:
                if message not in str(exc):
                    raise SystemExit(f"raised by another check: {exc}")
            else:
                raise SystemExit(f"corrupted generator {index} accepted")
        c.closure_generators = closure_generators
        c.sp_group_order_mod = lambda genus, modulus: 737280 * 3 + 1
        try:
            c.quotient_closure()
        except ArithmeticError:
            raise SystemExit(0)
        raise SystemExit("size not dividing the group order accepted")
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_full_twist_group_covers_sp4_mod4():
    # with C1^{+-1} (not just squares) the twists generate the whole group;
    # the closure count independently validates the group-order formula.
    # Own row-table BFS: a packed key holds matrix row i in byte i, and each
    # table maps a row byte to the byte of (row times generator) mod 4.
    gens = []
    for i in (1, 2):
        for kind in ("A", "B"):
            m = twist_gen(kind, i, 2)
            gens += [m, m.inverse()]
    c1 = twist_gen("C", 1, 2)
    gens += [c1, c1.inverse()]

    def row_table(gen):
        out = bytearray()
        for byte in range(256):
            row = [(byte >> (2 * k)) & 3 for k in range(4)]
            prod = [sum(row[k] * gen.m.rows[k][j] for k in range(4)) % 4 for j in range(4)]
            out.append(sum(x << (2 * j) for j, x in enumerate(prod)))
        return bytes(out)

    tables = [row_table(g) for g in gens]
    ident = reduce_mod(IntMatrix.identity(4), 4).packed_word()
    visited = {ident}
    frontier = array("I", [ident])
    while frontier:
        raw = frontier.tobytes()
        fresh = set()
        for table in tables:
            fresh.update(array("I", raw.translate(table)))
        fresh -= visited
        visited |= fresh
        frontier = array("I", fresh)
    assert len(visited) == sp_group_order_mod(2, 4) == 737280


def test_closure_elements_symplectic_mod_4(closure_table):
    rng = random.Random(97)
    j = symplectic_form(2)
    j_mod = reduce_mod(j, 4)
    sample = rng.sample(sorted(elements(closure_table)), 300)
    for packed in sample:
        rows = tuple(
            tuple((packed >> (2 * (4 * i + c))) & 3 for c in range(4))
            for i in range(4)
        )
        m = IntMatrix(rows)
        assert reduce_mod(IntMatrix(tuple(zip(*m.rows))) @ j @ m, 4) == j_mod


def test_closure_generator_count():
    gens = closure_generators(2)
    assert len(gens) == 10  # 4g + 2(g-1) at g = 2


def test_closure_cache_round_trip(tmp_path, closure_table):
    path = tmp_path / "closure.bin"
    table = quotient_closure(str(path))
    assert path.exists()
    again = quotient_closure(str(path))
    assert elements(again) == elements(table) == elements(closure_table)
    # header mismatch forces a rewrite
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    rebuilt = quotient_closure(str(path))
    assert elements(rebuilt) == elements(table)
    assert path.read_bytes() == raw


PARENT_CACHE_SHA256 = "24c2a4902c502d4ff2d7329f09675d9d5b1a5160956bcfbd6bec57cd30b691ae"


def _decode_cache(raw):
    """The header fields and the basis vectors of a version-2 cache file."""
    magic, version, genus, modulus, rank = struct.unpack_from("<4sIIII", raw)
    width = genus * genus
    assert len(raw) == 20 + width * rank
    vectors = tuple(int.from_bytes(raw[20 + width * k:20 + width * (k + 1)], "little")
                    for k in range(rank))
    return magic, version, genus, modulus, vectors


def test_closure_cache_bytes_pinned(tmp_path):
    # header <4sIIII (magic, version 2, genus, modulus, rank), then the 10
    # basis vectors as 4 little-endian bytes each
    path = tmp_path / "closure.bin"
    quotient_closure(str(path))
    raw = path.read_bytes()
    assert len(raw) == 60
    assert hashlib.sha256(raw).hexdigest() == PARENT_CACHE_SHA256
    assert _decode_cache(raw) == (b"TWCL", 2, 2, 4, congruence._closure_certificate(2).basis)
    assert os.listdir(tmp_path) == ["closure.bin"]  # no temporary file left


def _v1_cache_bytes(keys, count=None):
    """A version-1 file: the header with a key count, then u32 keys."""
    count = len(keys) if count is None else count
    return struct.pack(f"<4sIIII{len(keys)}I", b"TWCL", 1, 2, 4, count, *keys)


@pytest.mark.parametrize("case", [
    "only_key_zero", "missing_identity", "repeated_key", "size_not_dividing",
    "short_data", "trailing_data", "huge_count", "empty", "version_1",
])
def test_closure_cache_rejects_inconsistent_file(tmp_path, closure_table, case):
    ident = reduce_mod(IntMatrix.identity(4), 4).packed_word()
    keys = sorted(elements(closure_table))
    others = [k for k in keys if k != ident]
    raw = {
        "only_key_zero": _v1_cache_bytes([0]),
        "missing_identity": _v1_cache_bytes(others[:36864 // 2]),
        "repeated_key": _v1_cache_bytes(keys[:-1] + keys[:1]),
        "size_not_dividing": _v1_cache_bytes([ident] + others[:6]),
        "short_data": _v1_cache_bytes(keys)[:-4],
        "trailing_data": _v1_cache_bytes(keys) + b"\0\0\0\0",
        "huge_count": _v1_cache_bytes([ident], count=2 ** 32 - 1),
        "empty": b"",
        "version_1": _v1_cache_bytes(keys),     # the whole image, as written before
    }[case]
    path = tmp_path / "closure.bin"
    path.write_bytes(raw)
    table = quotient_closure(str(path))
    assert elements(table) == elements(closure_table)
    # the file was rewritten to the version-2 bytes
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PARENT_CACHE_SHA256


def test_empty_cache_file_is_rewritten_in_a_fresh_process(tmp_path):
    path = tmp_path / "closure.bin"
    path.write_bytes(b"")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    script = "import sys\nfrom twistcert.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    result = subprocess.run([sys.executable, "-c", script, "index", "--cache", str(path)],
                            env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PARENT_CACHE_SHA256


def test_membership_witness_check_survives_optimize():
    # the synthesized-witness re-evaluation is an explicit check, not an
    # assert, so it still runs under python -O
    script = textwrap.dedent("""
        import twistcert.congruence as c
        from twistcert.matrices import SpMatrix
        c._closure_certificate(3)      # built from the true generators, then patched
        c.eval_gen_word = lambda word: SpMatrix.identity(word.genus)
        root = c.root_matrix(c.RootSpec("Z", 1, 3, t=4), 3)
        try:
            verdict = c.membership(root)
        except ArithmeticError as exc:
            if str(exc) == "synthesized word for Z1,3^4 does not evaluate to the matrix":
                raise SystemExit(0)
            raise
        raise SystemExit(f"membership returned {verdict.verdict}")
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_closure_cache_env_var(capsys, tmp_path, monkeypatch):
    # TWISTCERT_CACHE is not read: --cache PATH and quotient_closure(path)
    # are the only ways to name the file
    path = tmp_path / "env_closure.bin"
    monkeypatch.setenv("TWISTCERT_CACHE", str(path))
    v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
    assert _quiet_main(capsys, "index") == 0
    assert _quiet_main(capsys, "membership", v14, "--genus", "2") == 0
    quotient_closure()
    assert os.listdir(tmp_path) == ["v14.txt"]


def _quiet_main(capsys, *argv):
    code = main([*map(str, argv), "--format", "json"])
    capsys.readouterr()
    return code


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_closure_memo_never_hides_a_changed_cache(capsys, tmp_path):
    # the certificate is memoized per process, but every call compares the
    # file with the export bytes afresh: each change below is rewritten,
    # whatever the process wrote or saw before
    v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
    source = tmp_path / "source.bin"
    assert _quiet_main(capsys, "index", "--cache", source) == 0
    assert _sha256(source) == PARENT_CACHE_SHA256
    raw = source.read_bytes()
    path = tmp_path / "closure.bin"
    path.write_bytes(raw)
    changes = {
        "header": b"XXXX" + raw[4:],
        "swapped_vectors": raw[:20] + raw[24:28] + raw[20:24] + raw[28:],
        "trailing_byte": raw + b"\0",
        "wrong_basis": raw[:20] + bytes(40),
    }
    for n, changed in enumerate(changes.values()):
        assert _quiet_main(capsys, "index", "--cache", path) == 0   # left as it was
        path.write_bytes(changed)
        argv = ["index"] if n % 2 else ["membership", v14, "--genus", "2"]
        assert _quiet_main(capsys, *argv, "--cache", path) == 0
        assert path.read_bytes() == raw
    # a file that holds the export bytes is not replaced, nor written to
    os.utime(path, ns=(10 ** 9, 10 ** 9))
    before = os.stat(path)
    for argv in (["index"], ["membership", v14, "--genus", "2"]):
        assert _quiet_main(capsys, *argv, "--cache", path) == 0
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (before.st_ino, 10 ** 9, 60)


def test_closure_pieces_built_once_per_process(capsys, tmp_path, monkeypatch, closure_table):
    built = Counter()

    def counting(name, fn):
        def spy(*args):
            built[name] += 1
            return fn(*args)
        return spy

    build = congruence._closure_certificate.__wrapped__
    monkeypatch.setattr(congruence, "_closure_certificate",
                        lru_cache(maxsize=None)(counting("certificate", build)))

    c1 = write_matrix(tmp_path, twist_gen("C", 1, 2), "c1.txt")
    v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
    existing, new_a, new_b = (tmp_path / name for name in ("existing.bin", "a.bin", "b.bin"))
    ops = [
        (["index"], 0),
        (["index", "--cache", existing], 0),                          # writes it
        (["membership", c1, "--genus", "2"], 1),
        (["index", "--cache", existing], 0),
        (["membership", v14, "--genus", "2", "--cache", new_a], 0),
        (["membership", c1, "--genus", "2", "--cache", existing], 1),
        (["index", "--cache", new_b], 0),
        (["membership", v14, "--genus", "2", "--cache", existing], 0),
        (["index"], 0),
        (["index", "--cache", existing], 0),
    ]
    assert [_quiet_main(capsys, *argv) for argv, _ in ops] == [code for _, code in ops]
    assert built == {"certificate": 1}

    table = quotient_closure()
    assert table.basis == build(2).basis
    assert elements(table) == elements(closure_table)     # the BFS oracle's image
    # three writes in one process, each the pinned bytes, no temporary file left
    assert [_sha256(p) for p in (existing, new_a, new_b)] == [PARENT_CACHE_SHA256] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.bin", "b.bin", "c1.txt", "existing.bin", "v14.txt"]


def test_membership_genus_two(closure_table):
    assert membership(twist_gen("C", 1, 2)).verdict == NOT_IN_GAMMA
    assert not mod2_block_test(twist_gen("C", 1, 2))  # independent obstruction
    v14 = root_matrix(RootSpec("V", 1, t=4), 2)
    assert membership(v14).verdict == IN_GAMMA


def test_membership_holds_for_random_generator_words(closure_table):
    rng = random.Random(83)
    for _ in range(100):
        w = random_gen_word(rng, 2, rng.randint(1, 10))
        assert membership(eval_gen_word(w)).verdict == IN_GAMMA


def test_membership_with_witness():
    rng = random.Random(89)
    for g in (2, 3):
        w = random_gen_word(rng, g, 6)
        m = eval_gen_word(w)
        verdict = membership(m, witness=w)
        assert verdict.verdict == IN_GAMMA
        assert verdict.witness == w
    with pytest.raises(ValueError):
        membership(SpMatrix.identity(2), witness=GenWord(2, (("A", 1, 1),)))


def test_membership_genus_three_paths():
    assert membership(twist_gen("C", 1, 3)).verdict == NOT_IN_GAMMA
    assert membership(SpMatrix.identity(3)).verdict == IN_GAMMA
    assert membership(twist_gen("A", 2, 3)).verdict == IN_GAMMA
    assert membership(twist_gen("C", 2, 3).pow(2)).verdict == IN_GAMMA
    root = root_matrix(RootSpec("Z", 1, 3, t=4), 3)
    verdict = membership(root)
    assert verdict.verdict == IN_GAMMA
    assert verdict.witness is not None
    assert eval_gen_word(verdict.witness) == root
    # block-diagonal mod 2 but not a recognizable root element or generator
    mystery = eval_gen_word(parse_gen_word("A1 B2 A1 C1^2 B3^-1", 3))
    assert membership(mystery).verdict == UNKNOWN
    # a Z root element with exponent not a multiple of 2^(g-1) stays unknown
    small_root = root_matrix(RootSpec("Z", 1, 2, t=2), 3)
    assert membership(small_root).verdict == UNKNOWN


@pytest.mark.parametrize("genus", [3, 4])
def test_membership_synthesizes_v_and_w_at_every_exponent(genus):
    # synthesize_root writes V_i^t and W_i^t at every t, so step 4 accepts
    # them at every t, not only at the multiples of 2^(g-1)
    for kind in "VW":
        for i in (1, genus):
            for t in (2, 3, -3, 5):
                m = root_matrix(RootSpec(kind, i, t=t), genus)
                verdict = membership(m)
                assert verdict.verdict == IN_GAMMA, (kind, i, t)
                assert verdict.detail == f"synthesized root word for {kind}{i}^{t}"
                assert eval_gen_word(verdict.witness) == m
    # V_i^1 is A_i itself and stays a generator
    assert membership(root_matrix(RootSpec("V", 1), genus)).detail == "generator"
    assert membership(root_matrix(RootSpec("Z", 1, 2, t=2), genus)).verdict == UNKNOWN


def test_membership_conjugation_not_invariant(closure_table):
    # the subgroup is not normal: conjugating a member by an outside element
    # can leave the subgroup, so no invariance is asserted; exhibit one case
    b1 = twist_gen("B", 1, 2)
    c1 = twist_gen("C", 1, 2)
    conjugated = c1 @ b1 @ c1.inverse()
    assert membership(b1).verdict == IN_GAMMA
    assert membership(conjugated).verdict == NOT_IN_GAMMA


def test_gamma_index(closure_table):
    index = gamma_index()
    assert index == 20  # regression constant from the first verified run
    assert index % 20 == 0
    assert index >= 20
    assert index <= 2 ** 64


def test_library_membership_and_index_leave_the_cache_file_alone(tmp_path):
    # only quotient_closure(cache_path) reads or writes the cache file; a
    # library verdict does not
    path = tmp_path / "closure.bin"
    assert membership(twist_gen("C", 1, 2)).verdict == NOT_IN_GAMMA
    assert membership(root_matrix(RootSpec("V", 1, t=4), 2)).verdict == IN_GAMMA
    assert gamma_index() == 20
    assert not path.exists()
    quotient_closure(str(path))
    assert path.exists()


def test_closure_generators_built_once_per_genus():
    gens = closure_generators(4)
    assert isinstance(gens, tuple)
    assert closure_generators(4) is gens
    assert len(gens) == 4 * 4 + 2 * 3
    assert gens[0] == twist_gen("A", 1, 4)
    assert gens[-1] == twist_gen("C", 3, 4).inverse().pow(2)


def test_verify_identities_builds_each_d_once(monkeypatch):
    import twistcert.congruence as congruence

    built = []
    real = congruence.d_matrix
    monkeypatch.setattr(congruence, "d_matrix", lambda i, g: built.append(i) or real(i, g))
    report = verify_identities(6)
    assert sorted(built) == [1, 2, 3, 4, 5]
    # names, order, verdicts and details as before D_i was shared
    pinned = json.dumps([[c.name, c.passed, c.detail] for c in report.checks])
    assert len(report.checks) == 84
    assert hashlib.sha256(pinned.encode()).hexdigest() == (
        "9fd6b3748ff8b16b8c44cc74ae3000fd22b4152d6bc506df2f94a201eb4d7bbd")
