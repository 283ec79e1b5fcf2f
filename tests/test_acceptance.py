"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated runtime budget. Run with `pytest -v tests/test_acceptance.py`.
"""
import math
import random
import time

from twistcert.certify import certify_report
from twistcert.congruence import (
    IN_GAMMA,
    NOT_IN_GAMMA,
    GenWord,
    RootSpec,
    eval_gen_word,
    gamma_index,
    membership,
    quotient_closure,
    root_matrix,
    sp_group_order_mod,
    synthesize_root,
    twist_gen,
    verify_identities,
)
from twistcert.matrices import det, mat_mul, sp_check
from twistcert.polynomials import (
    IntPoly,
    charpoly,
    factor_over_Z,
    is_reciprocal,
)
from twistcert.surgery import (
    TorusClass,
    TwistOrderRejection,
    dehn_fried_equivalent_twist_order,
    monodromy_from_plan,
    new_meridian_class,
    plan_from_T_word,
)
from twistcert.words import (
    TBlock,
    TDecomposition,
    eval_word,
    parse_word,
    validate_family_T,
)

from brute_force_factor import factor_over_Z_bruteforce
from layer_oracle import elements, recheck_generator_closed
from mod_oracle import mod2_block_test

EXAMPLE_WORD = "d1^-2 c1^-2 a1 d1^-2 b2 b1"
EXAMPLE_MATRIX = ((1, 0, 3, -2), (0, 1, -2, 2), (-1, 0, -2, 2), (0, -1, 2, -1))


def _report(n, description, elapsed, budget):
    assert elapsed < budget, f"criterion {n} exceeded budget: {elapsed:.2f}s >= {budget}s"
    print(f"PASS criterion {n}: {description} [{elapsed:.2f}s < {budget}s]")


def test_criterion_1_example_end_to_end():
    start = time.monotonic()
    word = parse_word(EXAMPLE_WORD, 2)
    matrix = eval_word(word)
    assert matrix.m.rows == EXAMPLE_MATRIX  # all 16 entries exact
    assert charpoly(matrix.m) == IntPoly((1, 1, -2, 1, 1))
    report = certify_report(word)
    assert report.anosov_certified
    assert report.pa.status == "CertifiedPA"
    assert report.hyperbolic == "yes"
    _report(1, "example word end-to-end, exact matrix and certified verdicts",
            time.monotonic() - start, 1.0)


def test_criterion_2_identity_suite():
    start = time.monotonic()
    total = 0
    for g in range(2, 7):
        result = verify_identities(g)
        assert result.all_passed, [c.name for c in result.failures()]
        names = [c.name for c in result.checks]
        # every identity family is represented at each genus where non-vacuous
        assert any(n.startswith("v_equals_a_twist") for n in names)
        assert any(n.startswith("w_equals_b_twist_inverse") for n in names)
        assert any(n.startswith("x_up_base") for n in names)
        assert any(n.startswith("x_down_base") for n in names)
        assert any(n.startswith("z_base") for n in names)
        assert any(n.startswith("y_from_z_conjugation") for n in names)
        assert any(n.startswith("quarter_turn") for n in names)
        assert "rotations_give_form_matrix" in names
        assert sum(n.startswith("chain_relation") for n in names) == g - 1
        if g >= 3:
            assert any(n.startswith("x_up_step") for n in names)
            assert any(n.startswith("x_down_step") for n in names)
            assert any(n.startswith("z_step") for n in names)
        total += len(result.checks)
    _report(2, f"identity suite passes for g=2..6 ({total} checks)",
            time.monotonic() - start, 10.0)


def test_criterion_3_synthesis_soundness():
    start = time.monotonic()
    words = 0
    total_length = 0
    for g in range(2, 6):
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
            assert len(word) > 0
            assert eval_gen_word(word) == root_matrix(spec, g), f"g={g} {spec}"
            words += 1
            total_length += len(word)
    _report(3, f"synthesis sound for {words} root specs at g=2..5 "
               f"(total word length {total_length})",
            time.monotonic() - start, 30.0)


def test_criterion_4_quotient_closure():
    start = time.monotonic()
    table = quotient_closure()
    assert sp_group_order_mod(2, 4) == 737280
    assert 737280 % table.size == 0
    assert recheck_generator_closed(table)
    specs = [RootSpec("V", i, t=2) for i in (1, 2)]
    specs += [RootSpec("W", i, t=2) for i in (1, 2)]
    specs += [RootSpec("X", 1, 2, 2), RootSpec("X", 2, 1, 2),
              RootSpec("Y", 1, 2, 2), RootSpec("Z", 1, 2, 2)]
    for spec in specs:
        assert table.contains(root_matrix(spec, 2)), str(spec)
    assert membership(twist_gen("C", 1, 2)).verdict == NOT_IN_GAMMA
    v14 = root_matrix(RootSpec("V", 1, t=4), 2)
    assert membership(v14).verdict == IN_GAMMA
    index = gamma_index()
    assert index % 20 == 0 and index >= 20 and index <= 2 ** 64
    # stability across runs, regression-pinned after the first verified run
    second = quotient_closure()
    assert elements(second) == elements(table)
    assert table.size == 36864 and index == 20
    _report(4, f"genus-2 closure |image|={table.size}, index={index}, "
               "generator-closed, memberships exact",
            time.monotonic() - start, 60.0)


def test_criterion_5_surgery_table():
    start = time.monotonic()
    for k in range(-5, 6):
        assert dehn_fried_equivalent_twist_order(0, k) == k
    table_rows = {(1, 2): -2, (-1, -2): 2, (2, 1): -1, (-2, -1): 1}
    for (twist, k), order in table_rows.items():
        assert dehn_fried_equivalent_twist_order(twist, k) == order
    for twist in (-2, -1, 1, 2):
        for k in range(-3, 4):
            if (twist, k) in table_rows:
                continue
            try:
                dehn_fried_equivalent_twist_order(twist, k)
            except TwistOrderRejection:
                pass
            else:
                raise AssertionError(f"({twist},{k}) must be rejected")
    for twist in (-2, -1, 0, 1, 2):
        for k in range(-3, 4):
            assert new_meridian_class(twist, k) == \
                TorusClass(1 - k * twist, k).normalized()
    for (twist, k) in table_rows:
        assert new_meridian_class(twist, k) == TorusClass(1, -k)
    _report(5, "surgery index/twist-order table exact, meridian classes match",
            time.monotonic() - start, 1.0)


def test_criterion_6_round_trip_property():
    start = time.monotonic()
    rng = random.Random(0xA11CE)
    for trial in range(500):
        g = rng.choice((2, 3))
        blocks = tuple(
            TBlock(
                tuple(rng.randint(-3, 3) for _ in range(g)),
                tuple(rng.randint(-3, 3) for _ in range(g)),
                tuple(rng.choice((0, -2)) for _ in range(g - 1)),
            )
            for _ in range(rng.randint(1, 4))
        )
        dec = TDecomposition(blocks)
        word = dec.reassemble()
        parsed = validate_family_T(word)
        assert parsed == dec, f"trial {trial}"
        back = monodromy_from_plan(plan_from_T_word(parsed))
        assert validate_family_T(back) == dec, f"trial {trial}"
        assert eval_word(back) == eval_word(word), f"trial {trial}"
    _report(6, "plan/monodromy round trip exact on 500 random family words",
            time.monotonic() - start, 30.0)


def test_criterion_7_invariant_suite():
    start = time.monotonic()
    rng = random.Random(0xFACADE)
    for trial in range(1000):
        g = rng.choice((2, 3, 4))
        letters = []
        for _ in range(rng.randint(4, 12)):
            kind = rng.choice("AABBC")
            if kind == "C":
                letters.append(("C", rng.randint(1, g - 1), rng.choice((2, -2))))
            else:
                letters.append((kind, rng.randint(1, g), rng.choice((1, -1))))
        word = GenWord(g, tuple(letters))
        m = eval_gen_word(word)
        assert sp_check(m.m), f"trial {trial}"
        assert det(m.m) == 1, f"trial {trial}"
        assert is_reciprocal(charpoly(m.m)), f"trial {trial}"
        assert mat_mul(m.m, m.inverse().m).is_identity(), f"trial {trial}"
        assert mod2_block_test(m), f"trial {trial}"
    _report(7, "symplectic/det/reciprocal/inverse/mod-2 invariants on 1000 words",
            time.monotonic() - start, 60.0)


def test_criterion_8_factorization_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(0xFAC70)
    for trial in range(200):
        degree = rng.choice((2, 4, 6, 8))
        half = [rng.randint(-5, 5) for _ in range(degree // 2)]
        # palindrome: a_0 = a_d = 1, a_i = a_{d-i}
        mirror = [0] * (degree + 1)
        mirror[0] = mirror[degree] = 1
        for i, c in enumerate(half, start=1):
            mirror[i] = c
            mirror[degree - i] = c
        p = IntPoly(tuple(mirror))
        assert is_reciprocal(p) and p.is_monic() and p.degree == degree
        fast = factor_over_Z(p)
        brute = factor_over_Z_bruteforce(p)
        assert fast == brute, f"trial {trial}: {p}"
        assert math.prod(fast, start=IntPoly((1,))) == p
    _report(8, "Zassenhaus route agrees with brute-force search on 200 "
               "reciprocal polynomials",
            time.monotonic() - start, 60.0)
