import random

import pytest

from twistcert.surgery import (
    PHASE_3PI2,
    PHASE_ZERO,
    SurgeryOp,
    SurgeryPlan,
    TorusClass,
    TwistOrderRejection,
    dehn_fried_equivalent_twist_order,
    monodromy_from_plan,
    new_meridian_class,
    plan_as_json_dict,
    plan_from_T_word,
    stable_longitude_in_surface_basis,
    twist_of_orbit,
)
from twistcert.words import (
    CurveLetter,
    TBlock,
    TDecomposition,
    eval_word,
    generator_matrix,
    hat_tau_d_word,
    parse_word,
    validate_family_T,
)


def test_twist_of_orbit():
    assert twist_of_orbit(CurveLetter("a", 3)) == 0
    assert twist_of_orbit(CurveLetter("b", 1)) == 0
    assert twist_of_orbit(CurveLetter("c", 2)) == 1
    with pytest.raises(ValueError):
        twist_of_orbit(CurveLetter("d", 1))


def test_equivalence_table():
    for k in range(-5, 6):
        assert dehn_fried_equivalent_twist_order(0, k) == k
    assert dehn_fried_equivalent_twist_order(1, 2) == -2
    assert dehn_fried_equivalent_twist_order(-1, -2) == 2
    assert dehn_fried_equivalent_twist_order(2, 1) == -1
    assert dehn_fried_equivalent_twist_order(-2, -1) == 1
    with pytest.raises(TwistOrderRejection) as err:
        dehn_fried_equivalent_twist_order(1, 3)
    assert (err.value.twist, err.value.index_k) == (1, 3)
    for twist in (-2, -1, 1, 2):
        for k in range(-3, 4):
            if (twist, k) in ((1, 2), (-1, -2), (2, 1), (-2, -1)):
                continue
            with pytest.raises(TwistOrderRejection):
                dehn_fried_equivalent_twist_order(twist, k)
    # twists outside the listed range always reject
    with pytest.raises(TwistOrderRejection):
        dehn_fried_equivalent_twist_order(3, 1)


def test_stable_longitude_in_surface_basis():
    assert stable_longitude_in_surface_basis(0) == TorusClass(0, 1)
    assert stable_longitude_in_surface_basis(1) == TorusClass(-1, 1)
    assert stable_longitude_in_surface_basis(-2) == TorusClass(2, 1)


def test_new_meridian_class():
    for k in (-3, 0, 1, 4):
        assert new_meridian_class(0, k) == TorusClass(1, k)
    assert new_meridian_class(1, 2) == TorusClass(1, -2)
    assert new_meridian_class(2, 1) == TorusClass(1, -1)
    assert new_meridian_class(-1, -2) == TorusClass(1, 2)
    # sign normalization: first nonzero coefficient positive
    assert TorusClass(-1, 2).normalized() == TorusClass(1, -2)
    assert TorusClass(0, -3).normalized() == TorusClass(0, 3)


def test_table_rows_match_meridian_classes():
    # twist 0: meridian mu + k*lambda_S, order k
    for k in range(-5, 6):
        assert new_meridian_class(0, k) == TorusClass(1, k)
        assert dehn_fried_equivalent_twist_order(0, k) == k
    # the four twisted rows normalize to (1, -k), consistent with order -k
    for twist, k in ((1, 2), (-1, -2), (2, 1), (-2, -1)):
        assert new_meridian_class(twist, k) == TorusClass(1, -k)
        assert dehn_fried_equivalent_twist_order(twist, k) == -k


def bracket(x: TorusClass, y: TorusClass) -> int:
    """Alternating pairing mu1*lam2 - lam1*mu2."""
    return x.mu * y.lam - x.lam * y.mu


def intersection(x: TorusClass, y: TorusClass) -> int:
    """Oriented intersection number, oriented so Int(section, meridian) = +1
    for dynamically oriented sections."""
    return bracket(y, x)


def rederive_longitude_shift(twist: int) -> int:
    """The coefficient j in lambda' = lambda + j*mu, read off lambda' after
    its intersection with lambda is checked to be the twist."""
    lam = TorusClass(0, 1)
    lam_prime = TorusClass(-twist, 1)
    assert intersection(lam_prime, lam) == twist
    return lam_prime.mu


def test_intersection_pairing_conventions():
    mu = TorusClass(1, 0)
    lam = TorusClass(0, 1)
    assert bracket(lam, mu) == -1
    for m in (-2, 0, 5):
        section = TorusClass(m, 1)
        assert intersection(section, mu) == 1
    for twist in (-2, -1, 0, 1, 2):
        assert rederive_longitude_shift(twist) == -twist


def test_orbit_twist_is_that_of_its_curve():
    for kind, top in (("a", 3), ("b", 3), ("c", 2)):
        for index in range(1, top + 1):
            curve = CurveLetter(kind, index)
            k, order = (2, -2) if kind == "c" else (1, 1)
            op = SurgeryOp(curve, k, order)
            assert op.twist == twist_of_orbit(curve)
            assert op.phase == (PHASE_3PI2 if kind == "b" else PHASE_ZERO)
    # an a-orbit has twist 0, so index k = 2 gives order +2, never -2
    a1 = CurveLetter("a", 1)
    with pytest.raises(ValueError, match="gives order 2, not -2"):
        SurgeryOp(a1, 2, -2)
    plan = SurgeryPlan(2, ((SurgeryOp(a1, 2, 2),),))
    assert (plan.block_count, plan.op_count()) == (1, 1)
    assert monodromy_from_plan(plan) == parse_word("d1^-2 a1^2", 2)
    assert plan_as_json_dict(plan)["blocks"][0]["ops"][0]["twist"] == 0


def test_surgery_op_validates_table():
    c1 = CurveLetter("c", 1)
    SurgeryOp(c1, 2, -2)
    with pytest.raises(ValueError):
        SurgeryOp(c1, 2, 2)
    with pytest.raises(TwistOrderRejection):
        SurgeryOp(c1, 3, -3)
    with pytest.raises(ValueError, match="no surgeries on them"):
        SurgeryOp(CurveLetter("d", 1), 1, 1)


def test_plan_from_example_word(example_word_text):
    dec = validate_family_T(parse_word(example_word_text, 2))
    plan = plan_from_T_word(dec)
    assert plan.block_count == 2
    block1 = [(str(op.curve), op.index_k, op.order_l, op.phase)
              for op in plan.ops[0]]
    assert block1 == [("a1", 1, 1, PHASE_ZERO), ("c1", 2, -2, PHASE_ZERO)]
    block2 = [(str(op.curve), op.index_k, op.order_l, op.phase)
              for op in plan.ops[1]]
    assert block2 == [("b1", 1, 1, PHASE_3PI2), ("b2", 1, 1, PHASE_3PI2)]


def test_plan_hat_tau_d_is_empty():
    dec = validate_family_T(hat_tau_d_word(3))
    plan = plan_from_T_word(dec)
    assert plan.block_count == 1
    assert plan.op_count() == 0


def test_plan_b_block_arbitrary_order():
    g = 3
    block = TBlock((0,) * g, (0, 0, -3), (0,) * (g - 1))
    plan = plan_from_T_word(TDecomposition((block,)))
    (op,) = plan.ops[0]
    assert str(op.curve) == "b3"
    assert op.index_k == -3 and op.order_l == -3


def test_monodromy_round_trip(example_word_text):
    word = parse_word(example_word_text, 2)
    dec = validate_family_T(word)
    back = monodromy_from_plan(plan_from_T_word(dec))
    assert validate_family_T(back) == dec
    assert eval_word(back) == eval_word(word)


def test_monodromy_from_empty_plan():
    plan = SurgeryPlan(2, ((),))
    word = monodromy_from_plan(plan)
    assert word == hat_tau_d_word(2)


def test_monodromy_single_a_op():
    plan = SurgeryPlan(2, ((SurgeryOp(CurveLetter("a", 1), 1, 1),),))
    word = monodromy_from_plan(plan)
    assert eval_word(word) == generator_matrix(CurveLetter("a", 1), 2)


def test_round_trip_property_small():
    rng = random.Random(51)
    for _ in range(60):
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
        plan = plan_from_T_word(dec)
        back = monodromy_from_plan(plan)
        assert validate_family_T(back) == validate_family_T(word)
        assert eval_word(back) == eval_word(word)


def test_plan_rejects_duplicate_orbits():
    a1 = CurveLetter("a", 1)
    op = SurgeryOp(a1, 1, 1)
    # the second pair are two ops on one curve; monodromy_from_plan kept only
    # the last of them, so op_count() counted a surgery the monodromy lacked
    for group in ((op, op), (op, SurgeryOp(a1, 2, 2))):
        with pytest.raises(ValueError, match="^duplicate orbit a1 in block 2$"):
            SurgeryPlan(2, ((), group))
    out_of_range = SurgeryOp(CurveLetter("a", 5), 1, 1)
    with pytest.raises(ValueError):
        SurgeryPlan(2, ((out_of_range,),))


def test_plan_serialization(example_word_text):
    dec = validate_family_T(parse_word(example_word_text, 2))
    tree = plan_as_json_dict(plan_from_T_word(dec))
    assert tree["genus"] == 2 and tree["block_count"] == 2
    first = tree["blocks"][0]["ops"]
    assert first[0] == {"curve": "a1", "phase": "0", "k": 1, "twist": 0, "l": 1}
    assert first[1] == {"curve": "c1", "phase": "0", "k": 2, "twist": 1, "l": -2}
