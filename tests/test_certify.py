import dataclasses
import random

import pytest

from twistcert.certify import (
    CERTIFIED_PA,
    INCONCLUSIVE,
    REASON_CYCLOTOMIC,
    REASON_NOT_SYMPL_IRRED,
    REASON_REDUCIBLE,
    REASON_X_SQUARED,
    CertReport,
    PAVerdict,
    certify_pa,
    certify_report,
    density_experiment,
    pa_failure_reasons,
    sample_t_word,
)
from twistcert.matrices import SpMatrix
from twistcert.polynomials import IntPoly, charpoly, cyclotomic_polynomial, factor_over_Z
from twistcert.words import (
    CurveLetter,
    FamilyRejection,
    TBlock,
    TDecomposition,
    eval_word,
    hat_tau_d_word,
    parse_word,
    validate_family_T,
)


def test_certify_pa_example_matrix(example_word_text):
    m = eval_word(parse_word(example_word_text, 2))
    verdict = certify_pa(m)
    assert verdict.status == CERTIFIED_PA
    assert verdict.reasons == frozenset()


def test_certify_pa_identity():
    verdict = certify_pa(SpMatrix.identity(2))
    assert verdict.status == INCONCLUSIVE
    # chi = (x-1)^4 is reducible, cyclotomic and symplectically reducible; its
    # odd coefficients are nonzero, so the x^2 reason does not fire
    assert verdict.reasons == frozenset(
        {REASON_REDUCIBLE, REASON_CYCLOTOMIC, REASON_NOT_SYMPL_IRRED})


def test_certify_pa_hat_tau_d():
    m = eval_word(hat_tau_d_word(2))
    assert certify_pa(m).status == INCONCLUSIVE


def test_pa_verdict_invariants():
    with pytest.raises(ValueError):
        PAVerdict(CERTIFIED_PA, frozenset({REASON_CYCLOTOMIC}))
    with pytest.raises(ValueError):
        PAVerdict(INCONCLUSIVE, frozenset())


def test_pa_reasons_x_squared():
    chi = IntPoly((1, 0, -3, 0, 1))  # x^4 - 3x^2 + 1, symplectically irreducible
    reasons = pa_failure_reasons(chi)
    assert REASON_X_SQUARED in reasons
    assert REASON_REDUCIBLE in reasons
    assert REASON_NOT_SYMPL_IRRED not in reasons


def test_pa_reasons_strict_power_mode():
    chi = cyclotomic_polynomial(9)  # x^6 + x^3 + 1: in x^3 but not in x^2
    assert REASON_X_SQUARED not in pa_failure_reasons(chi)
    assert REASON_X_SQUARED in pa_failure_reasons(chi, strict_power_mode=True)
    example = IntPoly((1, 1, -2, 1, 1))
    assert pa_failure_reasons(example, strict_power_mode=True) == frozenset()


def test_certify_report_example(example_word_text):
    report = certify_report(parse_word(example_word_text, 2))
    assert report.anosov_certified
    assert report.pa.status == CERTIFIED_PA
    assert report.hyperbolic == "yes"
    assert report.charpoly == IntPoly((1, 1, -2, 1, 1))


def test_certify_report_computes_charpoly_once(example_word_text, monkeypatch):
    import twistcert.certify as certify

    calls = []

    def counting_charpoly(m):
        calls.append(m)
        return charpoly(m)

    monkeypatch.setattr(certify, "charpoly", counting_charpoly)
    report = certify_report(parse_word(example_word_text, 2))
    assert len(calls) == 1
    assert report.pa == certify_pa(report.matrix)


def test_certify_report_factors_once(monkeypatch):
    import twistcert.certify as certify
    import twistcert.polynomials as polynomials

    calls = []

    def counting_factor(p):
        calls.append(p)
        return factor_over_Z(p)

    monkeypatch.setattr(certify, "factor_over_Z", counting_factor)
    monkeypatch.setattr(polynomials, "factor_over_Z", counting_factor)
    # chi = (x-1)^4: reducible, cyclotomic and symplectically reducible
    report = certify_report(parse_word("a1", 2))
    assert len(calls) == 1
    assert report.pa.reasons == frozenset(
        {REASON_REDUCIBLE, REASON_CYCLOTOMIC, REASON_NOT_SYMPL_IRRED})


def test_hyperbolic_is_derived_from_the_pa_verdict():
    assert "hyperbolic" not in {f.name for f in dataclasses.fields(CertReport)}


def test_certify_report_hat_tau_d():
    report = certify_report(hat_tau_d_word(2))
    assert report.anosov_certified
    assert report.pa.status == INCONCLUSIVE
    assert report.hyperbolic == "unknown"


def test_certify_report_single_twist():
    report = certify_report(parse_word("a1", 2))
    assert not report.anosov_certified
    assert isinstance(report.anosov, FamilyRejection)
    assert report.pa.status == INCONCLUSIVE
    # chi = (x-1)^(2g)
    assert report.charpoly == IntPoly((1, -4, 6, -4, 1))


def test_certify_pa_conjugation_invariant():
    rng = random.Random(61)
    for _ in range(10):
        g = rng.choice((2, 3))
        word = sample_t_word(g, 2, 2, rng)
        m = eval_word(word)
        conjugator = eval_word(sample_t_word(g, 1, 2, rng))
        conjugated = conjugator.inverse() @ m @ conjugator
        assert certify_pa(conjugated) == certify_pa(m)


def test_certify_pa_inverse_invariant():
    rng = random.Random(67)
    for _ in range(10):
        g = rng.choice((2, 3))
        m = eval_word(sample_t_word(g, 2, 2, rng))
        assert certify_pa(m.inverse()) == certify_pa(m)


def test_anosov_stable_under_base_block_insertion():
    rng = random.Random(71)
    for _ in range(10):
        g = rng.choice((2, 3))
        word = sample_t_word(g, 2, 2, rng)
        dec = validate_family_T(word)
        assert isinstance(dec, TDecomposition)
        trivial = TBlock((0,) * g, (0,) * g, (0,) * (g - 1))
        for at in range(len(dec.blocks) + 1):
            padded = TDecomposition(dec.blocks[:at] + (trivial,) + dec.blocks[at:]).reassemble()
            assert isinstance(validate_family_T(padded), TDecomposition)


def test_density_trivial_blocks_certify_nothing():
    result = density_experiment(2, 1, 5, 0, 7)
    assert result.certified == 0
    assert result.fraction == 0.0


def test_density_deterministic():
    a = density_experiment(2, 2, 30, 2, 99)
    b = density_experiment(2, 2, 30, 2, 99)
    assert a == b
    assert density_experiment(2, 2, 30, 2, 100) != a


def test_density_regression_fixture():
    # frozen after the first verified run of this implementation
    result = density_experiment(2, 2, 200, 2, 12345)
    assert result.certified == 94
    assert 0.0 < result.fraction < 1.0
    assert result.reason_counts == {
        "cyclotomic": 22,
        "not_symplectically_irreducible": 98,
        "polynomial_in_x2": 13,
        "reducible_charpoly": 102,
    }


def test_density_validates_samples():
    with pytest.raises(ValueError):
        density_experiment(2, 1, 0, 1, 1)
