"""Certification verdicts for twist words: transitive-Anosov certificates via
membership in the block family, and pseudo-Anosov (hence hyperbolic mapping
torus) certificates via the homological characteristic-polynomial criterion.

The pseudo-Anosov check is a one-sided certificate: Inconclusive never claims
"not pseudo-Anosov".
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .matrices import SpMatrix
from .polynomials import (
    IntPoly,
    charpoly,
    check_symplectic_charpoly,
    cyclotomic_factor_indices,
    factor_over_Z,
    is_polynomial_in_x_power,
    is_polynomial_in_x_squared,
    symplectically_irreducible_factors,
)
from .words import (
    FamilyRejection,
    TBlock,
    TDecomposition,
    TwistWord,
    eval_word,
    validate_family_T,
)

CERTIFIED_PA = "CertifiedPA"
INCONCLUSIVE = "Inconclusive"

REASON_REDUCIBLE = "reducible_charpoly"
REASON_CYCLOTOMIC = "cyclotomic"
REASON_X_SQUARED = "polynomial_in_x2"
REASON_NOT_SYMPL_IRRED = "not_symplectically_irreducible"


@dataclass(frozen=True)
class PAVerdict:
    status: str
    reasons: frozenset[str]

    def __post_init__(self) -> None:
        if self.status == CERTIFIED_PA and self.reasons:
            raise ValueError("a certified verdict carries no reasons")
        if self.status == INCONCLUSIVE and not self.reasons:
            raise ValueError("an inconclusive verdict needs at least one reason")

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED_PA

    def sorted_reasons(self) -> list[str]:
        return sorted(self.reasons)


def pa_failure_reasons(chi: IntPoly, strict_power_mode: bool = False) -> frozenset[str]:
    """Failing checks of the homological criterion for a characteristic
    polynomial: empty iff chi is symplectically irreducible, not a product of
    cyclotomics, and not a polynomial in x^2.

    strict_power_mode additionally rejects polynomials in x^k for any k >= 2
    (the base criterion tests only x^2). Reducibility over Z is reported as a
    diagnostic alongside a failure, never on its own. Every reason is read
    off one factorization of chi over Z.
    """
    check_symplectic_charpoly(chi)
    factors = factor_over_Z(chi)
    reasons = set()
    if not symplectically_irreducible_factors(factors):
        reasons.add(REASON_NOT_SYMPL_IRRED)
    if cyclotomic_factor_indices(factors) is not None:
        reasons.add(REASON_CYCLOTOMIC)
    if is_polynomial_in_x_squared(chi):
        reasons.add(REASON_X_SQUARED)
    elif strict_power_mode and any(
            is_polynomial_in_x_power(chi, k) for k in range(3, chi.degree + 1)):
        reasons.add(REASON_X_SQUARED)
    if reasons and len(factors) > 1:
        reasons.add(REASON_REDUCIBLE)
    return frozenset(reasons)


def certify_pa(m: SpMatrix, strict_power_mode: bool = False) -> PAVerdict:
    """One-sided pseudo-Anosov certificate from the homology action."""
    return _pa_verdict(charpoly(m), strict_power_mode)


def _pa_verdict(chi: IntPoly, strict_power_mode: bool) -> PAVerdict:
    reasons = pa_failure_reasons(chi, strict_power_mode=strict_power_mode)
    return PAVerdict(INCONCLUSIVE, reasons) if reasons else PAVerdict(CERTIFIED_PA, frozenset())


@dataclass(frozen=True)
class CertReport:
    """Full certification record for one word."""

    word: TwistWord
    matrix: SpMatrix
    charpoly: IntPoly
    anosov: TDecomposition | FamilyRejection
    pa: PAVerdict

    @property
    def hyperbolic(self) -> str:
        """Hyperbolic mapping torus: "yes" iff the PA verdict is certified."""
        return "yes" if self.pa.certified else "unknown"

    @property
    def anosov_certified(self) -> bool:
        return isinstance(self.anosov, TDecomposition)


def certify_report(word: TwistWord, strict_power_mode: bool = False) -> CertReport:
    matrix = eval_word(word)
    chi = charpoly(matrix)
    anosov = validate_family_T(word)
    return CertReport(
        word=word,
        matrix=matrix,
        charpoly=chi,
        anosov=anosov,
        pa=_pa_verdict(chi, strict_power_mode),
    )


def sample_t_block(genus: int, exponent_bound: int, rng: random.Random) -> TBlock:
    """One random block: a- and b-exponents uniform in [-bound, bound],
    c-exponents uniform in {0, -2}."""
    p = tuple(rng.randint(-exponent_bound, exponent_bound) for _ in range(genus))
    q = tuple(rng.randint(-exponent_bound, exponent_bound) for _ in range(genus))
    r = tuple(rng.choice((0, -2)) for _ in range(genus - 1))
    return TBlock(p, q, r)


def sample_t_word(genus: int, block_count: int, exponent_bound: int,
                  rng: random.Random) -> TwistWord:
    blocks = tuple(sample_t_block(genus, exponent_bound, rng) for _ in range(block_count))
    return TDecomposition(blocks).reassemble()


@dataclass(frozen=True)
class DensityResult:
    genus: int
    block_count: int
    samples: int
    exponent_bound: int
    seed: int
    certified: int
    reason_counts: dict[str, int]

    @property
    def fraction(self) -> float:
        return self.certified / self.samples


def density_experiment(genus: int, block_count: int, samples: int,
                       exponent_bound: int, seed: int) -> DensityResult:
    """Certify `samples` random family words and report the certified
    fraction plus a histogram of failure reasons.

    Per-sample rngs derive from (seed, sample index), so the result does not
    depend on evaluation order.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    certified = 0
    reason_counts: dict[str, int] = {}
    for index in range(samples):
        # per-sample integer seed: schedule-independent and version-stable
        rng = random.Random(seed * 0x1000003 + index)
        word = sample_t_word(genus, block_count, exponent_bound, rng)
        verdict = certify_pa(eval_word(word))
        if verdict.certified:
            certified += 1
        for reason in verdict.sorted_reasons():
            reason_counts[reason] = reason_counts.get(reason, 0) + 1
    return DensityResult(
        genus=genus,
        block_count=block_count,
        samples=samples,
        exponent_bound=exponent_bound,
        seed=seed,
        certified=certified,
        reason_counts=dict(sorted(reason_counts.items())),
    )
