"""twistcert: exact integer certification for Dehn-twist words on surfaces.

Given a word in the twist alphabet {a_i, b_j, c_k, d_l} on a genus-g surface,
the library evaluates its action on first homology as an exact symplectic
integer matrix, certifies when the mapping torus carries a transitive Anosov
flow (membership in the block family of certifiable words), certifies
pseudo-Anosov monodromy through the characteristic-polynomial criterion,
produces the corresponding surgery plans with monodromy round trips, and
decides membership in the finite-index symplectic subgroup generated by the
allowed twists, exactly at genus 2 through a layer certificate of its image
mod 4.
"""

from .matrices import (
    IntMatrix,
    SpMatrix,
    det,
    mat_mul,
    sp_check,
    symplectic_form,
)
from .polynomials import (
    IntPoly,
    charpoly,
    cyclotomic_polynomial,
    factor_over_Z,
    is_cyclotomic_product,
    is_reciprocal,
    is_symplectically_irreducible,
)
from .words import (
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
from .surgery import (
    SurgeryOp,
    SurgeryPlan,
    TorusClass,
    TwistOrderRejection,
    dehn_fried_equivalent_twist_order,
    monodromy_from_plan,
    new_meridian_class,
    plan_from_T_word,
    stable_longitude_in_surface_basis,
    twist_of_orbit,
)
from .certify import (
    CertReport,
    PAVerdict,
    certify_pa,
    certify_report,
    density_experiment,
    pa_failure_reasons,
    sample_t_word,
)
from .congruence import (
    ClosureTable,
    GenWord,
    MembershipVerdict,
    RootSpec,
    d_matrix,
    eval_gen_word,
    gamma_index,
    membership,
    quotient_closure,
    root_matrix,
    synthesize_root,
    verify_identities,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix", "SpMatrix", "det", "mat_mul", "sp_check", "symplectic_form",
    "IntPoly", "charpoly", "cyclotomic_polynomial", "factor_over_Z",
    "is_cyclotomic_product", "is_reciprocal", "is_symplectically_irreducible",
    "CurveLetter", "FamilyRejection", "TBlock", "TDecomposition", "TwistWord",
    "WordSyntaxError", "eval_word", "format_word", "generator_matrix",
    "hat_tau_d_word", "parse_word", "validate_family_T",
    "SurgeryOp", "SurgeryPlan", "TorusClass",
    "TwistOrderRejection", "dehn_fried_equivalent_twist_order",
    "monodromy_from_plan", "new_meridian_class", "plan_from_T_word",
    "stable_longitude_in_surface_basis", "twist_of_orbit",
    "CertReport", "PAVerdict", "certify_pa", "certify_report",
    "density_experiment", "pa_failure_reasons", "sample_t_word",
    "ClosureTable", "GenWord", "MembershipVerdict", "RootSpec", "d_matrix",
    "eval_gen_word", "gamma_index", "membership", "quotient_closure",
    "root_matrix", "synthesize_root", "verify_identities",
]
