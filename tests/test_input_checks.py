"""Each explicit input check of the library, reached directly: the call must
raise that check's own exception and message, not one from further in."""
import re

import pytest

from twistcert.congruence import (GenWord, RootSpec, d_matrix, d_prime_matrix, membership,
                                  verify_identities)
from twistcert.matrices import SpMatrix
from twistcert.polynomials import IntPoly, _gf_divmod, cyclotomic_polynomial, euler_phi
from twistcert.surgery import PHASE_ZERO, OrbitSpec
from twistcert.words import CurveLetter

A1 = CurveLetter("a", 1)

CASES = {
    "membership-witness-genus": (
        lambda: membership(SpMatrix.identity(2), witness=GenWord(3, ())),
        ValueError, "witness genus mismatch"),
    "root-spec-v-second-index": (lambda: RootSpec("V", 1, 2), ValueError,
                                 "V takes a single index"),
    "root-spec-w-second-index": (lambda: RootSpec("W", 2, 1), ValueError,
                                 "W takes a single index"),
    "d-matrix-below": (lambda: d_matrix(0, 3), ValueError, "index 0 out of range"),
    "d-matrix-above": (lambda: d_matrix(3, 3), ValueError, "index 3 out of range"),
    "d-prime-matrix-below": (lambda: d_prime_matrix(1, 3), ValueError, "index 1 out of range"),
    "d-prime-matrix-above": (lambda: d_prime_matrix(4, 3), ValueError, "index 4 out of range"),
    "verify-identities-genus-1": (lambda: verify_identities(1), ValueError,
                                  "genus must be >= 2"),
    "euler-phi-0": (lambda: euler_phi(0), ValueError, "n must be positive"),
    "cyclotomic-0": (lambda: cyclotomic_polynomial(0), ValueError, "n must be positive"),
    "cyclotomic-negative": (lambda: cyclotomic_polynomial(-2), ValueError,
                            "n must be positive"),
    "monic-divmod-non-monic": (lambda: IntPoly((1, 0, 1)).monic_divmod(IntPoly((1, 2))),
                               ValueError, "divisor must be monic"),
    "gf-divmod-zero-divisor": (lambda: _gf_divmod([1, 1], [], 3), ZeroDivisionError, ""),
    "orbit-phase": (lambda: OrbitSpec(A1, 1, "pi"), ValueError, "unknown phase 'pi'"),
    "orbit-block": (lambda: OrbitSpec(A1, 0, PHASE_ZERO), ValueError,
                    "block index must be >= 1"),
    "curve-kind": (lambda: CurveLetter("e", 1), ValueError, "unknown curve kind 'e'"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_check_raises_its_own_error(name):
    call, kind, message = CASES[name]
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is kind
