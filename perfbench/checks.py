"""Checks of each op's exit code and JSON against the independent oracle.

An exit code of 1 is an expected outcome for a rejected word or a
NotInGamma verdict; an op fails only when its output or exit code disagrees
with what the oracle derives.
"""
from __future__ import annotations

import json

import oracle
import workloads

CERTIFIED = "CertifiedPA"


class Checker:
    """Holds the lazily built references: sympy for the PA criterion and the
    genus-2 image mod 4."""

    def __init__(self) -> None:
        self._pa: oracle.PAOracle | None = None
        self._image: set[int] | None = None
        self._pa_memo: dict[str, tuple] = {}

    @property
    def image(self) -> set[int]:
        if self._image is None:
            self._image = oracle.closure_mod4_genus2()
        return self._image

    def pa(self, text: str, g: int, letters: list) -> tuple:
        """(matrix, charpoly, reasons, irreducible) for a twist word, memoized
        by word text."""
        key = f"{g}:{text}"
        if key not in self._pa_memo:
            if self._pa is None:
                self._pa = oracle.PAOracle()
            m = oracle.eval_twist_word(letters, g)
            chi = self._pa.charpoly(m)
            reasons, irreducible = self._pa.pa_reasons(chi)
            self._pa_memo[key] = (m, chi, reasons, irreducible)
        return self._pa_memo[key]

    def check_op(self, op, rc: int, text: str, created: bool | None = None) -> str | None:
        """None when the op's outcome agrees with the oracle, else why not.
        `created` says whether a cache file the op should write existed
        right after it."""
        try:
            payload = json.loads(text)
        except ValueError:
            return f"exit {rc}, output is not one JSON object: {text[:200]!r}"
        kind = op.expect["kind"]
        if "writes" in op.expect and not created:
            return "cache file not written"
        try:
            return getattr(self, "_" + kind.replace("-", "_"))(op.expect, rc, payload)
        except (KeyError, TypeError, IndexError) as exc:
            return f"malformed {kind} output ({exc!r}): {text[:200]!r}"

    def _certify(self, e: dict, rc: int, out: dict) -> str | None:
        g = e["genus"]
        m, chi, reasons, irreducible = self.pa(e["text"], g, e["letters"])
        if e.get("readme") and (m != oracle.README_MATRIX or chi != oracle.README_CHARPOLY):
            return "the oracle does not reproduce the README example"
        status = "Inconclusive" if reasons else CERTIFIED
        family = e["reject_at"] is None
        problems = []
        if rc != (0 if family else 1):
            problems.append(f"exit {rc}")
        if (out["command"], out["genus"], out["word"]) != ("certify", g, e["text"]):
            problems.append("echoed command, genus or word")
        if out["matrix"] != m:
            problems.append("matrix")
        if out["charpoly"] != chi:
            problems.append("charpoly")
        # the one-sided criterion, re-derived from sympy's factors
        if out["pa_status"] == CERTIFIED and reasons:
            problems.append(f"CertifiedPA although {sorted(reasons)}")
        if irreducible and "cyclotomic" not in reasons and any(chi[1::2]) \
                and out["pa_status"] != CERTIFIED:
            problems.append("irreducible non-cyclotomic charpoly with an odd term not certified")
        if (out["pa_status"], set(out["pa_reasons"])) != (status, reasons):
            problems.append(f"PA verdict {out['pa_status']} {out['pa_reasons']}, "
                            f"expected {status} {sorted(reasons)}")
        if out["hyperbolic"] != ("yes" if status == CERTIFIED else "unknown"):
            problems.append("hyperbolic")
        if out["anosov"] != family:
            problems.append("anosov")
        elif family and _blocks(out["decomposition"]["blocks"]) != _expected_blocks(e):
            problems.append("decomposition blocks differ from the built blocks")
        elif not family and out["rejection"]["position"] != e["reject_at"]:
            problems.append(f"rejection at {out['rejection']['position']}, "
                            f"expected {e['reject_at']}")
        return "; ".join(problems) or None

    def _plan(self, e: dict, rc: int, out: dict) -> str | None:
        family = e["reject_at"] is None
        if rc != (0 if family else 1) or out["accepted"] != family:
            return f"exit {rc}, accepted {out['accepted']}"
        if out["word"] != e["text"]:
            return "echoed word"
        if not family:
            if out["rejection"]["position"] != e["reject_at"]:
                return f"rejection at {out['rejection']['position']}, expected {e['reject_at']}"
            return None
        if out["round_trip_ok"] is not True or out["monodromy"] != e["text"]:
            return "monodromy round trip"
        plan = out["plan"]
        if plan["block_count"] != len(e["blocks"]):
            return "block count"
        for group, (p, q, r) in zip(plan["blocks"], e["blocks"]):
            got = sorted((op["curve"], op["l"]) for op in group["ops"])
            want = sorted([(f"a{i}", x) for i, x in enumerate(p, 1) if x]
                          + [(f"b{j}", x) for j, x in enumerate(q, 1) if x]
                          + [(f"c{k}", x) for k, x in enumerate(r, 1) if x])
            if got != want:
                return f"surgery ops {got}, expected {want}"
        return None

    def _verify_claims(self, e: dict, rc: int, out: dict) -> str | None:
        checks = out["checks"]
        if rc != 0 or out["all_passed"] is not True or not checks \
                or not all(c["passed"] for c in checks) or out["genus"] != e["genus"]:
            return f"exit {rc}, all_passed {out['all_passed']}"
        return None

    def _synthesize(self, e: dict, rc: int, out: dict) -> str | None:
        kind, i, j, t = e["spec"]
        g = e["genus"]
        word = oracle.parse_gen_word(out["word"])
        if rc != 0 or out["verified"] is not True:
            return f"exit {rc}, verified {out['verified']}"
        if out["spec"] != workloads.spec_text(kind, i, j, t):
            return f"spec echoed as {out['spec']}"
        if out["length"] != len(word) or not word:
            return "word length"
        if oracle.eval_gen_word(word, g) != oracle.root_matrix(kind, i, j, t, g):
            return "the word does not evaluate to the root element"
        return None

    def _membership(self, e: dict, rc: int, out: dict) -> str | None:
        g, m = e["genus"], e["matrix"]
        if g == 2:
            member = oracle.key_mod4(m) in self.image
        else:
            member = e["member"]
            if not member and oracle.mod2_block_diagonal(m, g):
                return "input has no mod-2 obstruction"
        if member != e["member"]:
            return "the oracle disagrees with how the input was built"
        want = ("InGamma", 0) if member else ("NotInGamma", 1)
        if (out["verdict"], rc) != want:
            return f"{out['verdict']} with exit {rc}, expected {want}"
        if e.get("witness"):
            if "witness" not in out:
                return "no witness"
            if oracle.eval_gen_word(oracle.parse_gen_word(out["witness"]), g) != m:
                return "witness does not evaluate to the matrix"
        return None

    def _index(self, e: dict, rc: int, out: dict) -> str | None:
        size = len(self.image)
        order = oracle.sp_order_mod_prime_power(2, 2, 2)
        if rc != 0 or out["modulus"] != 4 or out["image_size"] != size \
                or out["index"] * size != order:
            return (f"exit {rc}, image {out['image_size']} index {out['index']}, "
                    f"expected {size} and {order // size}")
        return None


def _blocks(blocks: list[dict]) -> list[tuple]:
    return [(b["p"], b["q"], b["r"]) for b in blocks]


def _expected_blocks(e: dict) -> list[tuple]:
    return [(list(p), list(q), list(r)) for p, q, r in e["blocks"]]
