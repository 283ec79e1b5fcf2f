"""Integer homology calculus on the boundary torus of a blown-up periodic
orbit: meridian/longitude classes, twist numbers, the surgery-index vs
twist-order equivalence table, the block surgery planner and the monodromy
composer.

Classes on the torus are written in a (meridian, longitude) basis; the basis
tag records whether the longitude coefficient refers to the stable longitude
or to the one traced by the fiber surface. Fiber levels are symbolic
(block index, phase), never floating point.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import (
    CurveLetter,
    TBlock,
    TDecomposition,
    TwistWord,
)

STABLE = "stable"
SURFACE = "surface"

PHASE_ZERO = "0"
PHASE_3PI2 = "3pi/2"

# (twist, index k) pairs admitting a fibration-preserving equivalence with a
# Dehn twist of order -k; twist 0 admits every k with order k.
_TWISTED_CASES = {(1, 2), (-1, -2), (2, 1), (-2, -1)}


@dataclass(frozen=True)
class TorusClass:
    """mu*meridian + lam*longitude, with the longitude basis tagged."""

    mu: int
    lam: int
    basis: str = SURFACE

    def __post_init__(self) -> None:
        if self.basis not in (STABLE, SURFACE):
            raise ValueError(f"unknown basis tag {self.basis!r}")

    def normalized(self) -> TorusClass:
        """Sign-normalize so the first nonzero coefficient is positive
        (Dehn fillings depend only on the unoriented class)."""
        lead = self.mu if self.mu != 0 else self.lam
        if lead < 0:
            return TorusClass(-self.mu, -self.lam, self.basis)
        return self


def twist_of_orbit(curve: CurveLetter) -> int:
    """Twist number of the local stable manifold of the orbit over the curve,
    with respect to the fiber containing it: 0 for a- and b-orbits, +1 for
    c-orbits."""
    if curve.kind == "d":
        raise ValueError("d-orbits define the base monodromy; no surgeries on them")
    return 1 if curve.kind == "c" else 0


class TwistOrderRejection(ValueError):
    """No fibration-preserving equivalence is established for (twist, k)."""

    def __init__(self, twist: int, index_k: int):
        super().__init__(
            f"no twist-order equivalence for twist={twist}, index k={index_k}")
        self.twist = twist
        self.index_k = index_k


def dehn_fried_equivalent_twist_order(twist: int, index_k: int) -> int:
    """Dehn-twist order equivalent to the index-k surgery on an orbit with the
    given twist number: any k at twist 0 (order k); exactly the four twisted
    cases (1,2), (-1,-2), (2,1), (-2,-1) otherwise (order -k)."""
    if twist == 0:
        return index_k
    if (twist, index_k) in _TWISTED_CASES:
        return -index_k
    raise TwistOrderRejection(twist, index_k)


def stable_longitude_in_surface_basis(twist: int) -> TorusClass:
    """The stable longitude written in the (meridian, surface longitude)
    basis: (-twist, 1)."""
    return TorusClass(-twist, 1, SURFACE)


def new_meridian_class(twist: int, index_k: int) -> TorusClass:
    """Post-surgery meridian mu + k*lambda_stable, rewritten in the surface
    basis as (1 - k*twist, k) and sign-normalized."""
    return TorusClass(1 - index_k * twist, index_k, SURFACE).normalized()


@dataclass(frozen=True)
class OrbitSpec:
    """A periodic orbit sitting in a fiber: curve and symbolic fiber level
    (block index, phase tag). Its twist number is that of its curve."""

    curve: CurveLetter
    block: int
    phase: str

    def __post_init__(self) -> None:
        if self.curve.kind == "d":
            raise ValueError("d-orbits are not surgery sites")
        if self.phase not in (PHASE_ZERO, PHASE_3PI2):
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.block < 1:
            raise ValueError("block index must be >= 1")

    @property
    def twist(self) -> int:
        return twist_of_orbit(self.curve)


@dataclass(frozen=True)
class SurgeryOp:
    """One surgery: orbit, index k, and the induced twist order l; the
    triple (twist, k, l) must satisfy the equivalence table."""

    orbit: OrbitSpec
    index_k: int
    order_l: int

    def __post_init__(self) -> None:
        expected = dehn_fried_equivalent_twist_order(self.orbit.twist, self.index_k)
        if expected != self.order_l:
            raise ValueError(
                f"(twist={self.orbit.twist}, k={self.index_k}) gives order "
                f"{expected}, not {self.order_l}")


@dataclass(frozen=True)
class SurgeryPlan:
    """Surgeries grouped by block, one group per copy of the
    trivial-on-homology d-twist product in the base."""

    genus: int
    ops: tuple[tuple[SurgeryOp, ...], ...]

    def __post_init__(self) -> None:
        for s, group in enumerate(self.ops, start=1):
            seen: set[tuple[str, str, int]] = set()
            for op in group:
                if op.orbit.block != s:
                    raise ValueError("op filed under the wrong block")
                if not op.orbit.curve.valid_for(self.genus):
                    raise ValueError(f"orbit {op.orbit.curve} out of range for genus {self.genus}")
                key = (op.orbit.phase, op.orbit.curve.kind, op.orbit.curve.index)
                if key in seen:
                    raise ValueError(f"duplicate orbit {op.orbit.curve} in block {s}")
                seen.add(key)

    @property
    def block_count(self) -> int:
        return len(self.ops)

    def op_count(self) -> int:
        return sum(len(group) for group in self.ops)


def plan_from_T_word(dec: TDecomposition) -> SurgeryPlan:
    """Surgery plan realizing the decomposition: per block, an index-p_i
    surgery on each a_i orbit and an index-q_j surgery on each b_j orbit
    (twist 0), and an index +2 surgery on each c_k orbit with r_k = -2
    (twist +1, order -2)."""
    groups: list[tuple[SurgeryOp, ...]] = []
    for s, block in enumerate(dec.blocks, start=1):
        group: list[SurgeryOp] = []
        for kind, phase, exponents in (("a", PHASE_ZERO, block.p), ("c", PHASE_ZERO, block.r),
                                       ("b", PHASE_3PI2, block.q)):
            for index, e in enumerate(exponents, start=1):
                if e:
                    orbit = OrbitSpec(CurveLetter(kind, index), s, phase)
                    twist = orbit.twist
                    k = e if twist == 0 else -e     # order l = e: k = l, or -l if twisted
                    group.append(SurgeryOp(orbit, k, dehn_fried_equivalent_twist_order(twist, k)))
        groups.append(tuple(group))
    return SurgeryPlan(dec.genus, tuple(groups))


def monodromy_from_plan(plan: SurgeryPlan) -> TwistWord:
    """The fibration monodromy after performing the plan, as a word in
    canonical block form (d-part, b-part, c-part, a-part per block)."""
    g = plan.genus
    blocks: list[TBlock] = []
    for group in plan.ops:
        orders = {"a": [0] * g, "b": [0] * g, "c": [0] * (g - 1)}
        for op in group:
            orders[op.orbit.curve.kind][op.orbit.curve.index - 1] = op.order_l
        blocks.append(TBlock(tuple(orders["a"]), tuple(orders["b"]), tuple(orders["c"])))
    return TDecomposition(tuple(blocks)).reassemble()


def plan_as_json_dict(plan: SurgeryPlan) -> dict:
    """Structured-text form: ordered blocks, each op as curve/phase/k/twist/l."""
    return {
        "genus": plan.genus,
        "block_count": plan.block_count,
        "blocks": [
            {
                "ops": [
                    {
                        "curve": str(op.orbit.curve),
                        "phase": op.orbit.phase,
                        "k": op.index_k,
                        "twist": op.orbit.twist,
                        "l": op.order_l,
                    }
                    for op in group
                ]
            }
            for group in plan.ops
        ],
    }
