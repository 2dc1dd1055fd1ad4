"""Randomized verification of the intertwining diagrams and invariance laws.

Every identity the library is built around is checked here on seeded random
inputs: the one-qubit Moebius intertwining on the complex line, the
two-qubit encoding square for both local unitary variants, the three-way
equality of conformal images along independent computation paths, the
closed-form expressions for the transformed Schmidt and concurrence data,
and the concurrence invariance laws.  Alongside the positive checks, counterexample searches demonstrate
that the alternative operand orderings of the quaternionic Moebius action
genuinely fail to intertwine.

All randomness is derived from (seed, seed-space index, trial index): each
index reads one counter-based stream and each trial a fixed slice of it
(:func:`qgeo.batch.uniforms`), so reports are deterministic for a fixed seed
regardless of evaluation order.  One table, ``_GROUPS``, holds every seeded
row with its report section: the checks at indices 0-7, the two failure
searches at 8 and 9 and the exploratory candidate at 10.  One trial loop runs
them in blocks (:mod:`qgeo.batch`), bit for bit equal to the scalar
evaluators below, which stay the public API and replay stored inputs by name.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import batch
from .quaternion import Quaternion, ZERO_NORM_SQ, _abs2, chordal_distance
from .states import (
    OneQubitState,
    Quaterbit,
    TwoQubitState,
    concurrence_term,
    decode_amplitudes,
    encode_amplitudes,
    quaternionify,
    schmidt_term,
    wootters_preconcurrence,
)
from .conformal import (
    INFINITY,
    conformal_map,
    conformal_map_one_qubit,
    schmidt_concurrence_form,
)
from .local_unitary import (
    LocalUnitary,
    SO2Element,
    SU2Element,
    Variant,
    _require_variant,
    apply_B_quaterbit,
    apply_cb,
    apply_su2,
    decode_su2,
    decode_transform,
    encode_transform,
    quat_matrix,
)
from .moebius import (
    MoebiusQ,
    VariantOrder,
    apply_moebius_q,
    apply_moebius_q_variant,
    moebius_from_local_unitary,
)

# Deviation above which an alternative ordering counts as a genuine failure:
# far above roundoff, far below the chordal metric's bound of 2.
WITNESS_THRESHOLD = 0.01

# Suite-level tolerance whose default leaves every check at its contract value.
DEFAULT_SUITE_TOL = 1e-10

# The searches draw theta uniformly on the arcs where |sin(theta)| >= 0.1,
# away from the degenerate values where all operand orderings coincide.
_MIN_ABS_SIN = 0.1


class FailureSearch(Enum):
    """Which alternative intertwining to hunt counterexamples for."""

    LEFT_DENOMINATOR_ON_SO2XSU2 = "left_denominator_variant_on_so2xsu2"
    CANONICAL_ON_SU2XSO2 = "right_coefficient_map_on_su2xso2"


# ---------------------------------------------------------------------------
# Per-input deviation evaluators
# ---------------------------------------------------------------------------


def check_one_qubit_diagram(a: SU2Element, psi: OneQubitState) -> float:
    """Chordal gap between the Moebius image of the conformal point and the
    conformal image of the transformed state.

    The Moebius map is the left-coefficient action of the SU(2) matrix on
    the complex line, Lee et al.'s complex map.
    """
    x = conformal_map_one_qubit(psi)
    lhs = apply_moebius_q_variant(MoebiusQ.from_su2(a), x, VariantOrder.LEFT_COEFFICIENTS)
    rhs = conformal_map_one_qubit(apply_su2(a, psi))
    return chordal_distance(lhs, rhs)


def _quaterbit_gap(x: Quaterbit, y: Quaterbit) -> float:
    return max(abs(x.q1 - y.q1), abs(x.q2 - y.q2))


def check_quadrangle(u: LocalUnitary, psi: TwoQubitState) -> float:
    """Component gap between encode-then-transform and transform-then-encode."""
    lhs = quaternionify(apply_cb(u, psi))
    rhs = apply_B_quaterbit(u, quaternionify(psi))
    return _quaterbit_gap(lhs, rhs)


def check_three_way(u: LocalUnitary, psi: TwoQubitState) -> tuple[float, float, float]:
    """Chordal gaps (first equality, second equality, closed form) among the three paths.

    The three primary paths to a point of the extended quaternion line are:
    conformal image of the transformed amplitudes, conformal image of the
    transformed spinor, and Moebius image of the original conformal point.
    The closed-form cross-check compares the first value against the
    (S' + C'*j)/|q2'|^2 expression of the transformed state and against the
    same fraction predicted from the original state's Schmidt/concurrence
    data and the rotation angle; all three are independently coded.
    """
    qb = quaternionify(psi)
    psi2 = apply_cb(u, psi)

    v1 = conformal_map(quaternionify(psi2))
    v2 = conformal_map(apply_B_quaterbit(u, qb))
    v3 = apply_moebius_q(moebius_from_local_unitary(u), conformal_map(qb))

    w1, _ = schmidt_concurrence_form(psi2)

    s_term = schmidt_term(psi)
    c_term = concurrence_term(psi)
    n1 = _abs2(psi.alpha) + _abs2(psi.beta)
    n2 = _abs2(psi.gamma) + _abs2(psi.delta)
    c, s = math.cos(u.rot.theta), math.sin(u.rot.theta)
    den = n2 * c * c + n1 * s * s - 2.0 * s * c * s_term.real
    if den < ZERO_NORM_SQ:
        w2 = INFINITY
    else:
        num = c * c * s_term - s * s * s_term.conjugate() + s * c * (n2 - n1)
        w2 = Quaternion(num / den, c_term / den)

    first = chordal_distance(v1, v2)
    second = chordal_distance(v2, v3)
    closed = max(
        chordal_distance(v1, w1),
        chordal_distance(v1, w2),
        chordal_distance(w1, w2),
    )
    return first, second, closed


def check_second_qubit_inertness(a: SU2Element, psi: TwoQubitState) -> float:
    """Gap showing an SU(2) acting on the second qubit alone fixes the conformal image."""
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.0), a)
    before = conformal_map(quaternionify(psi))
    after = conformal_map(quaternionify(apply_cb(u, psi)))
    return chordal_distance(before, after)


def concurrence_invariance_gap(u: LocalUnitary, psi: TwoQubitState) -> float:
    """Deviation of the signed complex concurrence term under an so2xsu2 element."""
    return abs(concurrence_term(apply_cb(u, psi)) - concurrence_term(psi))


def concurrence_magnitude_gap(u: LocalUnitary, psi: TwoQubitState) -> float:
    """Deviation of |concurrence term| under a su2xso2 element."""
    return abs(abs(concurrence_term(apply_cb(u, psi))) - abs(concurrence_term(psi)))


def wootters_relation_gap(psi: TwoQubitState) -> float:
    """Deviation from preconcurrence = 2 * conj(concurrence term)."""
    return abs(wootters_preconcurrence(psi) - 2.0 * concurrence_term(psi).conjugate())


def variant_failure_deviation(
    which: FailureSearch, psi: TwoQubitState, u: LocalUnitary
) -> float:
    """Chordal gap of the designated alternative intertwining on one input.

    LEFT_DENOMINATOR_ON_SO2XSU2 plays the left-denominator ordering of the
    rotation-induced matrix against the conformal image of the transformed
    spinor.  CANONICAL_ON_SU2XSO2 plays the canonical right-coefficient
    action of the matrix built from su2xso2 parameters against the conformal
    image of that variant's spinor action.  Both reject a ``u`` of the
    other variant with a ValueError.
    """
    which = FailureSearch(which)
    left = which is FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2
    _require_variant(u, Variant.SO2_X_SU2 if left else Variant.SU2_X_SO2, which.value)
    qb = quaternionify(psi)
    x = conformal_map(qb)
    f = MoebiusQ(quat_matrix(u))
    lhs = apply_moebius_q_variant(f, x, VariantOrder.LEFT_DENOMINATOR) if left else apply_moebius_q(f, x)
    return chordal_distance(lhs, conformal_map(apply_B_quaterbit(u, qb)))


def left_coefficient_candidate_deviation(psi: TwoQubitState, u: LocalUnitary) -> float:
    """Gap of the left-coefficient ordering built from bare SU(2) entries on su2xso2.

    This is the one natural candidate not covered by the failure searches;
    the suite reports its deviation without asserting a contract.  (The
    rotation's right factor cancels inside the conformal image, so the
    candidate matrix carries the SU(2) entries alone.)  A ``u`` of another
    variant than su2xso2 is rejected with a ValueError.
    """
    _require_variant(u, Variant.SU2_X_SO2, "left_coefficient_candidate_deviation")
    qb = quaternionify(psi)
    f = MoebiusQ.from_su2(u.su2)
    lhs = apply_moebius_q_variant(f, conformal_map(qb), VariantOrder.LEFT_COEFFICIENTS)
    rhs = conformal_map(apply_B_quaterbit(u, qb))
    return chordal_distance(lhs, rhs)


# ---------------------------------------------------------------------------
# Report structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool
    worst_case: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Witness:
    """A concrete (state, transform) pair on which an alternative ordering fails."""

    state: TwoQubitState
    transform: LocalUnitary
    variant_tag: str
    deviation: float

    def to_dict(self) -> dict:
        doc = _inputs_doc((self.transform, self.state))
        return {**doc, "variant_tag": self.variant_tag, "deviation": self.deviation}

    def reevaluate(self) -> float:
        return reevaluate_check(self.variant_tag, self.to_dict())


@dataclass(frozen=True)
class WitnessSearchResult:
    name: str
    trials: int
    threshold: float
    witness: Witness | None

    @property
    def found(self) -> bool:
        return self.witness is not None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "threshold": self.threshold,
            "found": self.found,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


@dataclass(frozen=True)
class ExploratoryResult:
    name: str
    trials: int
    max_deviation: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DiagramReport:
    seed: int
    trials: int
    tolerance: float
    checks: tuple[CheckResult, ...]
    witness_searches: tuple[WitnessSearchResult, ...]
    exploratory: tuple[ExploratoryResult, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks) and all(
            w.found for w in self.witness_searches
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "checks": [c.to_dict() for c in self.checks],
            "witnesses": [w.to_dict() for w in self.witness_searches],
            "exploratory": [e.to_dict() for e in self.exploratory],
            "overall_pass": self.overall_pass,
        }


# ---------------------------------------------------------------------------
# Suite machinery
# ---------------------------------------------------------------------------

def _sample_state(seed: int, idx: int, trial: int) -> TwoQubitState:
    """The state of one trial, read on its own."""
    return TwoQubitState(*batch.haar_states(batch.uniforms(seed, idx, trial, trial + 1))[0])


def _sample_transform(variant: Variant, seed: int, idx: int, trial: int) -> LocalUnitary:
    """The transform of one trial of a check group, read on its own."""
    theta, a, b = batch.local_unitary_params(batch.uniforms(seed, idx, trial, trial + 1))
    return LocalUnitary(variant, SO2Element(theta[0]), SU2Element(a[0], b[0]))


def _search_angles(u: np.ndarray) -> np.ndarray:
    """theta uniform on the two arcs where |sin(theta)| >= _MIN_ABS_SIN, from uniforms u.

    At theta in {0, pi} the induced matrices have a single nonzero diagonal
    and all operand orderings coincide, so the searches leave those out.
    """
    low = math.asin(_MIN_ABS_SIN)
    arc = math.pi - 2.0 * low
    x = u * (2.0 * arc)
    return np.where(x < arc, low + x, math.pi + low + (x - arc))


# ---------------------------------------------------------------------------
# Block evaluation of the check groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """Sampled inputs of the trials from ``start`` on of one check group.

    ``theta``, ``a`` and ``b`` are the transform draws (None in a group
    without one) and ``psi`` the amplitude rows of the state draws.  In a
    group of local unitaries, ``factors`` holds the (first-qubit,
    second-qubit) factor arrays ``(a, b)`` of :meth:`LocalUnitary.factors`.
    """

    start: int
    theta: np.ndarray | None
    a: np.ndarray | None
    b: np.ndarray | None
    psi: np.ndarray
    factors: tuple | None

    def transported(self) -> np.ndarray:
        """Amplitude rows of ``apply_cb(u, psi)``."""
        return batch.matvec(batch.complex_forms(*self.factors), self.psi)


def _quaterbit_gap_block(x, y):
    return batch.max2(batch.qabs(batch.qsub(x[0], y[0])), batch.qabs(batch.qsub(x[1], y[1])))


def _no_scalar(blk: _Block) -> np.ndarray:
    return np.zeros(len(blk.psi), dtype=bool)


def _scalar_only(blk: _Block):
    """The block evaluator of a row that hands every trial to its scalar evaluator."""
    return np.empty((len(blk.psi), 1)), ~_no_scalar(blk)


def _embedded(z: np.ndarray):
    """Complex rows as quaternions z + 0 j (``embed_complex``)."""
    return batch.split(z), (0.0, 0.0)


def _one_qubit_block(blk: _Block):
    x, inf1 = batch.right_quotient(_embedded(blk.psi[:, 0]), _embedded(blk.psi[:, 1]))
    # The left-coefficient action of MoebiusQ.from_su2, whose invertibility
    # check cannot fire: the matrix is unitary.
    entries = (blk.a, blk.b, -np.conj(blk.b), np.conj(blk.a))
    m11, m12, m21, m22 = map(_embedded, entries)
    lhs, inf2 = batch.right_quotient(
        batch.qadd(batch.qmul(m11, x), m12), batch.qadd(batch.qmul(m21, x), m22)
    )
    v = batch.matvec(batch.su2_matrices(blk.a, blk.b), blk.psi)
    rhs, inf3 = batch.right_quotient(_embedded(v[:, 0]), _embedded(v[:, 1]))
    return batch.chordal_distance(lhs, rhs)[:, None], inf1 | inf2 | inf3


def _quadrangle_block(blk: _Block):
    lhs = batch.quaterbits(blk.transported())
    rhs = batch.spinor(*blk.factors, batch.quaterbits(blk.psi))
    return _quaterbit_gap_block(lhs, rhs)[:, None], _no_scalar(blk)


def _three_way_block(blk: _Block):
    (c, s), (a, b) = blk.factors
    c, s = c.real, s.real
    psi2 = blk.transported()
    qb = batch.quaterbits(blk.psi)
    v1, inf1 = batch.right_quotient(*batch.quaterbits(psi2))
    v2, inf2 = batch.right_quotient(*batch.spinor(*blk.factors, qb))
    x, inf3 = batch.right_quotient(*qb)
    v3, inf4 = batch.moebius_so2xsu2(c, s, batch.split(a), batch.split(b), x)

    gamma2, delta2 = batch.split(psi2[:, 2]), batch.split(psi2[:, 3])
    n2_after = batch.abs2(gamma2) + batch.abs2(delta2)
    w1 = (
        batch.div_real(batch.schmidt_term(psi2), n2_after),
        batch.div_real(batch.concurrence_term(psi2), n2_after),
    )

    s_term = batch.schmidt_term(blk.psi)
    c_term = batch.concurrence_term(blk.psi)
    alpha, beta, gamma, delta = (batch.split(blk.psi[:, j]) for j in range(4))
    n1 = batch.abs2(alpha) + batch.abs2(beta)
    n2 = batch.abs2(gamma) + batch.abs2(delta)
    den = n2 * c * c + n1 * s * s - 2.0 * s * c * s_term[0]
    num = batch.add(
        batch.sub(batch.real_mul(c * c, s_term), batch.real_mul(s * s, batch.conj(s_term))),
        (s * c * (n2 - n1), 0.0),
    )
    w2 = (batch.div_real(num, den), batch.div_real(c_term, den))

    first = batch.chordal_distance(v1, v2)
    second = batch.chordal_distance(v2, v3)
    closed = batch.max2(
        batch.max2(batch.chordal_distance(v1, w1), batch.chordal_distance(v1, w2)),
        batch.chordal_distance(w1, w2),
    )
    at_infinity = (
        inf1 | inf2 | inf3 | inf4 | (n2_after < ZERO_NORM_SQ) | (den < ZERO_NORM_SQ)
    )
    return np.stack([first, second, closed], axis=1), at_infinity


def _inertness_block(blk: _Block):
    # The so2xsu2 element with SO2Element(0.0): the identity on the first qubit.
    n = len(blk.psi)
    identity = (np.ones(n, dtype=complex), np.zeros(n, dtype=complex))
    form = batch.complex_forms(identity, (blk.a, blk.b))
    before, inf1 = batch.right_quotient(*batch.quaterbits(blk.psi))
    after, inf2 = batch.right_quotient(*batch.quaterbits(batch.matvec(form, blk.psi)))
    return batch.chordal_distance(before, after)[:, None], inf1 | inf2


def _concurrence_block(blk: _Block):
    after = batch.concurrence_term(blk.transported())
    dev = batch.cabs(batch.sub(after, batch.concurrence_term(blk.psi)))
    return dev[:, None], _no_scalar(blk)


def _concurrence_prime_block(blk: _Block):
    after = batch.cabs(batch.concurrence_term(blk.transported()))
    dev = np.abs(after - batch.cabs(batch.concurrence_term(blk.psi)))
    return dev[:, None], _no_scalar(blk)


def _wootters_block(blk: _Block):
    expected = batch.real_mul(2.0, batch.conj(batch.concurrence_term(blk.psi)))
    dev = batch.cabs(batch.sub(batch.wootters_preconcurrence(blk.psi), expected))
    return dev[:, None], _no_scalar(blk)


_SU2 = "su2"


@dataclass(frozen=True)
class _Group:
    """One seeded trial loop of the suite: one row of ``_GROUPS``.

    Trial t reads its uniforms from the stream of ``idx``.  ``transform``
    says what it draws besides its state: an SU(2) element (``"su2"``), a
    local unitary of a variant, or nothing.  ``evaluate`` is the scalar
    evaluator of one trial's inputs, returning one deviation per ``checks``
    entry (a name and its contract, or None); ``evaluate_block`` computes
    the same deviations for a block, with a mask of the trials it leaves to
    ``evaluate`` (those taking a branch other than the generic one).
    ``section`` is the report section of the row's results, ``checks``,
    ``witnesses`` or ``exploratory``; rows outside ``checks`` draw theta
    with :func:`_search_angles` and run min(trials, 100) trials.
    """

    idx: int
    checks: tuple[tuple[str, float | None], ...]
    transform: Variant | str | None
    evaluate: Callable
    evaluate_block: Callable = _scalar_only
    one_qubit: bool = False
    section: str = "checks"


_GROUPS = (
    _Group(
        0,
        (("one_qubit_intertwining", 1e-11),),
        _SU2,
        lambda a, psi: (check_one_qubit_diagram(a, psi),),
        _one_qubit_block,
        one_qubit=True,
    ),
    _Group(
        1,
        (("quaterbit_transport_so2xsu2", 1e-12),),
        Variant.SO2_X_SU2,
        lambda u, psi: (check_quadrangle(u, psi),),
        _quadrangle_block,
    ),
    _Group(
        2,
        (
            ("three_way_first_equality", 1e-10),
            ("three_way_second_equality", 1e-10),
            ("closed_form_consistency", 1e-10),
        ),
        Variant.SO2_X_SU2,
        check_three_way,
        _three_way_block,
    ),
    _Group(
        3,
        (("second_qubit_inertness", 1e-11),),
        _SU2,
        lambda a, psi: (check_second_qubit_inertness(a, psi),),
        _inertness_block,
    ),
    _Group(
        4,
        (("quaterbit_transport_su2xso2", 1e-12),),
        Variant.SU2_X_SO2,
        lambda u, psi: (check_quadrangle(u, psi),),
        _quadrangle_block,
    ),
    _Group(
        5,
        (("concurrence_invariance_so2xsu2", 1e-12),),
        Variant.SO2_X_SU2,
        lambda u, psi: (concurrence_invariance_gap(u, psi),),
        _concurrence_block,
    ),
    _Group(
        6,
        (("concurrence_magnitude_su2xso2", 1e-12),),
        Variant.SU2_X_SO2,
        lambda u, psi: (concurrence_magnitude_gap(u, psi),),
        _concurrence_prime_block,
    ),
    _Group(
        7,
        (("wootters_preconcurrence_relation", 1e-12),),
        None,
        lambda psi: (wootters_relation_gap(psi),),
        _wootters_block,
    ),
    _Group(
        8,
        ((FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2.value, None),),
        Variant.SO2_X_SU2,
        lambda u, psi: (variant_failure_deviation(FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2, psi, u),),
        section="witnesses",
    ),
    _Group(
        9,
        ((FailureSearch.CANONICAL_ON_SU2XSO2.value, None),),
        Variant.SU2_X_SO2,
        lambda u, psi: (variant_failure_deviation(FailureSearch.CANONICAL_ON_SU2XSO2, psi, u),),
        section="witnesses",
    ),
    _Group(
        10,
        (("left_coefficient_variant_on_su2xso2", None),),
        Variant.SU2_X_SO2,
        lambda u, psi: (left_coefficient_candidate_deviation(psi, u),),
        section="exploratory",
    ),
)


def _sample_block(group: _Group, seed: int, start: int, stop: int) -> _Block:
    """Draw the inputs of trials ``[start, stop)`` of a group from one read of its stream."""
    u = batch.uniforms(seed, group.idx, start, stop)
    theta = a = b = factors = None
    if group.transform is not None:
        theta, a, b = batch.local_unitary_params(u)
    if group.section != "checks":
        theta = _search_angles(u[:, batch._ANGLE])
    if isinstance(group.transform, Variant):
        rot = tuple(batch.libm(f, theta).astype(complex) for f in (math.cos, math.sin))
        factors = group.transform.order(rot, (a, b))
    psi = batch.haar_one_qubit_states(u) if group.one_qubit else batch.haar_states(u)
    return _Block(start, theta, a, b, psi, factors)


def _inputs(group: _Group, amplitudes, theta=None, a=None, b=None) -> tuple:
    """The objects the row's scalar evaluator takes: its transform, if it draws one, and the state."""
    psi = OneQubitState(*amplitudes) if group.one_qubit else TwoQubitState(*amplitudes)
    if group.transform is None:
        return (psi,)
    su2 = SU2Element(a, b)
    if group.transform == _SU2:
        return (su2, psi)
    return (LocalUnitary(group.transform, SO2Element(theta), su2), psi)


def _scalar_inputs(group: _Group, blk: _Block, i: int) -> tuple:
    """Trial ``blk.start + i`` as the objects the scalar evaluator takes."""
    return _inputs(group, blk.psi[i], *(x if x is None else x[i] for x in (blk.theta, blk.a, blk.b)))


def _inputs_from_doc(group: _Group, doc: dict) -> tuple:
    """The inverse of :func:`_inputs_doc`: the codec decodes, the row picks the form and variant."""
    amplitudes = decode_amplitudes(doc["state"], 2 if group.one_qubit else 4)
    if group.transform is None:
        return _inputs(group, amplitudes)
    if group.transform == _SU2:
        return _inputs(group, amplitudes, None, *decode_su2(doc["transform"]))
    variant, theta, a, b = decode_transform(doc["transform"])
    if variant is not group.transform:
        raise ValueError(f"variant {variant.value!r} is not {group.transform.value!r}")
    return _inputs(group, amplitudes, theta, a, b)


def _inputs_doc(inputs: tuple) -> dict:
    *transform, psi = inputs
    transform_doc = encode_transform(*transform) if transform else None
    return {"state": encode_amplitudes(psi), "transform": transform_doc}


def _evaluate_group(group: _Group, seed: int, trials: int) -> list[tuple[float, tuple]]:
    """(max deviation, worst-case :func:`_scalar_inputs`) of each check of the group.

    The worst case is the last trial reaching the maximum.  A NaN deviation
    makes the maximum NaN, with the first such trial as the worst case.
    """
    best: list[tuple[float, tuple] | None] = [None] * len(group.checks)
    for start in range(0, trials, batch.BLOCK):
        with np.errstate(all="ignore"):
            blk = _sample_block(group, seed, start, min(start + batch.BLOCK, trials))
            devs, scalar = group.evaluate_block(blk)
        for i in np.flatnonzero(scalar):
            devs[i] = group.evaluate(*_scalar_inputs(group, blk, i))
        for k, col in enumerate(devs.T):
            if best[k] is not None and math.isnan(best[k][0]):
                continue
            nan = np.flatnonzero(np.isnan(col))
            i = nan[0] if len(nan) else len(col) - 1 - int(np.argmax(col[::-1]))
            if best[k] is None or len(nan) or col[i] >= best[k][0]:
                best[k] = (float(col[i]), _scalar_inputs(group, blk, i))
    return best


def _row(name: str) -> tuple[_Group, int]:
    """The row of ``_GROUPS`` reporting ``name``, and the column of ``name`` in its deviations."""
    for group in _GROUPS:
        for k, (check, _) in enumerate(group.checks):
            if check == name:
                return group, k
    raise ValueError(f"unknown check name {name!r}")


def _witness(name: str, dev: float, inputs: tuple) -> Witness | None:
    """A search's witness: its worst trial, if that deviates by more than WITNESS_THRESHOLD."""
    u, psi = inputs
    return Witness(psi, u, name, dev) if dev > WITNESS_THRESHOLD else None


def find_variant_failure_witness(which: FailureSearch, max_trials: int, seed: int) -> Witness | None:
    """Search random inputs for a failure of the designated alternative intertwining.

    Returns the worst witness found, the last trial reaching the maximum
    deviation, if that deviation exceeds ``WITNESS_THRESHOLD``, else None.
    A NaN deviation in any trial finds none.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be at least 1")
    name = FailureSearch(which).value
    group, _ = _row(name)
    [(dev, inputs)] = _evaluate_group(group, seed, max_trials)
    return _witness(name, dev, inputs)


def run_suite(trials: int, seed: int, tol: float = DEFAULT_SUITE_TOL) -> DiagramReport:
    """Run every row of ``_GROUPS``: the checks, both failure searches, and the exploratory candidate.

    ``tol`` rescales each check's pass threshold relative to its contract
    value (the default leaves the contracts untouched).  Witness searches use
    min(trials, 100) attempts, as does the exploratory candidate; the report
    passes overall when every check meets its threshold and both searches
    find a witness.  A NaN deviation fails its check or its search.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    scale = tol / DEFAULT_SUITE_TOL

    sections = {"checks": [], "witnesses": [], "exploratory": []}
    for group in _GROUPS:
        n = trials if group.section == "checks" else min(trials, 100)
        for (name, contract), (dev, inputs) in zip(group.checks, _evaluate_group(group, seed, n)):
            if group.section == "checks":
                tolerance = contract * scale
                result = CheckResult(name, n, dev, tolerance, dev <= tolerance, _inputs_doc(inputs))
            elif group.section == "witnesses":
                result = WitnessSearchResult(name, n, WITNESS_THRESHOLD, _witness(name, dev, inputs))
            else:
                result = ExploratoryResult(name, n, dev)
            sections[group.section].append(result)

    return DiagramReport(
        seed=seed,
        trials=trials,
        tolerance=tol,
        checks=tuple(sections["checks"]),
        witness_searches=tuple(sections["witnesses"]),
        exploratory=tuple(sections["exploratory"]),
    )


def reevaluate_check(name: str, worst_case: dict) -> float:
    """Recompute the deviation of a check's worst case, a search's witness, or any inputs of a row.

    The row of ``name`` in ``_GROUPS``, the exploratory candidate's
    included, decodes the inputs and evaluates them with the scalar
    evaluator that the suite also uses.
    """
    group, k = _row(name)
    try:
        inputs = _inputs_from_doc(group, worst_case)
    except KeyError as exc:
        raise ValueError(f"worst case of {name!r} has no field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"worst case of {name!r} is malformed: {exc}") from None
    return group.evaluate(*inputs)[k]
