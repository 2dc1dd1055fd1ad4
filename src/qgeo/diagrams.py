"""Randomized verification of the intertwining diagrams and invariance laws.

Every identity the library is built around is checked here on seeded random
inputs: the one-qubit Moebius intertwining, the two-qubit encoding squares
for both local unitary variants, the three-way equality of conformal images
along independent computation paths, the closed-form expressions for the
transformed Schmidt and concurrence data, and the concurrence invariance
laws.  Alongside the positive checks, counterexample searches demonstrate
that the alternative operand orderings of the quaternionic Moebius action
genuinely fail to intertwine.

All randomness is derived from (seed, check index, trial index), so reports
are deterministic for a fixed seed regardless of evaluation order.  The
suite evaluates its trials in blocks (:mod:`qgeo.batch`), with results equal
bit for bit to the scalar evaluators below, which stay the public API and
the reference for re-evaluating stored worst cases.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import batch
from .batch import BlockSampler
from .quaternion import Quaternion, ZERO_NORM_SQ, _abs2, chordal_distance
from .states import (
    OneQubitState,
    Quaterbit,
    TwoQubitState,
    concurrence_term,
    haar_random_one_qubit,
    haar_random_state,
    quaternionify,
    schmidt_term,
    wootters_preconcurrence,
)
from .conformal import (
    INFINITY,
    conformal_map,
    conformal_map_one_qubit,
    embed_complex,
    schmidt_concurrence_form,
)
from .local_unitary import (
    LocalUnitary,
    QuatMat2,
    SO2Element,
    SU2Element,
    Variant,
    apply_B_quaterbit,
    apply_Bprime_quaterbit,
    apply_cb,
    apply_su2,
    quat_matrix,
    random_local_unitary,
)
from .moebius import (
    MoebiusC,
    MoebiusQ,
    VariantOrder,
    apply_moebius_c,
    apply_moebius_q,
    apply_moebius_q_variant,
    moebius_from_local_unitary,
)

# Deviation above which an alternative ordering counts as a genuine failure:
# far above roundoff, far below the chordal metric's bound of 2.
WITNESS_THRESHOLD = 0.01

# Suite-level tolerance whose default leaves every check at its contract value.
DEFAULT_SUITE_TOL = 1e-10

# Rejection bound keeping the rotation angle away from the degenerate values
# where all operand orderings coincide.
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
    conformal image of the transformed state."""
    f = MoebiusC.from_su2(a)
    lhs = apply_moebius_c(f, conformal_map_one_qubit(psi))
    rhs = conformal_map_one_qubit(apply_su2(a, psi))
    return chordal_distance(embed_complex(lhs), embed_complex(rhs))


def _quaterbit_gap(x: Quaterbit, y: Quaterbit) -> float:
    return max(abs(x.q1 - y.q1), abs(x.q2 - y.q2))


def check_quadrangle(u: LocalUnitary, psi: TwoQubitState) -> float:
    """Component gap between encode-then-transform and transform-then-encode
    for an so2xsu2 element."""
    lhs = quaternionify(apply_cb(u, psi))
    rhs = apply_B_quaterbit(u, quaternionify(psi))
    return _quaterbit_gap(lhs, rhs)


def check_quadrangle_prime(u: LocalUnitary, psi: TwoQubitState) -> float:
    """Same encoding square for a su2xso2 element."""
    lhs = quaternionify(apply_cb(u, psi))
    rhs = apply_Bprime_quaterbit(u, quaternionify(psi))
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
    image of that variant's spinor action.
    """
    which = FailureSearch(which)
    qb = quaternionify(psi)
    x = conformal_map(qb)
    if which is FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2:
        f = moebius_from_local_unitary(u)
        lhs = apply_moebius_q_variant(f, x, VariantOrder.LEFT_DENOMINATOR)
        rhs = conformal_map(apply_B_quaterbit(u, qb))
    else:
        f = MoebiusQ(quat_matrix(u))
        lhs = apply_moebius_q(f, x)
        rhs = conformal_map(apply_Bprime_quaterbit(u, qb))
    return chordal_distance(lhs, rhs)


def left_coefficient_candidate_deviation(psi: TwoQubitState, u: LocalUnitary) -> float:
    """Gap of the left-coefficient ordering built from bare SU(2) entries on su2xso2.

    This is the one natural candidate not covered by the failure searches;
    the suite reports its deviation without asserting a contract.  (The
    rotation's right factor cancels inside the conformal image, so the
    candidate matrix carries the SU(2) entries alone.)
    """
    a, b = u.su2.a, u.su2.b
    m = QuatMat2(
        Quaternion(a, 0j),
        Quaternion(b, 0j),
        Quaternion(-b.conjugate(), 0j),
        Quaternion(a.conjugate(), 0j),
    )
    qb = quaternionify(psi)
    lhs = apply_moebius_q_variant(MoebiusQ(m), conformal_map(qb), VariantOrder.LEFT_COEFFICIENTS)
    rhs = conformal_map(apply_Bprime_quaterbit(u, qb))
    return chordal_distance(lhs, rhs)


# ---------------------------------------------------------------------------
# Serialization of inputs (for reports and re-evaluation)
# ---------------------------------------------------------------------------


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def state_doc(psi: TwoQubitState) -> list[list[float]]:
    return [_pair(psi.alpha), _pair(psi.beta), _pair(psi.gamma), _pair(psi.delta)]


def one_qubit_doc(psi: OneQubitState) -> list[list[float]]:
    return [_pair(psi.a1), _pair(psi.a2)]


def transform_doc(u: LocalUnitary) -> dict:
    return {
        "variant": u.variant.value,
        "theta": u.rot.theta,
        "a": _pair(u.su2.a),
        "b": _pair(u.su2.b),
    }


def su2_doc(a: SU2Element) -> dict:
    return {"a": _pair(a.a), "b": _pair(a.b)}


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
        return {
            "state": state_doc(self.state),
            "transform": transform_doc(self.transform),
            "variant_tag": self.variant_tag,
            "deviation": self.deviation,
        }

    def reevaluate(self) -> float:
        return variant_failure_deviation(
            FailureSearch(self.variant_tag), self.state, self.transform
        )


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

# Seed-space indices of the searches; the check groups hold 0-7 in _GROUPS.
# Fixed so that reports are reproducible.
_SEARCH_IDX = {
    FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2: 8,
    FailureSearch.CANONICAL_ON_SU2XSO2: 9,
}
_EXPLORATORY_IDX = 10


def _sample_state(seed: int, idx: int, trial: int) -> TwoQubitState:
    return haar_random_state([seed, idx, trial, 1])


def _sample_transform(variant: Variant, seed: int, idx: int, trial: int) -> LocalUnitary:
    return random_local_unitary(variant, [seed, idx, trial, 0])


def _sample_transform_rejected(
    variant: Variant, seed: int, idx: int, trial: int
) -> LocalUnitary:
    """Transform sample with |sin(theta)| bounded away from zero.

    At theta in {0, pi} the induced matrices have a single nonzero diagonal
    and all operand orderings coincide, so failure searches reject them.
    """
    rng = np.random.default_rng([seed, idx, trial, 0])
    while True:
        u = random_local_unitary(variant, rng)
        if abs(math.sin(u.rot.theta)) > _MIN_ABS_SIN:
            return u


def find_variant_failure_witness(
    which: FailureSearch, max_trials: int, seed: int
) -> Witness | None:
    """Search random inputs for a failure of the designated alternative intertwining.

    Returns the worst witness found if its deviation exceeds the
    ``WITNESS_THRESHOLD``, else None.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be at least 1")
    which = FailureSearch(which)
    idx = _SEARCH_IDX[which]
    variant = (
        Variant.SO2_X_SU2
        if which is FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2
        else Variant.SU2_X_SO2
    )
    best: Witness | None = None
    for trial in range(max_trials):
        psi = _sample_state(seed, idx, trial)
        u = _sample_transform_rejected(variant, seed, idx, trial)
        dev = variant_failure_deviation(which, psi, u)
        if best is None or dev > best.deviation:
            best = Witness(psi, u, which.value, dev)
    if best is not None and best.deviation > WITNESS_THRESHOLD:
        return best
    return None


# ---------------------------------------------------------------------------
# Block evaluation of the check groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """Sampled inputs of the trials from ``start`` on of one check group.

    ``theta``, ``a`` and ``b`` are the transform draws (None in a group
    without one) and ``psi`` the amplitude rows of the state draws.
    """

    start: int
    theta: np.ndarray | None
    a: np.ndarray | None
    b: np.ndarray | None
    psi: np.ndarray

    def cos_sin(self):
        return batch.libm(math.cos, self.theta), batch.libm(math.sin, self.theta)

    def split_ab(self):
        return batch.split(self.a), batch.split(self.b)


def _quaterbit_gap_block(x, y):
    return batch.max2(batch.qabs(batch.qsub(x[0], y[0])), batch.qabs(batch.qsub(x[1], y[1])))


def _no_scalar(blk: _Block) -> np.ndarray:
    return np.zeros(len(blk.psi), dtype=bool)


def _one_qubit_block(blk: _Block):
    a, b = blk.split_ab()
    a1, a2 = batch.split(blk.psi[:, 0]), batch.split(blk.psi[:, 1])
    # MoebiusC.from_su2: its determinant |a|^2 + |b|^2 = 1 passes the check.
    z = batch.quot(a1, a2)
    den = batch.add(batch.mul(batch.neg(batch.conj(b)), z), batch.conj(a))
    lhs = batch.quot(batch.add(batch.mul(a, z), b), den)
    v = batch.matvec(batch.su2_matrices(blk.a, blk.b), blk.psi)
    v1, v2 = batch.split(v[:, 0]), batch.split(v[:, 1])
    rhs = batch.quot(v1, v2)
    zero = (0.0, 0.0)
    dev = batch.chordal_distance((lhs, zero), (rhs, zero))
    at_infinity = (
        (batch.abs2(a2) < ZERO_NORM_SQ)
        | (batch.abs2(den) < ZERO_NORM_SQ)
        | (batch.abs2(v2) < ZERO_NORM_SQ)
    )
    return dev[:, None], at_infinity


def _transported(blk: _Block, c, s, rotation_first: bool) -> np.ndarray:
    """Amplitude rows of ``apply_cb(u, psi)``."""
    return batch.matvec(batch.complex_forms(rotation_first, c, s, blk.a, blk.b), blk.psi)


def _quadrangle_block(blk: _Block):
    c, s = blk.cos_sin()
    lhs = batch.quaterbits(_transported(blk, c, s, True))
    rhs = batch.spinor_so2xsu2(c, s, *blk.split_ab(), batch.quaterbits(blk.psi))
    return _quaterbit_gap_block(lhs, rhs)[:, None], _no_scalar(blk)


def _quadrangle_prime_block(blk: _Block):
    c, s = blk.cos_sin()
    lhs = batch.quaterbits(_transported(blk, c, s, False))
    rhs = batch.spinor_su2xso2(c, s, *blk.split_ab(), batch.quaterbits(blk.psi))
    return _quaterbit_gap_block(lhs, rhs)[:, None], _no_scalar(blk)


def _three_way_block(blk: _Block):
    c, s = blk.cos_sin()
    a, b = blk.split_ab()
    psi2 = _transported(blk, c, s, True)
    qb = batch.quaterbits(blk.psi)
    v1, inf1 = batch.right_quotient(*batch.quaterbits(psi2))
    v2, inf2 = batch.right_quotient(*batch.spinor_so2xsu2(c, s, a, b, qb))
    x, inf3 = batch.right_quotient(*qb)
    v3, inf4 = batch.moebius_so2xsu2(c, s, a, b, x)

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
    # The rotation is SO2Element(0.0): cos 1.0, sin 0.0.
    n = len(blk.psi)
    form = batch.complex_forms(True, np.ones(n), np.zeros(n), blk.a, blk.b)
    before, inf1 = batch.right_quotient(*batch.quaterbits(blk.psi))
    after, inf2 = batch.right_quotient(*batch.quaterbits(batch.matvec(form, blk.psi)))
    return batch.chordal_distance(before, after)[:, None], inf1 | inf2


def _concurrence_block(blk: _Block):
    after = batch.concurrence_term(_transported(blk, *blk.cos_sin(), True))
    dev = batch.cabs(batch.sub(after, batch.concurrence_term(blk.psi)))
    return dev[:, None], _no_scalar(blk)


def _concurrence_prime_block(blk: _Block):
    after = batch.cabs(batch.concurrence_term(_transported(blk, *blk.cos_sin(), False)))
    dev = np.abs(after - batch.cabs(batch.concurrence_term(blk.psi)))
    return dev[:, None], _no_scalar(blk)


def _wootters_block(blk: _Block):
    expected = batch.real_mul(2.0, batch.conj(batch.concurrence_term(blk.psi)))
    dev = batch.cabs(batch.sub(batch.wootters_preconcurrence(blk.psi), expected))
    return dev[:, None], _no_scalar(blk)


_SU2 = "su2"


@dataclass(frozen=True)
class _Group:
    """One seeded trial loop of the suite.

    ``transform`` says what trial t draws from ``[seed, idx, t, 0]``: an
    SU(2) element (``"su2"``), a local unitary of a variant, or nothing.
    The state is drawn from ``[seed, idx, t, 1]``.  ``evaluate`` is the
    scalar evaluator of one trial's inputs, returning one deviation per
    entry of ``checks``; ``evaluate_block`` computes the same deviations
    for a block, with a mask of the trials it leaves to ``evaluate`` (those
    taking a branch other than the generic one).  ``_GROUPS`` is the one
    list of checks: ``run_suite`` runs its rows and ``reevaluate_check``
    replays a stored worst case through the row's ``evaluate``.
    """

    idx: int
    checks: tuple[tuple[str, float], ...]
    transform: Variant | str | None
    evaluate: Callable
    evaluate_block: Callable
    one_qubit: bool = False


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
        lambda u, psi: (check_quadrangle_prime(u, psi),),
        _quadrangle_prime_block,
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
)


def _sample_block(group: _Group, samplers, start: int, stop: int) -> _Block:
    """Draw a block of inputs; rows the block sampler cannot finish are redrawn by
    the scalar sampler from the same seeded generator."""
    theta = a = b = None
    if group.transform is not None:
        theta, a, b, redo = batch.local_unitary_params(samplers[0], start, stop)
        for i in np.flatnonzero(redo):
            u = random_local_unitary(Variant.SO2_X_SU2, samplers[0].reseeded(start + i))
            theta[i], a[i], b[i] = u.rot.theta, u.su2.a, u.su2.b
    if group.one_qubit:
        psi, redo = batch.haar_one_qubit_states(samplers[1], start, stop)
        for i in np.flatnonzero(redo):
            one = haar_random_one_qubit(samplers[1].reseeded(start + i))
            psi[i] = (one.a1, one.a2)
    else:
        psi, redo = batch.haar_states(samplers[1], start, stop)
        for i in np.flatnonzero(redo):
            psi[i] = haar_random_state(samplers[1].reseeded(start + i)).amplitudes
    return _Block(start, theta, a, b, psi)


def _scalar_inputs(group: _Group, blk: _Block, i: int) -> tuple:
    """Trial ``blk.start + i`` as the objects the scalar evaluator takes."""
    psi = OneQubitState(*blk.psi[i]) if group.one_qubit else TwoQubitState(*blk.psi[i])
    if group.transform is None:
        return (psi,)
    su2 = SU2Element(blk.a[i], blk.b[i])
    if group.transform == _SU2:
        return (su2, psi)
    return (LocalUnitary(group.transform, SO2Element(blk.theta[i]), su2), psi)


def _inputs_doc(inputs: tuple) -> dict:
    *transform, psi = inputs
    doc = {"state": one_qubit_doc(psi) if isinstance(psi, OneQubitState) else state_doc(psi)}
    if not transform:
        doc["transform"] = None
    elif isinstance(transform[0], SU2Element):
        doc["transform"] = su2_doc(transform[0])
    else:
        doc["transform"] = transform_doc(transform[0])
    return doc


def _evaluate_group(group: _Group, seed: int, trials: int) -> list[tuple[float, dict]]:
    """(max deviation, worst-case inputs) of each check of the group.

    The worst case is the last trial reaching the maximum.  A NaN deviation
    makes the maximum NaN, with the first such trial as the worst case.
    """
    samplers = (BlockSampler(seed, group.idx, 0), BlockSampler(seed, group.idx, 1))
    best: list[tuple[float, dict] | None] = [None] * len(group.checks)
    for start in range(0, trials, batch.BLOCK):
        with np.errstate(all="ignore"):
            blk = _sample_block(group, samplers, start, min(start + batch.BLOCK, trials))
            devs, scalar = group.evaluate_block(blk)
        for i in np.flatnonzero(scalar):
            devs[i] = group.evaluate(*_scalar_inputs(group, blk, i))
        for k, col in enumerate(devs.T):
            if best[k] is not None and math.isnan(best[k][0]):
                continue
            nan = np.flatnonzero(np.isnan(col))
            i = nan[0] if len(nan) else len(col) - 1 - int(np.argmax(col[::-1]))
            if best[k] is None or len(nan) or col[i] >= best[k][0]:
                best[k] = (float(col[i]), _inputs_doc(_scalar_inputs(group, blk, i)))
    return best


def run_suite(trials: int, seed: int, tol: float = DEFAULT_SUITE_TOL) -> DiagramReport:
    """Run every check, both failure searches, and the exploratory candidate.

    ``tol`` rescales each check's pass threshold relative to its contract
    value (the default leaves the contracts untouched).  Witness searches use
    min(trials, 100) attempts; the report passes overall when every check
    meets its threshold and both searches find a witness.  A NaN deviation
    fails its check.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = tol / DEFAULT_SUITE_TOL

    checks = []
    for group in _GROUPS:
        results = _evaluate_group(group, seed, trials)
        for (name, contract), (dev, worst_case) in zip(group.checks, results):
            tolerance = contract * scale
            checks.append(
                CheckResult(
                    name=name,
                    trials=trials,
                    max_deviation=dev,
                    tolerance=tolerance,
                    passed=dev <= tolerance,
                    worst_case=worst_case,
                )
            )

    search_trials = min(trials, 100)
    searches = tuple(
        WitnessSearchResult(
            name=which.value,
            trials=search_trials,
            threshold=WITNESS_THRESHOLD,
            witness=find_variant_failure_witness(which, search_trials, seed),
        )
        for which in (
            FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2,
            FailureSearch.CANONICAL_ON_SU2XSO2,
        )
    )

    exp_dev = 0.0
    for trial in range(search_trials):
        psi = _sample_state(seed, _EXPLORATORY_IDX, trial)
        u = _sample_transform_rejected(Variant.SU2_X_SO2, seed, _EXPLORATORY_IDX, trial)
        exp_dev = max(exp_dev, left_coefficient_candidate_deviation(psi, u))
    exploratory = (
        ExploratoryResult(
            name="left_coefficient_variant_on_su2xso2",
            trials=search_trials,
            max_deviation=exp_dev,
        ),
    )

    return DiagramReport(
        seed=seed,
        trials=trials,
        tolerance=tol,
        checks=tuple(checks),
        witness_searches=searches,
        exploratory=exploratory,
    )


def _inputs_from_doc(group: _Group, doc: dict) -> tuple:
    """The inverse of :func:`_inputs_doc` for a trial of ``group``."""
    amplitudes = [complex(re, im) for re, im in doc["state"]]
    psi = OneQubitState(*amplitudes) if group.one_qubit else TwoQubitState(*amplitudes)
    if group.transform is None:
        return (psi,)
    transform = doc["transform"]
    su2 = SU2Element(complex(*transform["a"]), complex(*transform["b"]))
    if group.transform == _SU2:
        return (su2, psi)
    rot = SO2Element(transform["theta"])
    return (LocalUnitary(Variant(transform["variant"]), rot, su2), psi)


def reevaluate_check(name: str, worst_case: dict) -> float:
    """Recompute the deviation recorded for a check's worst-case inputs.

    The check's row of ``_GROUPS`` decodes the inputs and evaluates them
    with the scalar evaluator that the suite also uses.
    """
    for group in _GROUPS:
        for k, (check, _) in enumerate(group.checks):
            if check != name:
                continue
            try:
                inputs = _inputs_from_doc(group, worst_case)
            except KeyError as exc:
                raise ValueError(f"worst case of {name!r} has no field {exc.args[0]!r}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"worst case of {name!r} is malformed: {exc}") from None
            return group.evaluate(*inputs)[k]
    raise ValueError(f"unknown check name {name!r}")
