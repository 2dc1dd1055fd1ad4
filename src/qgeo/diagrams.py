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
(:func:`qgeo.sampling.uniforms`), so reports are deterministic for a fixed seed
regardless of evaluation order.  One table, ``_GROUPS``, holds every seeded
row with its report section: the checks at indices 0-7, the two failure
searches at 8 and 9 and the exploratory candidate at 10.  Each row has one
evaluator, below, which is also the public API: it runs on one trial's
inputs and, on the block objects of :mod:`qgeo.batch`, on a block of them,
bit for bit alike.  One trial loop evaluates every row in blocks, dealt
over up to one process per available CPU; the trials that take a rare
branch, such as a conformal image at infinity, are evaluated again on their
own, and replay evaluates stored inputs by name.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from . import batch, sampling
from .quaternion import _abs2, chordal_distance, right_quotient
from .states import (
    OneQubitState,
    TwoQubitState,
    _positive,
    concurrence_term,
    decode_amplitudes,
    encode_amplitudes,
    quaternionify,
    schmidt_term,
    wootters_preconcurrence,
)
from .conformal import conformal_map, embed_complex, fraction_point
from .local_unitary import (
    LocalUnitary,
    SO2Element,
    SU2Element,
    Variant,
    _fields,
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

# The operations that construct objects or branch, by the names under which
# qgeo.batch gives their block forms.  An evaluator takes them from its
# state's type (:func:`_ops`) and all other operations from the library, so
# each row has one definition for one trial and for a block of trials.
_LIBRARY = SimpleNamespace(**{op.__name__: op for op in (
    OneQubitState, TwoQubitState, SU2Element, SO2Element, LocalUnitary, quaternionify, embed_complex,
    fraction_point, quat_matrix, MoebiusQ, moebius_from_local_unitary, chordal_distance, max,
)})


def _ops(psi):
    """qgeo.batch for a block of states, else the library."""
    return batch if isinstance(psi, (batch.OneQubitState, batch.TwoQubitState)) else _LIBRARY


def check_one_qubit_diagram(a: SU2Element, psi: OneQubitState) -> float:
    """Chordal gap between the Moebius image of the conformal point and the
    conformal image of the transformed state.

    The Moebius map is the left-coefficient action of the SU(2) matrix on
    the complex line, Lee et al.'s complex map.  The conformal images are
    :func:`qgeo.conformal.conformal_map_one_qubit`'s quotient a1 / a2.
    """
    op = _ops(psi)

    def image(state):
        return right_quotient(op.embed_complex(state.a1), op.embed_complex(state.a2))

    lhs = apply_moebius_q_variant(op.MoebiusQ.from_su2(a), image(psi), VariantOrder.LEFT_COEFFICIENTS)
    return op.chordal_distance(lhs, image(apply_su2(a, psi)))


def check_quadrangle(u: LocalUnitary, psi: TwoQubitState) -> float:
    """Component gap between encode-then-transform and transform-then-encode."""
    op = _ops(psi)
    lhs = op.quaternionify(apply_cb(u, psi))
    rhs = apply_B_quaterbit(u, op.quaternionify(psi))
    return op.max(abs(lhs.q1 - rhs.q1), abs(lhs.q2 - rhs.q2))


def check_three_way(u: LocalUnitary, psi: TwoQubitState) -> tuple[float, float, float]:
    """Chordal gaps (first equality, second equality, closed form) among the three paths.

    The three primary paths to a point of the extended quaternion line are:
    conformal image of the transformed amplitudes, conformal image of the
    transformed spinor, and Moebius image of the original conformal point.
    The closed-form cross-check compares the first value against the
    (S' + C'*j)/|q2'|^2 expression of the transformed state
    (:func:`qgeo.conformal.schmidt_concurrence_form`) and against the same
    fraction predicted from the original state's Schmidt/concurrence data
    and the rotation angle; all three are independently coded.
    """
    op = _ops(psi)
    # Each gap is taken as soon as its two points exist, and what no later
    # step needs is dropped at once, which bounds the row's memory on a block.
    qb = op.quaternionify(psi)
    v3 = apply_moebius_q(op.moebius_from_local_unitary(u), conformal_map(qb))
    v2 = conformal_map(apply_B_quaterbit(u, qb))
    second = op.chordal_distance(v2, v3)
    del qb, v3
    psi2 = apply_cb(u, psi)
    v1 = conformal_map(op.quaternionify(psi2))
    first = op.chordal_distance(v1, v2)
    del v2
    n2_after = _abs2(psi2.gamma) + _abs2(psi2.delta)
    w1 = op.fraction_point(schmidt_term(psi2), concurrence_term(psi2), n2_after)
    del psi2, n2_after

    s_term = schmidt_term(psi)
    n1 = _abs2(psi.alpha) + _abs2(psi.beta)
    n2 = _abs2(psi.gamma) + _abs2(psi.delta)
    c, s = u.a1.real, u.b1.real  # the first factor: the rotation (cos(theta), sin(theta))
    den = n2 * c * c + n1 * s * s - 2.0 * s * c * s_term.real
    num = c * c * s_term - s * s * s_term.conjugate() + s * c * (n2 - n1)
    w2 = op.fraction_point(num, concurrence_term(psi), den)

    closed = op.max(
        op.chordal_distance(v1, w1),
        op.chordal_distance(v1, w2),
        op.chordal_distance(w1, w2),
    )
    return first, second, closed


def check_second_qubit_inertness(a: SU2Element, psi: TwoQubitState) -> float:
    """Gap showing an SU(2) acting on the second qubit alone fixes the conformal image."""
    op = _ops(psi)
    u = op.LocalUnitary(Variant.SO2_X_SU2, op.SO2Element(0.0), a)
    before = conformal_map(op.quaternionify(psi))
    after = conformal_map(op.quaternionify(apply_cb(u, psi)))
    return op.chordal_distance(before, after)


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
    op = _ops(psi)
    qb = op.quaternionify(psi)
    x = conformal_map(qb)
    f = op.MoebiusQ(op.quat_matrix(u))
    lhs = apply_moebius_q_variant(f, x, VariantOrder.LEFT_DENOMINATOR) if left else apply_moebius_q(f, x)
    return op.chordal_distance(lhs, conformal_map(apply_B_quaterbit(u, qb)))


def left_coefficient_candidate_deviation(psi: TwoQubitState, u: LocalUnitary) -> float:
    """Gap of the left-coefficient ordering built from bare SU(2) entries on su2xso2.

    This is the one natural candidate not covered by the failure searches;
    the suite reports its deviation without asserting a contract.  (The
    rotation's right factor cancels inside the conformal image, so the
    candidate matrix carries the SU(2) entries alone.)  A ``u`` of another
    variant than su2xso2 is rejected with a ValueError.
    """
    _require_variant(u, Variant.SU2_X_SO2, "left_coefficient_candidate_deviation")
    op = _ops(psi)
    qb = op.quaternionify(psi)
    f = op.MoebiusQ.from_su2(u.su2)
    lhs = apply_moebius_q_variant(f, conformal_map(qb), VariantOrder.LEFT_COEFFICIENTS)
    rhs = conformal_map(apply_B_quaterbit(u, qb))
    return op.chordal_distance(lhs, rhs)


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

def _search_angles(u: np.ndarray) -> np.ndarray:
    """theta uniform on the two arcs where |sin(theta)| >= _MIN_ABS_SIN, from uniforms u.

    At theta in {0, pi} the induced matrices have a single nonzero diagonal
    and all operand orderings coincide, so the searches leave those out.
    """
    low = math.asin(_MIN_ABS_SIN)
    arc = math.pi - 2.0 * low
    x = u * (2.0 * arc)
    return np.where(x < arc, low + x, math.pi + low + (x - arc))


@dataclass(frozen=True)
class _Block:
    """Sampled inputs of a run of consecutive trials of one check group.

    ``theta``, ``a`` and ``b`` are the transform draws (None in a group
    without one) and ``psi`` the amplitude rows of the state draws.
    """

    theta: np.ndarray | None
    a: np.ndarray | None
    b: np.ndarray | None
    psi: np.ndarray


_SU2 = "su2"


@dataclass(frozen=True)
class _Group:
    """One seeded trial loop of the suite: one row of ``_GROUPS``.

    Trial t reads its uniforms from the stream of ``idx``.  ``transform``
    says what it draws besides its state: an SU(2) element (``"su2"``), a
    local unitary of a variant, or nothing.  ``evaluate`` is the row's
    evaluator, returning one deviation per ``checks`` entry (a name and its
    contract, or None) for one trial's inputs, or arrays of them for a
    block.  ``section`` is the report section of the row's results,
    ``checks``, ``witnesses`` or ``exploratory``; rows outside ``checks``
    draw theta with :func:`_search_angles` and run min(trials, 100) trials.
    """

    idx: int
    checks: tuple[tuple[str, float | None], ...]
    transform: Variant | str | None
    evaluate: Callable
    one_qubit: bool = False
    section: str = "checks"


_GROUPS = (
    _Group(
        0,
        (("one_qubit_intertwining", 1e-11),),
        _SU2,
        lambda a, psi: (check_one_qubit_diagram(a, psi),),
        one_qubit=True,
    ),
    _Group(
        1,
        (("quaterbit_transport_so2xsu2", 1e-12),),
        Variant.SO2_X_SU2,
        lambda u, psi: (check_quadrangle(u, psi),),
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
    ),
    _Group(
        3,
        (("second_qubit_inertness", 1e-11),),
        _SU2,
        lambda a, psi: (check_second_qubit_inertness(a, psi),),
    ),
    _Group(
        4,
        (("quaterbit_transport_su2xso2", 1e-12),),
        Variant.SU2_X_SO2,
        lambda u, psi: (check_quadrangle(u, psi),),
    ),
    _Group(
        5,
        (("concurrence_invariance_so2xsu2", 1e-12),),
        Variant.SO2_X_SU2,
        lambda u, psi: (concurrence_invariance_gap(u, psi),),
    ),
    _Group(
        6,
        (("concurrence_magnitude_su2xso2", 1e-12),),
        Variant.SU2_X_SO2,
        lambda u, psi: (concurrence_magnitude_gap(u, psi),),
    ),
    _Group(
        7,
        (("wootters_preconcurrence_relation", 1e-12),),
        None,
        lambda psi: (wootters_relation_gap(psi),),
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


def _sample_trials(group: _Group, seed: int, start: int, stop: int) -> _Block:
    """Draw the inputs of trials ``[start, stop)`` of a group from one read of its stream."""
    u = sampling.uniforms(seed, group.idx, start, stop)
    theta = a = b = None
    if group.transform is not None:
        theta, a, b = sampling.local_unitary_params(u)
    if group.section != "checks":
        theta = _search_angles(u[:, sampling._ANGLE])
    psi = sampling.haar_rows(u, 2 if group.one_qubit else 4)
    return _Block(theta, a, b, psi)


def _inputs(group: _Group, amplitudes, theta=None, a=None, b=None, op=_LIBRARY) -> tuple:
    """The objects the row's evaluator takes: its transform, if it draws one, and the state."""
    psi = (op.OneQubitState if group.one_qubit else op.TwoQubitState)(*amplitudes)
    if group.transform is None:
        return (psi,)
    su2 = op.SU2Element(a, b)
    if group.transform == _SU2:
        return (su2, psi)
    return (op.LocalUnitary(group.transform, op.SO2Element(theta), su2), psi)


def _scalar_inputs(group: _Group, blk: _Block, i: int) -> tuple:
    """Trial ``i`` of the block as the objects the scalar evaluator takes."""
    return _inputs(group, blk.psi[i], *(x if x is None else x[i] for x in (blk.theta, blk.a, blk.b)))


def _block_inputs(group: _Group, blk: _Block) -> tuple:
    """All trials of the block as the block objects of :mod:`qgeo.batch`."""
    a, b = (x if x is None else batch.split(x) for x in (blk.a, blk.b))
    return _inputs(group, [batch.split(z) for z in blk.psi.T], blk.theta, a, b, op=batch)


def _inputs_from_doc(group: _Group, doc: dict) -> tuple:
    """The inverse of :func:`_inputs_doc`: the codec decodes, the row picks the form and variant."""
    [state] = _fields(doc, ("state",))
    amplitudes = decode_amplitudes(state, 2 if group.one_qubit else 4)
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


def _evaluate_unit(group: _Group, seed: int, start: int, stop: int) -> list[tuple[float, int, tuple]]:
    """(deviation, trial, :func:`_scalar_inputs`) of the worst trial of ``[start, stop)`` per check.

    The row is evaluated on the block.  A trial with a deviation that is
    not finite, which includes the trials the block marks, is evaluated
    again on its own; a ZeroDivisionError (DegenerateMapError included) or a
    ValueError there makes all its deviations NaN.  The worst trial is the
    one :func:`_rank` ranks highest.
    """
    with np.errstate(all="ignore"):
        blk = _sample_trials(group, seed, start, stop)
        devs = np.stack(group.evaluate(*_block_inputs(group, blk)), axis=1)
    for i in np.flatnonzero(~np.isfinite(devs).all(axis=1)):
        inputs = _scalar_inputs(group, blk, i)
        try:
            devs[i] = group.evaluate(*inputs)
        except (ZeroDivisionError, ValueError):
            devs[i] = math.nan
    worst = []
    for col in devs.T:
        nan = np.flatnonzero(np.isnan(col))
        i = int(nan[0]) if len(nan) else len(col) - 1 - int(np.argmax(col[::-1]))
        worst.append((float(col[i]), start + i, _scalar_inputs(group, blk, i)))
    return worst


def _rank(case: tuple[float, int, tuple]) -> tuple:
    """Order of a row's (deviation, trial, inputs): a NaN first, the first NaN trial
    before later ones; then the largest deviation, the later trial of equal ones.

    Trials are distinct, so the worst case of a row does not depend on the
    order in which its blocks are reduced.
    """
    dev, trial, _ = case
    return (1, -trial) if math.isnan(dev) else (0, dev, trial)


def _evaluate_rows(rows: list[tuple[_Group, int]], seed: int) -> list[list[tuple[float, tuple]]]:
    """Per (row, trials) of ``rows``, the (max deviation, worst-case inputs) of each check.

    :func:`qgeo.batch._forked` deals the (row, block) units round-robin to
    up to one process per available CPU; each process reduces its share by
    :func:`_rank` and so does this one with the shares, so the result does
    not depend on the number of processes.
    """
    units = [(r, start, min(start + batch.BLOCK, n))
             for r, (_, n) in enumerate(rows) for start in range(0, n, batch.BLOCK)]

    def fold(worst: dict, r: int, cases: list) -> None:
        worst[r] = [max(pair, key=_rank) for pair in zip(worst.get(r, cases), cases)]

    def evaluate(share: list) -> dict:
        worst: dict = {}
        for r, start, stop in share:
            fold(worst, r, _evaluate_unit(rows[r][0], seed, start, stop))
        return worst

    import numpy.random  # noqa: F401  numpy imports it on first use; here once, not in each worker

    merged: dict = {}
    for worst in batch._forked(evaluate, units, "a verify worker"):
        for r, cases in worst.items():
            fold(merged, r, cases)
    return [[(dev, inputs) for dev, _, inputs in merged[r]] for r in range(len(rows))]


def _row(name: str) -> tuple[_Group, int]:
    """The row of ``_GROUPS`` reporting ``name``, and the column of ``name`` in its deviations."""
    for group in _GROUPS:
        for k, (check, _) in enumerate(group.checks):
            if check == name:
                return group, k
    raise ValueError(f"unknown check name {name!r}")


def run_suite(trials: int, seed: int, tol: float = DEFAULT_SUITE_TOL) -> DiagramReport:
    """Run every row of ``_GROUPS``: the checks, both failure searches, and the exploratory candidate.

    ``tol`` rescales each check's pass threshold relative to its contract
    value (the default leaves the contracts untouched).  Witness searches use
    min(trials, 100) attempts, as does the exploratory candidate; the report
    passes overall when every check meets its threshold and both searches
    find a witness.  A NaN deviation fails its check or its search.  The
    blocks are evaluated on up to one process per available CPU, and the
    report does not depend on how many; an exception in a worker is raised
    here as itself (:func:`qgeo.batch._forked`).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    scale = _positive(tol) / DEFAULT_SUITE_TOL

    rows = [(group, trials if group.section == "checks" else min(trials, 100)) for group in _GROUPS]
    sections = {"checks": [], "witnesses": [], "exploratory": []}
    for (group, n), worst in zip(rows, _evaluate_rows(rows, seed)):
        for (name, contract), (dev, inputs) in zip(group.checks, worst):
            if group.section == "checks":
                tolerance = contract * scale
                result = CheckResult(name, n, dev, tolerance, dev <= tolerance, _inputs_doc(inputs))
            elif group.section == "witnesses":
                u, psi = inputs
                witness = Witness(psi, u, name, dev) if dev > WITNESS_THRESHOLD else None
                result = WitnessSearchResult(name, n, WITNESS_THRESHOLD, witness)
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
