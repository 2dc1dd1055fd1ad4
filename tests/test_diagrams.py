"""Verification harness: check evaluators, witness searches, report determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest

from qgeo import batch, diagrams
from qgeo.cli import main
from qgeo.states import (
    OneQubitState,
    TwoQubitState,
    haar_random_one_qubit,
    haar_random_state,
    is_separable,
)
from qgeo.local_unitary import (
    LocalUnitary,
    QuatMat2,
    SO2Element,
    SU2Element,
    Variant,
    is_quaternionic_complex_matrix,
    random_local_unitary,
    random_su2,
    sp2_check_complex,
    sp2_check_quaternionic,
)
from qgeo.diagrams import (
    WITNESS_THRESHOLD,
    FailureSearch,
    _SEARCH_IDX,
    _sample_state,
    _sample_transform,
    _search_inputs,
    check_one_qubit_diagram,
    check_quadrangle,
    check_second_qubit_inertness,
    check_three_way,
    concurrence_invariance_gap,
    concurrence_magnitude_gap,
    find_variant_failure_witness,
    left_coefficient_candidate_deviation,
    one_qubit_doc,
    reevaluate_check,
    run_suite,
    state_doc,
    su2_doc,
    transform_doc,
    variant_failure_deviation,
    wootters_relation_gap,
)

S = math.sqrt(0.5)
BELL = TwoQubitState(S, 0, 0, S)

IDENTITY_B = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.0), SU2Element(1, 0))
IDENTITY_BP = LocalUnitary(Variant.SU2_X_SO2, SO2Element(0.0), SU2Element(1, 0))


def test_one_qubit_identity_gap_is_zero():
    psi = haar_random_one_qubit(0)
    assert check_one_qubit_diagram(SU2Element(1, 0), psi) == 0.0


def test_one_qubit_infinity_valued_case():
    # A basis flip maps the north-pole point through infinity on both paths.
    a = SU2Element(0, 1)
    psi = haar_random_one_qubit(1)
    gap_pole = check_one_qubit_diagram(a, type(psi)(1, 0))
    assert gap_pole <= 1e-11
    assert check_one_qubit_diagram(a, psi) <= 1e-11


def test_one_qubit_random_gaps_small():
    for seed in range(500):
        a = random_su2([seed, 0])
        psi = haar_random_one_qubit([seed, 1])
        assert check_one_qubit_diagram(a, psi) <= 1e-11


def test_quadrangle_identity_and_examples():
    assert check_quadrangle(IDENTITY_B, haar_random_state(4)) == 0.0
    flip = LocalUnitary(Variant.SO2_X_SU2, SO2Element(math.pi / 2), SU2Element(1, 0))
    assert check_quadrangle(flip, TwoQubitState(1, 0, 0, 0)) <= 1e-15


def test_quadrangle_random_gaps_small():
    for seed in range(500):
        u = random_local_unitary(Variant.SO2_X_SU2, [seed, 0])
        psi = haar_random_state([seed, 1])
        assert check_quadrangle(u, psi) <= 1e-12


def test_three_way_identity_and_bell():
    assert check_three_way(IDENTITY_B, haar_random_state(9))[:2] == (0.0, 0.0)
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(math.pi / 4), SU2Element(1, 0))
    first, second, _ = check_three_way(u, BELL)
    assert first <= 1e-12 and second <= 1e-12


def test_three_way_and_closed_forms_random():
    for seed in range(300):
        u = random_local_unitary(Variant.SO2_X_SU2, [seed, 0])
        psi = haar_random_state([seed, 1])
        first, second, closed = check_three_way(u, psi)
        assert first <= 1e-10 and second <= 1e-10
        assert closed <= 1e-10


def test_second_qubit_inertness():
    assert check_second_qubit_inertness(SU2Element(1, 0), haar_random_state(2)) == 0.0
    for seed in range(300):
        a = random_su2([seed, 5])
        assert check_second_qubit_inertness(a, BELL) <= 1e-12
        assert check_second_qubit_inertness(a, haar_random_state([seed, 6])) <= 1e-11


def test_quadrangle_prime_random_gaps_small():
    assert check_quadrangle(IDENTITY_BP, haar_random_state(3)) == 0.0
    for seed in range(500):
        u = random_local_unitary(Variant.SU2_X_SO2, [seed, 0])
        psi = haar_random_state([seed, 1])
        assert check_quadrangle(u, psi) <= 1e-12


def test_invariance_gaps_small():
    for seed in range(200):
        psi = haar_random_state([seed, 1])
        u = random_local_unitary(Variant.SO2_X_SU2, [seed, 2])
        up = random_local_unitary(Variant.SU2_X_SO2, [seed, 3])
        assert concurrence_invariance_gap(u, psi) <= 1e-12
        assert concurrence_magnitude_gap(up, psi) <= 1e-12
        assert wootters_relation_gap(psi) <= 1e-12


def test_failure_witness_found_for_left_denominator_variant():
    w = find_variant_failure_witness(FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2, 100, seed=0)
    assert w is not None
    assert w.deviation > 0.01
    assert w.transform.variant is Variant.SO2_X_SU2


def test_failure_witness_found_for_canonical_on_su2xso2():
    w = find_variant_failure_witness(FailureSearch.CANONICAL_ON_SU2XSO2, 100, seed=0)
    assert w is not None
    assert w.deviation > 0.01
    assert w.transform.variant is Variant.SU2_X_SO2


def test_degenerate_search_space_finds_no_witness():
    # Real-entry transforms: all operand orderings coincide, so no input of
    # the search's state stream is a witness (and none is NaN).
    which = FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2
    for t in range(100):
        u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.0), SU2Element((-1.0) ** t, 0))
        psi = _sample_state(0, _SEARCH_IDX[which], t)
        assert variant_failure_deviation(which, psi, u) <= WITNESS_THRESHOLD


def test_search_angles_cover_the_arcs_away_from_degenerate_values():
    u = np.arange(10000) / 10000
    theta = diagrams._search_angles(u)
    low = math.asin(0.1)
    assert np.all(np.abs(np.sin(theta)) >= 0.1 - 1e-15)
    assert np.all(np.diff(theta) > 0)
    assert theta[0] == low and theta[-1] < 2 * math.pi - low
    assert np.count_nonzero(theta < math.pi) == 5000


def test_witness_deviation_is_reproducible():
    w = find_variant_failure_witness(FailureSearch.CANONICAL_ON_SU2XSO2, 50, seed=7)
    assert w is not None
    assert abs(w.reevaluate() - w.deviation) <= 1e-14
    direct = variant_failure_deviation(
        FailureSearch(w.variant_tag), w.state, w.transform
    )
    assert direct == w.reevaluate()


def test_left_coefficient_candidate_intertwines():
    # The one ordering the failure searches leave out turns out to commute
    # exactly; the suite reports it without gating on it.
    for seed in range(200):
        psi = haar_random_state([seed, 0])
        u = random_local_unitary(Variant.SU2_X_SO2, [seed, 1])
        assert left_coefficient_candidate_deviation(psi, u) <= 1e-12


def test_run_suite_structure_single_trial():
    report = run_suite(trials=1, seed=0)
    names = [c.name for c in report.checks]
    assert names == [
        "one_qubit_intertwining",
        "quaterbit_transport_so2xsu2",
        "three_way_first_equality",
        "three_way_second_equality",
        "closed_form_consistency",
        "second_qubit_inertness",
        "quaterbit_transport_su2xso2",
        "concurrence_invariance_so2xsu2",
        "concurrence_magnitude_su2xso2",
        "wootters_preconcurrence_relation",
    ]
    assert all(c.trials == 1 for c in report.checks)
    assert len(report.witness_searches) == 2
    assert len(report.exploratory) == 1
    doc = report.to_dict()
    assert set(doc) == {
        "seed",
        "trials",
        "tolerance",
        "checks",
        "witnesses",
        "exploratory",
        "overall_pass",
    }


def test_run_suite_passes_at_moderate_scale():
    report = run_suite(trials=300, seed=42)
    assert report.overall_pass
    for check in report.checks:
        assert check.passed, check
        assert math.isfinite(check.max_deviation) and check.max_deviation >= 0.0
    for search in report.witness_searches:
        assert search.found
    assert report.exploratory[0].max_deviation <= 1e-12


def test_run_suite_is_deterministic():
    a = run_suite(trials=40, seed=11)
    b = run_suite(trials=40, seed=11)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    c = run_suite(trials=40, seed=12)
    assert json.dumps(a.to_dict()) != json.dumps(c.to_dict())


def test_run_suite_impossible_tolerance_fails():
    report = run_suite(trials=20, seed=3, tol=1e-30)
    assert not report.overall_pass
    assert any(not c.passed for c in report.checks)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda tol: run_suite(3, 0, tol=tol), id="run_suite"),
        pytest.param(lambda tol: is_separable(BELL, tol=tol), id="is_separable"),
        pytest.param(
            lambda tol: sp2_check_quaternionic(QuatMat2.identity(), tol), id="sp2_check_quaternionic"
        ),
        pytest.param(lambda tol: sp2_check_complex(np.eye(4), tol), id="sp2_check_complex"),
        pytest.param(
            lambda tol: is_quaternionic_complex_matrix(np.eye(4), tol),
            id="is_quaternionic_complex_matrix",
        ),
    ],
)
def test_tolerance_must_be_positive_and_finite(check, tol):
    # A NaN tolerance would fail every comparison, an infinite one pass every
    # comparison: both are rejected like a non-positive one.
    with pytest.raises(ValueError, match="tol must be positive"):
        check(tol)


def test_worst_cases_reproduce_max_deviation():
    # The block suite's scalar fallback and the re-evaluation are the same
    # evaluator, and the block evaluators match it bit for bit: exact.
    report = run_suite(trials=batch.BLOCK + 1, seed=21)
    for check in report.checks:
        assert reevaluate_check(check.name, check.worst_case) == check.max_deviation, check.name


def test_reevaluate_rejects_unknown_name():
    with pytest.raises(ValueError):
        reevaluate_check("nonsense", {})
    with pytest.raises(ValueError, match="'quaterbit_transport_so2xsu2' has no field 'transform'"):
        reevaluate_check("quaterbit_transport_so2xsu2", {"state": state_doc(BELL)})
    with pytest.raises(ValueError, match="'quaterbit_transport_so2xsu2' has no field 'state'"):
        reevaluate_check("quaterbit_transport_so2xsu2", {})
    good = {"state": state_doc(BELL), "transform": su2_doc(SU2Element(1, 0))}
    assert reevaluate_check("second_qubit_inertness", good) == 0.0
    malformed = [
        {**good, "transform": None},
        {**good, "state": state_doc(BELL)[:3]},
        {**good, "state": [[S, 0, 0], [0, 0], [0, 0], [S, 0]]},
        {**good, "transform": {"a": [10**400, 0], "b": [0, 0]}},
    ]
    for doc in malformed:
        with pytest.raises(ValueError, match="'second_qubit_inertness' is malformed"):
            reevaluate_check("second_qubit_inertness", doc)


# ---------------------------------------------------------------------------
# Block evaluation against a per-trial reference
# ---------------------------------------------------------------------------

B = batch.BLOCK

# (seed index, [(check, contract)], inputs of trial t, scalar evaluator): the
# suite's groups as a per-trial loop runs them, each trial read on its own.
# ``lu`` draws the transforms, so that a test can replace them.
def _one_qubit_state(s, i, t):
    return OneQubitState(*batch.haar_one_qubit_states(batch.uniforms(s, i, t, t + 1))[0])


_REFERENCE_GROUPS = [
    (
        0,
        [("one_qubit_intertwining", 1e-11)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t).su2, _one_qubit_state(s, i, t)),
        lambda a, psi: (check_one_qubit_diagram(a, psi),),
    ),
    (
        1,
        [("quaterbit_transport_so2xsu2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t), _sample_state(s, i, t)),
        lambda u, psi: (check_quadrangle(u, psi),),
    ),
    (
        2,
        [
            ("three_way_first_equality", 1e-10),
            ("three_way_second_equality", 1e-10),
            ("closed_form_consistency", 1e-10),
        ],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t), _sample_state(s, i, t)),
        check_three_way,
    ),
    (
        3,
        [("second_qubit_inertness", 1e-11)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t).su2, _sample_state(s, i, t)),
        lambda a, psi: (check_second_qubit_inertness(a, psi),),
    ),
    (
        4,
        [("quaterbit_transport_su2xso2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SU2_X_SO2, s, i, t), _sample_state(s, i, t)),
        lambda u, psi: (check_quadrangle(u, psi),),
    ),
    (
        5,
        [("concurrence_invariance_so2xsu2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t), _sample_state(s, i, t)),
        lambda u, psi: (concurrence_invariance_gap(u, psi),),
    ),
    (
        6,
        [("concurrence_magnitude_su2xso2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SU2_X_SO2, s, i, t), _sample_state(s, i, t)),
        lambda u, psi: (concurrence_magnitude_gap(u, psi),),
    ),
    (
        7,
        [("wootters_preconcurrence_relation", 1e-12)],
        lambda s, i, t, lu: (_sample_state(s, i, t),),
        lambda psi: (wootters_relation_gap(psi),),
    ),
]


def _inputs_doc(inputs):
    *transform, psi = inputs
    state = one_qubit_doc(psi) if isinstance(psi, OneQubitState) else state_doc(psi)
    if not transform:
        return {"state": state, "transform": None}
    if isinstance(transform[0], SU2Element):
        return {"state": state, "transform": su2_doc(transform[0])}
    return {"state": state, "transform": transform_doc(transform[0])}


def _reference_trials(seed, trials, lu=_sample_transform):
    """Per group, (deviations, inputs) of every trial, from the scalar evaluators."""
    per_group = []
    for idx, _, sample, evaluate in _REFERENCE_GROUPS:
        inputs = [sample(seed, idx, t, lu) for t in range(trials)]
        per_group.append([(evaluate(*x), x) for x in inputs])
    return per_group


def _reference_report(seed, trials, per_trial):
    """run_suite's report at the default tolerance, rebuilt from the first
    ``trials`` per-trial deviations with the `>=` rule: the last trial
    reaching the maximum is the worst case."""
    checks = []
    for (_, entries, _, _), rows in zip(_REFERENCE_GROUPS, per_trial):
        for k, (name, contract) in enumerate(entries):
            max_dev, worst = 0.0, None
            for devs, inputs in rows[:trials]:
                if worst is None or devs[k] >= max_dev:
                    max_dev, worst = devs[k], inputs
            checks.append(
                {
                    "name": name,
                    "trials": trials,
                    "max_deviation": max_dev,
                    "tolerance": contract,
                    "passed": max_dev <= contract,
                    "worst_case": _inputs_doc(worst),
                }
            )
    search_trials = min(trials, 100)
    witnesses = []
    for which in (FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2, FailureSearch.CANONICAL_ON_SU2XSO2):
        w = find_variant_failure_witness(which, search_trials, seed)
        witnesses.append(
            {
                "name": which.value,
                "trials": search_trials,
                "threshold": 0.01,
                "found": w is not None,
                "witness": None if w is None else w.to_dict(),
            }
        )
    exp_dev = 0.0
    for t in range(search_trials):
        [(psi, u)] = _search_inputs(Variant.SU2_X_SO2, seed, 10, t, t + 1)
        exp_dev = max(exp_dev, left_coefficient_candidate_deviation(psi, u))
    exploratory = {
        "name": "left_coefficient_variant_on_su2xso2",
        "trials": search_trials,
        "max_deviation": exp_dev,
    }
    return {
        "seed": seed,
        "trials": trials,
        "tolerance": 1e-10,
        "checks": checks,
        "witnesses": witnesses,
        "exploratory": [exploratory],
        "overall_pass": all(c["passed"] for c in checks) and all(w["found"] for w in witnesses),
    }


@pytest.mark.parametrize("seed", [0, 11, 2**33 + 1])
def test_block_suite_matches_per_trial_reference(seed):
    per_trial = _reference_trials(seed, B + 1)
    for trials in (1, 2, B - 1, B, B + 1):
        # Dictionary equality compares the floats with ==, so this is exact.
        expected = _reference_report(seed, trials, per_trial)
        assert run_suite(trials, seed).to_dict() == expected, trials


def test_block_suite_keeps_the_last_of_tied_trials(monkeypatch):
    # Identity transforms make most deviations exactly 0.0 in every trial,
    # so the worst case of those checks must be the last trial.
    def identity_params(u):
        n = len(u)
        return np.zeros(n), np.ones(n, dtype=complex), np.zeros(n, dtype=complex)

    monkeypatch.setattr(batch, "local_unitary_params", identity_params)
    trials, seed = B + 1, 4
    per_trial = _reference_trials(
        seed,
        trials,
        lu=lambda variant, s, i, t: LocalUnitary(variant, SO2Element(0.0), SU2Element(1, 0)),
    )
    doc = run_suite(trials, seed).to_dict()
    assert doc == _reference_report(seed, trials, per_trial)

    last_inputs = {
        name: _inputs_doc(rows[-1][1])
        for (_, entries, _, _), rows in zip(_REFERENCE_GROUPS, per_trial)
        for name, _ in entries
    }
    tied = [c for c in doc["checks"] if c["max_deviation"] == 0.0]
    assert {c["name"] for c in tied} >= {
        "one_qubit_intertwining",
        "quaterbit_transport_so2xsu2",
        "second_qubit_inertness",
        "quaterbit_transport_su2xso2",
    }
    for c in tied:
        assert c["worst_case"] == last_inputs[c["name"]]


def test_nan_deviation_fails_its_check(monkeypatch, capsys):
    group = diagrams._GROUPS[1]

    def nan_at_trial_1(blk):
        devs, scalar = group.evaluate_block(blk)
        if blk.start <= 1 < blk.start + len(devs):
            devs[1 - blk.start, 0] = math.nan
        return devs, scalar

    groups = list(diagrams._GROUPS)
    groups[1] = dataclasses.replace(group, evaluate_block=nan_at_trial_1)
    monkeypatch.setattr(diagrams, "_GROUPS", tuple(groups))

    report = run_suite(trials=5, seed=0)
    check = report.checks[1]
    assert check.name == "quaterbit_transport_so2xsu2"
    assert math.isnan(check.max_deviation) and not check.passed
    assert check.worst_case == _inputs_doc(
        (_sample_transform(Variant.SO2_X_SU2, 0, 1, 1), _sample_state(0, 1, 1))
    )
    assert all(c.passed for c in report.checks if c is not check)
    assert not report.overall_pass
    assert main(["verify", "--trials", "5", "--seed", "0"]) == 1
    capsys.readouterr()
