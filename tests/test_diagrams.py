"""Verification harness: check evaluators, witness searches, report determinism."""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from qgeo import batch, diagrams, sampling
from qgeo.cli import load_state, load_transform, main
from qgeo.quaternion import DegenerateMapError
from qgeo.states import (
    OneQubitState,
    TwoQubitState,
    encode_amplitudes,
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
    encode_transform,
    is_quaternionic_complex_matrix,
    random_local_unitary,
    random_su2,
    sp2_check_complex,
    sp2_check_quaternionic,
)
from qgeo.diagrams import (
    WITNESS_THRESHOLD,
    FailureSearch,
    check_one_qubit_diagram,
    check_quadrangle,
    check_second_qubit_inertness,
    check_three_way,
    concurrence_invariance_gap,
    concurrence_magnitude_gap,
    left_coefficient_candidate_deviation,
    reevaluate_check,
    run_suite,
    variant_failure_deviation,
    wootters_relation_gap,
)

S = math.sqrt(0.5)
BELL = TwoQubitState(S, 0, 0, S)

IDENTITY_B = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.0), SU2Element(1, 0))
IDENTITY_BP = LocalUnitary(Variant.SU2_X_SO2, SO2Element(0.0), SU2Element(1, 0))


def _row_inputs(name, trials, seed=0):
    """The inputs of trials [0, trials) of the suite's row reporting ``name``, read as one block."""
    group, _ = diagrams._row(name)
    blk = diagrams._sample_trials(group, seed, 0, trials)
    return [diagrams._scalar_inputs(group, blk, i) for i in range(trials)]


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
    for a, psi in _row_inputs("one_qubit_intertwining", 500):
        assert check_one_qubit_diagram(a, psi) <= 1e-11


def test_quadrangle_identity_and_examples():
    assert check_quadrangle(IDENTITY_B, haar_random_state(4)) == 0.0
    flip = LocalUnitary(Variant.SO2_X_SU2, SO2Element(math.pi / 2), SU2Element(1, 0))
    assert check_quadrangle(flip, TwoQubitState(1, 0, 0, 0)) <= 1e-15


def test_quadrangle_random_gaps_small():
    for u, psi in _row_inputs("quaterbit_transport_so2xsu2", 500):
        assert check_quadrangle(u, psi) <= 1e-12


def test_three_way_identity_and_bell():
    assert check_three_way(IDENTITY_B, haar_random_state(9))[:2] == (0.0, 0.0)
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(math.pi / 4), SU2Element(1, 0))
    first, second, _ = check_three_way(u, BELL)
    assert first <= 1e-12 and second <= 1e-12


def test_three_way_holds_next_to_infinity():
    # A unit spinor with a tiny q2 maps next to INFINITY, not onto it, on
    # every path: the three ways agree to rounding, with no 2*g gap between
    # INFINITY and the true image.
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.7), SU2Element(1, 0))
    for g in (0.999e-12, 1e-13, 1e-160, 1e-300):
        assert max(check_three_way(u, TwoQubitState(math.sqrt(1 - g * g), 0, g, 0))) <= 1e-15


def test_three_way_and_closed_forms_random():
    for seed in range(300):
        u = random_local_unitary(Variant.SO2_X_SU2, seed, 0)
        psi = haar_random_state(seed, 1)
        first, second, closed = check_three_way(u, psi)
        assert first <= 1e-10 and second <= 1e-10
        assert closed <= 1e-10


def test_second_qubit_inertness():
    assert check_second_qubit_inertness(SU2Element(1, 0), haar_random_state(2)) == 0.0
    for seed in range(300):
        a = random_su2(seed, 5)
        assert check_second_qubit_inertness(a, BELL) <= 1e-12
        assert check_second_qubit_inertness(a, haar_random_state(seed, 6)) <= 1e-11


def test_quadrangle_prime_random_gaps_small():
    assert check_quadrangle(IDENTITY_BP, haar_random_state(3)) == 0.0
    for u, psi in _row_inputs("quaterbit_transport_su2xso2", 500):
        assert check_quadrangle(u, psi) <= 1e-12


def test_invariance_gaps_small():
    for seed in range(200):
        psi = haar_random_state(seed, 1)
        u = random_local_unitary(Variant.SO2_X_SU2, seed, 2)
        up = random_local_unitary(Variant.SU2_X_SO2, seed, 3)
        assert concurrence_invariance_gap(u, psi) <= 1e-12
        assert concurrence_magnitude_gap(up, psi) <= 1e-12
        assert wootters_relation_gap(psi) <= 1e-12


def test_failure_witness_found_for_left_denominator_variant():
    w = run_suite(100, 0).witness_searches[0].witness
    assert w is not None
    assert w.deviation > 0.01
    assert w.transform.variant is Variant.SO2_X_SU2


def test_failure_witness_found_for_canonical_on_su2xso2():
    w = run_suite(100, 0).witness_searches[1].witness
    assert w is not None
    assert w.deviation > 0.01
    assert w.transform.variant is Variant.SU2_X_SO2


def test_degenerate_search_space_finds_no_witness():
    # Real-entry transforms: all operand orderings coincide, so no input of
    # the search's state stream is a witness (and none is NaN).
    which = FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2
    for t in range(100):
        u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.0), SU2Element((-1.0) ** t, 0))
        psi = haar_random_state(0, diagrams._row(which.value)[0].idx, t)
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
    w = run_suite(50, 7).witness_searches[1].witness
    assert w is not None
    again = reevaluate_check(w.variant_tag, w.to_dict())
    assert abs(again - w.deviation) <= 1e-14
    direct = variant_failure_deviation(
        FailureSearch(w.variant_tag), w.state, w.transform
    )
    assert direct == again


def test_left_coefficient_candidate_intertwines():
    # The one ordering the failure searches leave out turns out to commute
    # exactly; the suite reports it without gating on it.
    for seed in range(200):
        psi = haar_random_state(seed, 0)
        u = random_local_unitary(Variant.SU2_X_SO2, seed, 1)
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
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_suite(trials=0, seed=0)


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
    # The suite and the re-evaluation run the same evaluator, on a block and
    # on one trial, and the two agree bit for bit: exact.
    report = run_suite(trials=batch.BLOCK + 1, seed=21)
    for check in report.checks:
        assert reevaluate_check(check.name, check.worst_case) == check.max_deviation, check.name
    # A search's witness replays by the search's name, as the report stores it.
    for search in report.to_dict()["witnesses"]:
        witness = search["witness"]
        assert reevaluate_check(search["name"], witness) == witness["deviation"], search["name"]


def test_reevaluate_rejects_unknown_name():
    with pytest.raises(ValueError):
        reevaluate_check("nonsense", {})
    with pytest.raises(ValueError, match="'quaterbit_transport_so2xsu2' has no field 'transform'"):
        reevaluate_check("quaterbit_transport_so2xsu2", {"state": encode_amplitudes(BELL)})
    with pytest.raises(ValueError, match="'quaterbit_transport_so2xsu2' has no field 'state'"):
        reevaluate_check("quaterbit_transport_so2xsu2", {})
    good = {"state": encode_amplitudes(BELL), "transform": encode_transform(SU2Element(1, 0))}
    assert reevaluate_check("second_qubit_inertness", good) == 0.0
    malformed = [
        {**good, "transform": None},
        {**good, "state": encode_amplitudes(BELL)[:3]},
        {**good, "state": [[S, 0, 0], [0, 0], [0, 0], [S, 0]]},
        {**good, "transform": {"a": [10**400, 0], "b": [0, 0]}},
    ]
    for doc in malformed:
        with pytest.raises(ValueError, match="'second_qubit_inertness' is malformed"):
            reevaluate_check("second_qubit_inertness", doc)
    # A transform of the other variant belongs to another identity.
    for name in ("quaterbit_transport_so2xsu2", FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2.value):
        other = {"state": encode_amplitudes(BELL), "transform": encode_transform(IDENTITY_BP)}
        with pytest.raises(ValueError, match=f"'{name}' is malformed: variant 'su2xso2'"):
            reevaluate_check(name, other)


@pytest.mark.parametrize("doc", [[1, 2], None, "state"])
@pytest.mark.parametrize("name", ["quaterbit_transport_so2xsu2", "wootters_preconcurrence_relation"])
def test_reevaluate_names_a_worst_case_that_is_no_object(name, doc):
    message = f"worst case of '{name}' is malformed: expected a JSON object"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        reevaluate_check(name, doc)


def test_replay_decodes_as_strictly_as_the_files():
    # The report's inputs go through the codec that reads state and transform
    # files: no string or boolean passes for a number, and a wrong count of
    # amplitudes is named as such.
    name = "quaterbit_transport_so2xsu2"
    wc = next(c.worst_case for c in run_suite(trials=3, seed=0).checks if c.name == name)
    cases = [
        ({**wc, "transform": {**wc["transform"], "theta": "0.5"}}, "theta must be a finite number"),
        ({**wc, "transform": {**wc["transform"], "theta": True}}, "theta must be a finite number"),
        ({**wc, "state": [[True, 0], *wc["state"][1:]]}, "amplitudes[0] must be a [re, im] pair of numbers"),
        ({**wc, "state": wc["state"][:3]}, "amplitudes must list exactly 4 [re, im] pairs"),
    ]
    for doc, message in cases:
        with pytest.raises(ValueError, match=re.escape(f"'{name}' is malformed: {message}")):
            reevaluate_check(name, doc)


def test_report_inputs_are_state_and_transform_files(tmp_path):
    # One schema: every worst case and witness decodes and re-encodes to
    # itself, and a local-unitary row's state and transform load as files to
    # the very inputs that replay decodes.
    doc = run_suite(trials=3, seed=0).to_dict()
    cases = [(c["name"], c["worst_case"]) for c in doc["checks"]]
    cases += [(w["name"], w["witness"]) for w in doc["witnesses"]]
    assert all(wc is not None for _, wc in cases)
    for name, wc in cases:
        group, _ = diagrams._row(name)
        inputs = diagrams._inputs_from_doc(group, wc)
        assert diagrams._inputs_doc(inputs) == {"state": wc["state"], "transform": wc["transform"]}, name
        if isinstance(group.transform, Variant):
            state, transform = tmp_path / "state.json", tmp_path / "transform.json"
            state.write_text(json.dumps({"amplitudes": wc["state"]}))
            transform.write_text(json.dumps(wc["transform"]))
            assert (load_transform(str(transform)), load_state(str(state))) == inputs, name


def test_every_variant_evaluator_rejects_the_other_variant():
    psi = haar_random_state(1)
    so2xsu2 = random_local_unitary(Variant.SO2_X_SU2, 2)
    su2xso2 = random_local_unitary(Variant.SU2_X_SO2, 2)
    left, canonical = FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2, FailureSearch.CANONICAL_ON_SU2XSO2
    evaluators = [
        (lambda u: variant_failure_deviation(left, psi, u), so2xsu2),
        (lambda u: variant_failure_deviation(canonical, psi, u), su2xso2),
        (lambda u: left_coefficient_candidate_deviation(psi, u), su2xso2),
    ]
    for evaluate, right in evaluators:
        assert math.isfinite(evaluate(right))
        wrong = so2xsu2 if right is su2xso2 else su2xso2
        with pytest.raises(ValueError, match=f"requires variant {right.variant.value!r}"):
            evaluate(wrong)


def test_one_table_holds_every_seeded_row():
    groups = diagrams._GROUPS
    assert [g.idx for g in groups] == list(range(11))
    names = [name for g in groups for name, _ in g.checks]
    assert len(names) == len(set(names))
    # Each report section lists its rows in table order.
    doc = run_suite(trials=3, seed=0).to_dict()
    for section in ("checks", "witnesses", "exploratory"):
        rows = [name for g in groups if g.section == section for name, _ in g.checks]
        assert [r["name"] for r in doc[section]] == rows, section
    # The exploratory candidate replays by its name like any other row.
    name = "left_coefficient_variant_on_su2xso2"
    u, psi = random_local_unitary(Variant.SU2_X_SO2, 0, 10, 2), haar_random_state(0, 10, 2)
    doc = {"state": encode_amplitudes(psi), "transform": encode_transform(u)}
    assert reevaluate_check(name, doc) == left_coefficient_candidate_deviation(psi, u)


# ---------------------------------------------------------------------------
# Block evaluation against a per-trial reference
# ---------------------------------------------------------------------------

# The tests below cross block boundaries at a small block size, so that the
# per-trial references they build stay cheap; run_suite reads batch.BLOCK
# each time it runs.
B = 64


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(batch, "BLOCK", B)


# (seed index, [(check, contract)], inputs of trial t, scalar evaluator): the
# suite's groups as a per-trial loop runs them, each trial read on its own by
# the public samplers.
# ``lu`` draws the transforms, so that a test can replace them.
_REFERENCE_GROUPS = [
    (
        0,
        [("one_qubit_intertwining", 1e-11)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t).su2, haar_random_one_qubit(s, i, t)),
        lambda a, psi: (check_one_qubit_diagram(a, psi),),
    ),
    (
        1,
        [("quaterbit_transport_so2xsu2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t), haar_random_state(s, i, t)),
        lambda u, psi: (check_quadrangle(u, psi),),
    ),
    (
        2,
        [
            ("three_way_first_equality", 1e-10),
            ("three_way_second_equality", 1e-10),
            ("closed_form_consistency", 1e-10),
        ],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t), haar_random_state(s, i, t)),
        check_three_way,
    ),
    (
        3,
        [("second_qubit_inertness", 1e-11)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t).su2, haar_random_state(s, i, t)),
        lambda a, psi: (check_second_qubit_inertness(a, psi),),
    ),
    (
        4,
        [("quaterbit_transport_su2xso2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SU2_X_SO2, s, i, t), haar_random_state(s, i, t)),
        lambda u, psi: (check_quadrangle(u, psi),),
    ),
    (
        5,
        [("concurrence_invariance_so2xsu2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SO2_X_SU2, s, i, t), haar_random_state(s, i, t)),
        lambda u, psi: (concurrence_invariance_gap(u, psi),),
    ),
    (
        6,
        [("concurrence_magnitude_su2xso2", 1e-12)],
        lambda s, i, t, lu: (lu(Variant.SU2_X_SO2, s, i, t), haar_random_state(s, i, t)),
        lambda u, psi: (concurrence_magnitude_gap(u, psi),),
    ),
    (
        7,
        [("wootters_preconcurrence_relation", 1e-12)],
        lambda s, i, t, lu: (haar_random_state(s, i, t),),
        lambda psi: (wootters_relation_gap(psi),),
    ),
]


def _search_transform(variant, s, i, t):
    """The transform of search trial t, read on its own: theta on the arcs |sin| >= 0.1."""
    u = sampling.uniforms(s, i, t, t + 1)
    _, a, b = sampling.local_unitary_params(u)
    theta = diagrams._search_angles(u[:, sampling._ANGLE])[0]
    return LocalUnitary(variant, SO2Element(theta), SU2Element(a[0], b[0]))


# (seed index, variant, deviation of (psi, u)): the two failure searches and
# the exploratory candidate, as a per-trial loop runs them.
_REFERENCE_SEARCH_ROWS = [
    (
        8,
        Variant.SO2_X_SU2,
        lambda psi, u: variant_failure_deviation(FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2, psi, u),
    ),
    (
        9,
        Variant.SU2_X_SO2,
        lambda psi, u: variant_failure_deviation(FailureSearch.CANONICAL_ON_SU2XSO2, psi, u),
    ),
    (10, Variant.SU2_X_SO2, left_coefficient_candidate_deviation),
]


def _reference_search(seed, trials, idx, variant, deviation):
    """(max deviation, (u, psi)) of a search row: the last trial reaching the maximum."""
    best = None
    for t in range(trials):
        psi, u = haar_random_state(seed, idx, t), _search_transform(variant, seed, idx, t)
        dev = deviation(psi, u)
        if best is None or dev >= best[0]:
            best = (dev, (u, psi))
    return best


def _inputs_doc(inputs):
    *transform, psi = inputs
    transform_doc = encode_transform(*transform) if transform else None
    return {"state": encode_amplitudes(psi), "transform": transform_doc}


def _reference_trials(seed, trials, lu=random_local_unitary):
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
    *searches, (exp_dev, _) = (
        _reference_search(seed, search_trials, *row) for row in _REFERENCE_SEARCH_ROWS
    )
    witnesses = []
    for which, (dev, inputs) in zip(FailureSearch, searches):
        witness = {**_inputs_doc(inputs), "variant_tag": which.value, "deviation": dev}
        witnesses.append(
            {
                "name": which.value,
                "trials": search_trials,
                "threshold": 0.01,
                "found": dev > 0.01,
                "witness": witness if dev > 0.01 else None,
            }
        )
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
@pytest.mark.usefixtures("small_block")
def test_block_suite_matches_per_trial_reference(seed):
    per_trial = _reference_trials(seed, B + 1)
    for trials in (1, 2, B - 1, B, B + 1):
        # Dictionary equality compares the floats with ==, so this is exact.
        expected = _reference_report(seed, trials, per_trial)
        assert run_suite(trials, seed).to_dict() == expected, trials


@pytest.mark.usefixtures("small_block")
def test_block_suite_keeps_the_last_of_tied_trials(monkeypatch):
    # Identity transforms make most deviations exactly 0.0 in every trial,
    # so the worst case of those checks must be the last trial.
    def identity_params(u):
        n = len(u)
        return np.zeros(n), np.ones(n, dtype=complex), np.zeros(n, dtype=complex)

    monkeypatch.setattr(sampling, "local_unitary_params", identity_params)
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


def _nan_on(bad, psi, deviation):
    """``deviation`` with NaN on the trials whose state is ``bad``, for one trial or a block of them."""
    return np.where(psi.alpha.real == bad.alpha.real, math.nan, deviation)


def test_nan_deviation_fails_its_check(monkeypatch, capsys):
    bad = haar_random_state(0, 1, 1)
    quadrangle = check_quadrangle
    monkeypatch.setattr(diagrams, "check_quadrangle", lambda u, psi: _nan_on(bad, psi, quadrangle(u, psi)))

    report = run_suite(trials=5, seed=0)
    check = report.checks[1]
    assert check.name == "quaterbit_transport_so2xsu2"
    assert math.isnan(check.max_deviation) and not check.passed
    assert check.worst_case == _inputs_doc(
        (random_local_unitary(Variant.SO2_X_SU2, 0, 1, 1), haar_random_state(0, 1, 1))
    )
    assert all(c.passed for c in report.checks if c is not check)
    assert not report.overall_pass
    assert main(["verify", "--trials", "5", "--seed", "0"]) == 1
    capsys.readouterr()


def test_nan_deviation_fails_its_search_and_shows_in_the_exploratory_row(monkeypatch, capsys):
    # Trial 1 of the left-denominator search and of the exploratory candidate
    # deviate by NaN: the search finds no witness, whatever its other trials
    # read, and the candidate reports the NaN instead of dropping it.
    which = FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2
    bad_search = haar_random_state(0, diagrams._row(which.value)[0].idx, 1)
    bad_candidate = haar_random_state(0, diagrams._row("left_coefficient_variant_on_su2xso2")[0].idx, 1)
    search, candidate = variant_failure_deviation, left_coefficient_candidate_deviation
    monkeypatch.setattr(
        diagrams,
        "variant_failure_deviation",
        lambda w, psi, u: _nan_on(bad_search, psi, search(w, psi, u)),
    )
    monkeypatch.setattr(
        diagrams,
        "left_coefficient_candidate_deviation",
        lambda psi, u: _nan_on(bad_candidate, psi, candidate(psi, u)),
    )

    report = run_suite(trials=5, seed=0)
    left, canonical = report.witness_searches
    assert not left.found and canonical.found
    assert math.isnan(report.exploratory[0].max_deviation)
    assert all(c.passed for c in report.checks)
    assert not report.overall_pass
    assert main(["verify", "--trials", "5", "--seed", "0"]) == 1
    capsys.readouterr()


def test_a_trial_that_raises_fails_its_row(monkeypatch, capsys):
    # Trial 1 of every two-qubit row reads the zero state, whose conformal
    # image is the indeterminate 0/0 (DegenerateMapError).  The rows that
    # take that quotient fail with trial 1 as their worst case, the others
    # pass, and the run ends with a report, not with an error.
    sample = sampling.haar_rows

    def zero_trial_1(u, n):
        rows = sample(u, n)
        if n == 4:
            rows[1:2] = 0.0
        return rows

    monkeypatch.setattr(sampling, "haar_rows", zero_trial_1)
    report = run_suite(trials=5, seed=0)
    failed = {c.name: c for c in report.checks if not c.passed}
    assert set(failed) == {
        "three_way_first_equality",
        "three_way_second_equality",
        "closed_form_consistency",
        "second_qubit_inertness",
    }
    for name, check in failed.items():
        assert math.isnan(check.max_deviation)
        assert check.worst_case["state"] == [[0.0, 0.0]] * 4
        with pytest.raises(DegenerateMapError):
            reevaluate_check(name, check.worst_case)
    assert not any(w.found for w in report.witness_searches)
    assert math.isnan(report.exploratory[0].max_deviation)
    assert main(["verify", "--trials", "5", "--seed", "0"]) == 1
    capsys.readouterr()


def _marked(deviation, parent: int, marks):
    """``deviation`` with ``value`` on the trials of each (state, value, in_parent) of
    ``marks``, where the process that ``in_parent`` names evaluates them: this
    (pytest's) process ``parent``, or a worker."""

    def evaluate(u, psi):
        dev = deviation(u, psi)
        for state, value, in_parent in marks:
            if in_parent == (os.getpid() == parent):
                dev = np.where(psi.alpha.real == state.alpha.real, value, dev)
        return dev

    return evaluate


# At 2 CPUs with blocks of B trials, a run of 4 * B trials deals the blocks
# of rows 1 and 4 (units 4-7 and 16-19 of the suite) to the worker, this
# process, the worker and this process, in trial order: trials 0-63 and
# 128-191 go to the worker, 64-127 and 192-255 stay here.


@pytest.mark.usefixtures("small_block")
def test_the_first_nan_trial_is_the_worst_case_whichever_process_reads_it(monkeypatch):
    # NaN in the worker's trial 10 and in this process's trial 70, and a
    # deviation of 1.0, far above any other, in this process's trial 200.
    monkeypatch.setattr(batch, "_available_cpus", lambda: 2)
    state = [haar_random_state(0, 1, t) for t in range(4 * B)]
    marks = [(state[10], math.nan, False), (state[70], math.nan, True), (state[200], 1.0, True)]
    monkeypatch.setattr(diagrams, "check_quadrangle", _marked(check_quadrangle, os.getpid(), marks))
    check = next(c for c in run_suite(4 * B, 0).checks if c.name == "quaterbit_transport_so2xsu2")
    assert math.isnan(check.max_deviation) and not check.passed
    assert check.worst_case == _inputs_doc((random_local_unitary(Variant.SO2_X_SU2, 0, 1, 10), state[10]))


@pytest.mark.usefixtures("small_block")
def test_a_tied_maximum_goes_to_the_later_trial_whichever_process_reads_it(monkeypatch):
    # Row 1 ties the worker's trial 10 with this process's trial 70; row 4
    # ties this process's trial 70 with the worker's trial 130.
    monkeypatch.setattr(batch, "_available_cpus", lambda: 2)
    row1, row4 = ([haar_random_state(0, idx, t) for t in range(4 * B)] for idx in (1, 4))
    marks = [(row1[10], 0.5, False), (row1[70], 0.5, True), (row4[70], 0.5, True), (row4[130], 0.5, False)]
    monkeypatch.setattr(diagrams, "check_quadrangle", _marked(check_quadrangle, os.getpid(), marks))
    checks = {c.name: c for c in run_suite(4 * B, 0).checks}
    for name, variant, idx, later in (
        ("quaterbit_transport_so2xsu2", Variant.SO2_X_SU2, 1, 70),
        ("quaterbit_transport_su2xso2", Variant.SU2_X_SO2, 4, 130),
    ):
        assert checks[name].max_deviation == 0.5
        inputs = (random_local_unitary(variant, 0, idx, later), haar_random_state(0, idx, later))
        assert checks[name].worst_case == _inputs_doc(inputs), name


def _record_scalar_evaluations(monkeypatch) -> list:
    """Make every row record its index and state each time it evaluates one trial's inputs.

    The suite then runs in this process alone, whose memory holds the record.
    """
    monkeypatch.setattr(batch, "_available_cpus", lambda: 1)
    calls = []

    def recording(group):
        def evaluate(*inputs):
            if isinstance(inputs[-1], (OneQubitState, TwoQubitState)):
                calls.append((group.idx, inputs[-1]))
            return group.evaluate(*inputs)

        return dataclasses.replace(group, evaluate=evaluate)

    monkeypatch.setattr(diagrams, "_GROUPS", tuple(map(recording, diagrams._GROUPS)))
    return calls


@pytest.mark.usefixtures("small_block")
def test_every_row_evaluates_its_trials_in_blocks(monkeypatch):
    # The checks, both searches and the exploratory candidate: on Haar inputs
    # no trial takes a branch, so none is evaluated on its own.
    calls = _record_scalar_evaluations(monkeypatch)
    run_suite(B + 1, 0)
    assert calls == []


@pytest.mark.usefixtures("small_block")
def test_branch_trials_fall_back_to_the_scalar_code(monkeypatch):
    # Trials whose spare uniform (slot 15) is below 0.2 get q2 = 0 (a2 = 0
    # for one qubit), whose conformal image is INFINITY, or a q2 whose |q2|^2
    # underflows (below 2**-1022) but is not zero, whose inverse the library
    # rescales, whichever block reads them.  The block marks them, the
    # scalar code evaluates them, and the report is still the per-trial one.
    sample = sampling.haar_rows

    def q2_at_zero(u, n):
        rows = sample(u, n)
        if u.shape[1] == sampling.K:  # a state's row, not the SU(2) pair's
            spare = u[:, 15]
            rows[spare < 0.1, n // 2 :] = 0.0
            rows[(0.1 <= spare) & (spare < 0.2), n // 2 :] *= 2.0**-540
        return rows

    monkeypatch.setattr(sampling, "haar_rows", q2_at_zero)
    per_trial = _reference_trials(3, B + 1)
    calls = _record_scalar_evaluations(monkeypatch)
    assert run_suite(B + 1, 3).to_dict() == _reference_report(3, B + 1, per_trial)
    # Every row that takes a quotient went through the fallback, on both strata.
    assert {idx for idx, _ in calls} == {0, 2, 3, 8, 9, 10}
    q2 = [abs(psi.a2) if isinstance(psi, OneQubitState) else abs(psi.gamma) for _, psi in calls]
    assert 0.0 in q2 and any(0 < x < 2.0**-500 for x in q2)
