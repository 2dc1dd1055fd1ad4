"""Acceptance suite: every criterion at its stated trial count and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np

from qgeo.quaternion import INFINITY, J, ONE, Quaternion, chordal_distance
from qgeo.states import (
    TwoQubitState,
    concurrence_term,
    haar_random_one_qubit,
    haar_random_state,
    wootters_preconcurrence,
)
from qgeo.local_unitary import (
    QuatMat2,
    SU2Element,
    Variant,
    complexify,
    is_quaternionic_complex_matrix,
    quat_matrix,
    random_local_unitary,
    random_su2,
    sp2_check_complex,
    sp2_check_quaternionic,
)
from qgeo.moebius import MoebiusQ, apply_moebius_q, compose, moebius_from_local_unitary
from qgeo.diagrams import (
    FailureSearch,
    check_one_qubit_diagram,
    check_quadrangle,
    check_second_qubit_inertness,
    check_three_way,
    concurrence_invariance_gap,
    find_variant_failure_witness,
    wootters_relation_gap,
)

BELL = TwoQubitState(math.sqrt(0.5), 0, 0, math.sqrt(0.5))

# SHA-256 of the `qgeo verify` report bytes at the defaults (--seed 42,
# 10 000 trials), pinned across refactors.  The value holds for numpy's
# Philox streams and this platform's libm (numpy 2.4.6, CPython 3.11.7).
DEFAULT_REPORT_SHA256 = "50cfc6b788ce2ceaeedafd97d06141be2a4bf1227d0e947bf4f2edbbd3305222"


def _report(num: int, name: str, max_dev: float, tol: float) -> None:
    passed = max_dev <= tol
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} "
          f"(max deviation {max_dev:.3e}, tolerance {tol:.1e})")
    assert passed, f"criterion {num}: max deviation {max_dev} exceeds {tol}"


def _report_flag(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_c01_quaternion_algebra_suite():
    n = 100_000
    rng = np.random.default_rng(20_240_601)
    comps = rng.uniform(-1.0, 1.0, size=(n, 12))
    worst = 0.0
    tiny = 1e-300
    for row in comps:
        p = Quaternion.from_reals(*row[0:4])
        q = Quaternion.from_reals(*row[4:8])
        r = Quaternion.from_reals(*row[8:12])

        pq = p * q
        lhs = pq * r
        rhs = p * (q * r)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), tiny))

        norm_prod = abs(p) * abs(q)
        worst = max(worst, abs(abs(pq) - norm_prod) / max(norm_prod, tiny))
        worst = max(worst, abs(abs(q * p) - norm_prod) / max(norm_prod, tiny))

        conj_gap = abs(pq.conjugate() - q.conjugate() * p.conjugate())
        worst = max(worst, conj_gap / max(abs(pq), tiny))

        if q.norm_sq() >= 1e-24:
            worst = max(worst, abs(q * q.inverse() - ONE))
    _report(1, "quaternion-algebra-suite", worst, 1e-12)


def test_c02_encoding_square_so2xsu2():
    worst = 0.0
    for trial in range(10_000):
        u = random_local_unitary(Variant.SO2_X_SU2, [101, trial, 0])
        psi = haar_random_state([101, trial, 1])
        worst = max(worst, check_quadrangle(u, psi))
    _report(2, "encoding-square-so2xsu2", worst, 1e-12)


def test_c03_three_way_equality_with_closed_forms():
    worst_paths = 0.0
    worst_closed = 0.0
    for trial in range(10_000):
        u = random_local_unitary(Variant.SO2_X_SU2, [103, trial, 0])
        psi = haar_random_state([103, trial, 1])
        first, second, closed = check_three_way(u, psi)
        worst_paths = max(worst_paths, first, second)
        worst_closed = max(worst_closed, closed)
    _report(3, "three-way-equality", worst_paths, 1e-10)
    _report(3, "three-way-closed-forms", worst_closed, 1e-10)


def test_c04_concurrence_invariance_and_wootters():
    worst_signed = 0.0
    worst_wootters = 0.0
    for trial in range(10_000):
        u = random_local_unitary(Variant.SO2_X_SU2, [104, trial, 0])
        psi = haar_random_state([104, trial, 1])
        worst_signed = max(worst_signed, concurrence_invariance_gap(u, psi))
        worst_wootters = max(worst_wootters, wootters_relation_gap(psi))
    _report(4, "signed-concurrence-invariance", worst_signed, 1e-12)
    _report(4, "wootters-relation", worst_wootters, 1e-12)

    bell_c = concurrence_term(BELL)
    bell_w = wootters_preconcurrence(BELL)
    worst_bell = max(abs(bell_c - (-0.5)), abs(abs(bell_w) - 1.0))
    _report(4, "bell-state-values", worst_bell, 1e-15)


def test_c05_second_qubit_inertness():
    worst = 0.0
    for trial in range(10_000):
        a = random_su2([105, trial, 0])
        psi = haar_random_state([105, trial, 1])
        worst = max(worst, check_second_qubit_inertness(a, psi))
    _report(5, "second-qubit-inertness", worst, 1e-11)


def test_c06_encoding_square_su2xso2():
    worst = 0.0
    for trial in range(10_000):
        u = random_local_unitary(Variant.SU2_X_SO2, [106, trial, 0])
        psi = haar_random_state([106, trial, 1])
        worst = max(worst, check_quadrangle(u, psi))
    _report(6, "encoding-square-su2xso2", worst, 1e-12)


def test_c07_failure_witnesses_exist():
    w1 = find_variant_failure_witness(
        FailureSearch.LEFT_DENOMINATOR_ON_SO2XSU2, 100, seed=107
    )
    _report_flag(
        7,
        "left-denominator-variant-fails",
        w1 is not None and w1.deviation > 0.01,
        f"witness deviation {w1.deviation:.3f}" if w1 else "no witness found",
    )
    w2 = find_variant_failure_witness(FailureSearch.CANONICAL_ON_SU2XSO2, 100, seed=107)
    _report_flag(
        7,
        "right-coefficient-map-fails-on-su2xso2",
        w2 is not None and w2.deviation > 0.01,
        f"witness deviation {w2.deviation:.3f}" if w2 else "no witness found",
    )


def test_c08_sp2_membership_coherence():
    ok = True
    for trial in range(1_000):
        m = quat_matrix(random_local_unitary(Variant.SO2_X_SU2, [108, trial]))
        ok = ok and sp2_check_quaternionic(m, tol=1e-12)
        ok = ok and sp2_check_complex(complexify(m), tol=1e-12)
    _report_flag(8, "sp2-membership-both-pictures", ok, "1000 group elements")

    rng = np.random.default_rng(20_240_608)
    worst = 0.0
    all_in_image = True
    for _ in range(10_000):
        m1 = QuatMat2(*(Quaternion.from_reals(*rng.uniform(-1, 1, 4)) for _ in range(4)))
        m2 = QuatMat2(*(Quaternion.from_reals(*rng.uniform(-1, 1, 4)) for _ in range(4)))
        gap = np.max(np.abs(complexify(m1 @ m2) - complexify(m1) @ complexify(m2)))
        worst = max(worst, float(gap))
        all_in_image = all_in_image and is_quaternionic_complex_matrix(
            complexify(m1), tol=1e-12
        )
    _report(8, "complexification-homomorphism", worst, 1e-12)

    zero = Quaternion(0j, 0j)
    j_image = complexify(QuatMat2(J, zero, zero, J))
    expected_j = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=complex
    )
    exact = bool(np.array_equal(j_image, expected_j))
    generic_fails = not is_quaternionic_complex_matrix(
        np.diag([1.0, 2.0, 3.0, 4.0]), tol=1e-9
    )
    _report_flag(
        8,
        "metric-and-characterization",
        exact and all_in_image and generic_fails,
        "diag(j,j) maps to the metric exactly; images pass, generic diagonal fails",
    )


def test_c09_moebius_group_law():
    worst = 0.0
    rng = np.random.default_rng(20_240_609)
    for trial in range(10_000):
        f = moebius_from_local_unitary(random_local_unitary(Variant.SO2_X_SU2, [109, trial, 0]))
        g = moebius_from_local_unitary(random_local_unitary(Variant.SO2_X_SU2, [109, trial, 1]))
        if trial % 50 == 0 and not g.m.m21.is_zero():
            # Constructed pole hit: g sends this point to infinity.
            q = -g.m.m22 * g.m.m21.inverse()
        else:
            q = Quaternion.from_reals(*rng.uniform(-1, 1, 4))
        lhs = apply_moebius_q(compose(f, g), q)
        rhs = apply_moebius_q(f, apply_moebius_q(g, q))
        worst = max(worst, chordal_distance(lhs, rhs))
    _report(9, "moebius-group-law", worst, 1e-10)

    worst_sign = 0.0
    for _ in range(500):
        while True:
            try:
                f = MoebiusQ(
                    QuatMat2(*(Quaternion.from_reals(*rng.uniform(-1, 1, 4)) for _ in range(4)))
                )
                break
            except ValueError:
                continue
        neg = MoebiusQ(-f.m)
        q = Quaternion.from_reals(*rng.uniform(-1, 1, 4))
        worst_sign = max(worst_sign, chordal_distance(apply_moebius_q(f, q), apply_moebius_q(neg, q)))
        worst_sign = max(
            worst_sign,
            chordal_distance(apply_moebius_q(f, INFINITY), apply_moebius_q(neg, INFINITY)),
        )
    _report(9, "sign-quotient", worst_sign, 1e-10)


def test_c10_one_qubit_diagram():
    worst = 0.0
    for trial in range(10_000):
        a = random_su2([110, trial, 0])
        psi = haar_random_one_qubit([110, trial, 1])
        worst = max(worst, check_one_qubit_diagram(a, psi))
    # Infinity-valued cases: states with a vanishing second amplitude pass
    # through the point at infinity on both sides.
    from qgeo.states import OneQubitState

    for trial in range(200):
        a = random_su2([110, trial, 2])
        phase = np.exp(1j * np.random.default_rng([110, trial, 3]).uniform(0, 2 * math.pi))
        worst = max(worst, check_one_qubit_diagram(a, OneQubitState(phase, 0)))
        worst = max(worst, check_one_qubit_diagram(SU2Element(0, 1), OneQubitState(phase, 0)))
    _report(10, "one-qubit-diagram", worst, 1e-11)


def _run_cli(*args):
    # -W error: pytest's filterwarnings setting does not reach a subprocess.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qgeo.cli", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_c11_cli_end_to_end(tmp_path):
    # Default verify run: exit 0 with a schema-valid report.
    report_path = tmp_path / "report.json"
    code, out, err = _run_cli("verify", "--report", str(report_path))
    doc = json.loads(report_path.read_text())
    schema_ok = (
        set(doc) == {"seed", "trials", "tolerance", "checks", "witnesses", "exploratory", "overall_pass"}
        and doc["seed"] == 42
        and doc["trials"] == 10_000
        and all(
            set(c) == {"name", "trials", "max_deviation", "tolerance", "passed", "worst_case"}
            for c in doc["checks"]
        )
        and all(
            set(w) == {"name", "trials", "threshold", "found", "witness"}
            for w in doc["witnesses"]
        )
        and doc["overall_pass"] is True
    )
    _report_flag(
        11,
        "verify-defaults",
        code == 0 and schema_ok and err == "",
        f"exit {code}, schema_ok={schema_ok}, stderr {err!r}",
    )
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    _report_flag(11, "verify-defaults-bytes", digest == DEFAULT_REPORT_SHA256, f"sha256 {digest}")

    # Seed determinism at a small trial count.
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    _run_cli("verify", "--trials", "30", "--seed", "5", "--report", str(r1))
    _run_cli("verify", "--trials", "30", "--seed", "5", "--report", str(r2))
    _report_flag(
        11,
        "verify-seed-determinism",
        r1.read_bytes() == r2.read_bytes(),
        "identical report bytes for identical seeds",
    )

    # Analyze the Bell state.
    s = math.sqrt(0.5)
    bell_path = tmp_path / "bell.json"
    bell_path.write_text(json.dumps({"amplitudes": [[s, 0], [0, 0], [0, 0], [s, 0]]}))
    code, out, err = _run_cli("analyze", str(bell_path))
    doc = json.loads(out)
    c_ok = abs(doc["concurrence_term"][0] + 0.5) <= 1e-12 and abs(doc["concurrence_term"][1]) <= 1e-12
    p_ok = max(abs(np.array(doc["conformal_image"]) - np.array([0, 0, -1, 0]))) <= 1e-12
    _report_flag(
        11, "analyze-bell", code == 0 and c_ok and p_ok and err == "", "C = -0.5 and image -j, no stderr"
    )

    # Transform preserves |C| for a spread of transform files.
    rng = np.random.default_rng(20_240_611)
    ok = True
    for k, variant in enumerate(("so2xsu2", "su2xso2", "so2xsu2")):
        g = rng.standard_normal(4)
        n = math.sqrt(float(g @ g))
        tr_path = tmp_path / f"tr{k}.json"
        tr_path.write_text(
            json.dumps(
                {
                    "variant": variant,
                    "theta": float(rng.uniform(0, 2 * math.pi)),
                    "a": [g[0] / n, g[1] / n],
                    "b": [g[2] / n, g[3] / n],
                }
            )
        )
        code, out, err = _run_cli(
            "transform", str(bell_path), str(tr_path), str(tmp_path / f"out{k}.json")
        )
        doc = json.loads(out)
        before = abs(complex(*doc["before"]["concurrence_term"]))
        after = abs(complex(*doc["after"]["concurrence_term"]))
        ok = ok and code == 0 and err == "" and abs(before - after) <= 1e-12
    _report_flag(11, "transform-preserves-concurrence", ok, "printed |C| unchanged, no stderr")
