"""CLI end-to-end: subcommands, file formats, exit codes, determinism."""

import csv
import errno
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__

import qgeo.cli
from conftest import child_env
from qgeo import batch, diagrams
from qgeo.cli import load_state, load_transform, main
from qgeo.conformal import conformal_map, inverse_stereographic, schmidt_concurrence_form
from qgeo.local_unitary import LocalUnitary, SO2Element, SU2Element
from qgeo.moebius import ORBIT_CHUNK, apply_moebius_q, moebius_from_local_unitary, orbit_s4
from qgeo.states import haar_random_state, quaternionify

S = math.sqrt(0.5)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(path, amplitudes):
    path.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in amplitudes]}))
    return str(path)


def write_transform(path, variant, theta, a, b):
    path.write_text(
        json.dumps(
            {"variant": variant, "theta": theta, "a": [a.real, a.imag], "b": [b.real, b.imag]}
        )
    )
    return str(path)


@pytest.fixture
def bell_state(tmp_path):
    return write_state(tmp_path / "bell.json", [complex(S), 0j, 0j, complex(S)])


def test_analyze_bell(capsys, bell_state):
    code, out, _ = run_cli(capsys, "analyze", bell_state)
    assert code == 0
    doc = json.loads(out)
    assert doc["concurrence_term"][0] == pytest.approx(-0.5, abs=1e-15)
    assert doc["concurrence_term"][1] == pytest.approx(0.0, abs=1e-15)
    assert doc["schmidt_term"] == [0.0, 0.0]
    np.testing.assert_allclose(doc["conformal_image"], [0, 0, -1, 0], atol=1e-12)
    np.testing.assert_allclose(doc["s4_point"], [0, 0, -1, 0, 0], atol=1e-12)
    assert doc["separable"] is False
    assert abs(doc["wootters_preconcurrence"][0] + 1.0) <= 1e-12
    assert doc["q1_norm_sq"] == pytest.approx(0.5)
    assert doc["q2_norm_sq"] == pytest.approx(0.5)


def test_analyze_component_norms_match_the_library_exactly(capsys, tmp_path):
    path = write_state(tmp_path / "s.json", haar_random_state(5).amplitudes.tolist())
    psi = load_state(path)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["q1_norm_sq"] == quaternionify(psi).q1.norm_sq()
    assert doc["q2_norm_sq"] == schmidt_concurrence_form(psi)[1]


def test_analyze_basis_state_hits_infinity(capsys, tmp_path):
    path = write_state(tmp_path / "zero.json", [1 + 0j, 0j, 0j, 0j])
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["conformal_image"] == "inf"
    assert doc["separable"] is True
    np.testing.assert_allclose(doc["s4_point"], [0, 0, 0, 0, 1], atol=1e-15)


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/state.json")
    assert code == 2
    assert "not found" in err


def test_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("command", ["analyze", "transform", "orbit"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, bell_state, command):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 0.3, 1 + 0j, 0j)
    args = {
        "analyze": [str(nested)],
        "transform": [bell_state, str(nested), str(tmp_path / "o.json")],
        "orbit": [str(nested), tr, "--out", str(tmp_path / "o.csv")],
    }[command]
    code, _, err = run_cli(capsys, command, *args)
    assert code == 2
    assert err == f"error: {nested}: invalid JSON: nested too deeply\n"


def test_analyze_schema_violations(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"amplitudes": [[1, 0], [0, 0], [0, 0]]}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "amplitudes" in err

    path.write_text(json.dumps({"amplitudes": [[1, 0], [0, "x"], [0, 0], [0, 0]]}))
    assert run_cli(capsys, "analyze", str(path))[0] == 2

    # Norm too far from 1 without being zero.
    path.write_text(json.dumps({"amplitudes": [[0.9, 0], [0, 0], [0, 0], [0, 0]]}))
    assert run_cli(capsys, "analyze", str(path))[0] == 2

    # An integer too large for a float is an input error, not a crash; so is
    # one longer than the interpreter converts from a JSON literal at all.
    path.write_text(json.dumps({"amplitudes": [[1, 0], [0, 0], [0, 0], [0, int("9" * 400)]]}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and "amplitudes[3] must be finite" in err
    path.write_text('{"amplitudes": [[1, 0], [0, 0], [0, 0], [0, ' + "9" * 5000 + "]]}")
    assert run_cli(capsys, "analyze", str(path))[0] == 2


def test_input_errors_exit_2_and_leave_no_output(capsys, tmp_path, bell_state):
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 0.3, 1 + 0j, 0j)
    out = tmp_path / "out"
    a_file, listed, bare = tmp_path / "file", tmp_path / "list.json", tmp_path / "bare.json"
    a_file.write_text("")
    listed.write_text("[]")
    bare.write_text('{"amps": []}')
    cases = [
        (["verify", "--trials", "0", "--report", str(out)], "--trials must be at least 1"),
        *((["verify", "--tol", tol, "--report", str(out)], "--tol must be a positive number")
          for tol in ("0", "-1", "nan", "inf")),
        (["orbit", bell_state, tr, "--steps", "-1", "--out", str(out)], "--steps must be non-negative"),
        (["sample", "--count", "0", "--out", str(out)], "--count must be at least 1"),
        (["sample", "--out", str(a_file)], f"{a_file}: cannot create directory: File exists"),
        (["transform", bell_state, tr, str(out / "o.json")], f"{out / 'o.json'}: cannot write: "),
        (["analyze", str(tmp_path)], f"{tmp_path}: Is a directory"),
        (["analyze", str(listed)], f"{listed}: expected a JSON object"),
        (["analyze", str(bare)], f"{bare}: missing field 'amplitudes'"),
    ]
    for args, message in cases:
        code, stdout, err = run_cli(capsys, *args)
        assert (code, stdout) == (2, ""), args
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (args, err)
        assert not out.exists(), args


def test_analyze_zero_vector_is_domain_error(capsys, tmp_path):
    path = write_state(tmp_path / "null.json", [0j, 0j, 0j, 0j])
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert err == f"error: {path}: state vector is zero\n"


@pytest.mark.parametrize("amplitude, code, message", [
    (1e-10, 2, "amplitudes norm 1e-10 is not within 1e-06 of 1"),
    (1e-160, 3, "state vector is zero"),
])
def test_a_state_file_is_zero_by_the_rule_of_unit(capsys, tmp_path, amplitude, code, message):
    # Zero is a squared norm below 2**-1022, as for quaternion.unit: 1e-10 is
    # a nonzero vector far from norm 1, an input error; 1e-160 squares to zero.
    path = write_state(tmp_path / "tiny.json", [complex(amplitude), 0j, 0j, 0j])
    assert run_cli(capsys, "analyze", path) == (code, "", f"error: {path}: {message}\n")


def test_main_returns_the_argparse_exit_code(capsys):
    assert main(["verify", "--trials", "x"]) == 2
    assert "argument --trials: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: qgeo")


def test_analyze_renormalizes_with_warning(capsys, tmp_path):
    eps = 3e-7
    path = write_state(tmp_path / "near.json", [complex(S + eps), 0j, 0j, complex(S)])
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "renormalizing" in err


def _compensated_sum(terms):
    """sum() of floats from Python 3.12 on: Neumaier's compensated summation."""
    total, c = 0.0, 0.0
    for x in terms:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c else total


def _other_norm_sqs(values):
    """|v|^2 by the rules the one rule replaced, each added in its own order."""
    parts = [z.real for z in values] + [z.imag for z in values]
    per_amplitude = [z.real * z.real + z.imag * z.imag for z in values]
    return {
        "compensated sum()": _compensated_sum(x * x for x in parts),
        "compensated sum() per amplitude": _compensated_sum(per_amplitude),
        "per amplitude": functools.reduce(operator.add, per_amplitude),
        "abs(z) ** 2": functools.reduce(operator.add, (abs(z) ** 2 for z in values)),
    }


def test_load_state_norm_adds_left_to_right(tmp_path):
    """A renormalized file is divided part by part by the root of the squares of
    its real parts, then of its imaginary parts, added left to right.

    For these amplitudes each other rule gives another norm, so it would
    give another loaded state.
    """
    a, b, c, d = values = [
        0.6892597144557875 + 0.06966016123299716j,
        -0.07670346880631662 - 0.2659130537814524j,
        0.23183552531333976 + 0.019350256600067683j,
        -0.43639554119443347 - 0.44599565252459217j,
    ]
    norm = math.sqrt(
        a.real * a.real + b.real * b.real + c.real * c.real + d.real * d.real
        + a.imag * a.imag + b.imag * b.imag + c.imag * c.imag + d.imag * d.imag
    )
    assert norm == 1.000000000003
    for rule, norm_sq in _other_norm_sqs(values).items():
        assert math.sqrt(norm_sq) != norm, rule
    assert qgeo.cli._SILENT_NORM_TOL < norm - 1.0 < qgeo.cli.FILE_NORM_TOL
    psi = load_state(write_state(tmp_path / "near.json", values))
    assert [psi.alpha, psi.beta, psi.gamma, psi.delta] == [
        complex(z.real / norm, z.imag / norm) for z in values
    ]


def test_load_state_keeps_a_negative_zero_real_part(tmp_path):
    # z / norm divides by complex(norm, 0.0), which before Python 3.14 adds
    # 0.0 * z.imag to the real part and so turns -0.0 into 0.0.
    psi = load_state(write_state(tmp_path / "near.json", [complex(-0.0, 0.6), 0j, 0j, 0.8 + 1e-9]))
    assert math.copysign(1.0, psi.alpha.real) == -1.0


def test_load_transform_norm_is_the_su2_element_rule(tmp_path):
    """A transform file is measured as SU2Element measures (a, b), and divided
    part by part by the root of that squared norm.

    For this pair each other rule gives another squared norm and another root.
    """
    a = 0.35428649273551643 + 0.8533612525481027j
    b = 0.3655762364980943 - 0.11229280930936565j
    norm_sq = a.real * a.real + b.real * b.real + a.imag * a.imag + b.imag * b.imag
    assert norm_sq == 1.0000000059999998
    for rule, other in _other_norm_sqs([a, b]).items():
        assert math.sqrt(other) != math.sqrt(norm_sq), rule
    with pytest.raises(ValueError, match=re.escape(f"must be 1, got {norm_sq!r}")):
        SU2Element(a, b)
    assert qgeo.cli._SILENT_NORM_TOL < norm_sq - 1.0 < qgeo.cli.FILE_NORM_TOL
    u = load_transform(write_transform(tmp_path / "near.json", "su2xso2", 0.3, a, b))
    n = math.sqrt(norm_sq)
    assert (u.su2.a, u.su2.b) == (complex(a.real / n, a.imag / n), complex(b.real / n, b.imag / n))

    # Beyond FILE_NORM_TOL, the file's error names the value SU2Element's does.
    far = write_transform(tmp_path / "far.json", "su2xso2", 0.3, 1.001 * a, b)
    with pytest.raises(ValueError) as su2_error:
        SU2Element(1.001 * a, b)
    with pytest.raises(qgeo.cli.CliError) as file_error:
        load_transform(far)
    assert file_error.value.code == qgeo.cli.EXIT_USAGE
    assert f"= {str(su2_error.value).split('got ')[1]} is not within" in str(file_error.value)


def test_transform_identity(capsys, tmp_path, bell_state):
    tr = write_transform(tmp_path / "id.json", "so2xsu2", 0.0, 1 + 0j, 0j)
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "transform", bell_state, tr, str(out_path))
    assert code == 0
    written = json.loads(out_path.read_text())
    np.testing.assert_allclose(
        written["amplitudes"], [[S, 0], [0, 0], [0, 0], [S, 0]], atol=1e-15
    )
    doc = json.loads(out)
    assert doc["before"] == doc["after"]


def test_transform_preserves_concurrence_magnitude(capsys, tmp_path, bell_state):
    rng = np.random.default_rng(5)
    for variant in ("so2xsu2", "su2xso2"):
        g = rng.standard_normal(4)
        n = math.sqrt(float(g @ g))
        tr = write_transform(
            tmp_path / "t.json",
            variant,
            float(rng.uniform(0, 2 * math.pi)),
            complex(g[0], g[1]) / n,
            complex(g[2], g[3]) / n,
        )
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "transform", bell_state, tr, str(out_path))
        assert code == 0
        doc = json.loads(out)
        before = complex(*doc["before"]["concurrence_term"])
        after = complex(*doc["after"]["concurrence_term"])
        assert abs(abs(before) - abs(after)) <= 1e-12


def test_transform_theta_zero_fixes_schmidt_term(capsys, tmp_path):
    state = write_state(
        tmp_path / "s.json", list(np.array([0.5, 0.5j, 0.5, -0.5j], dtype=complex))
    )
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 0.0, complex(0.6, 0.48), complex(0.64, 0))
    code, out, _ = run_cli(capsys, "transform", state, tr, str(tmp_path / "o.json"))
    assert code == 0
    doc = json.loads(out)
    before = complex(*doc["before"]["schmidt_term"])
    after = complex(*doc["after"]["schmidt_term"])
    assert abs(before - after) <= 1e-12


def test_transform_output_feeds_analyze(capsys, tmp_path, bell_state):
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 0.8, complex(0.8, 0.6) / 1.0, 0j)
    out_path = tmp_path / "out.json"
    assert run_cli(capsys, "transform", bell_state, tr, str(out_path))[0] == 0
    assert run_cli(capsys, "analyze", str(out_path))[0] == 0


def test_analyze_after_transform_matches_closed_forms(capsys, tmp_path):
    # The transformed state's Schmidt/concurrence data must equal the closed
    # forms predicted from the input's analysis and the rotation angle alone.
    state = write_state(
        tmp_path / "s.json",
        [complex(0.1, 0.3), complex(0.5), complex(0.0, -0.5), complex(math.sqrt(0.4))],
    )
    theta = 1.1
    tr = write_transform(tmp_path / "t.json", "so2xsu2", theta, complex(0.48, 0.6), complex(0.0, 0.64))
    out_path = tmp_path / "out.json"

    _, before_out, _ = run_cli(capsys, "analyze", str(state))
    before = json.loads(before_out)
    assert run_cli(capsys, "transform", str(state), tr, str(out_path))[0] == 0
    _, after_out, _ = run_cli(capsys, "analyze", str(out_path))
    after = json.loads(after_out)

    s_in = complex(*before["schmidt_term"])
    c_in = complex(*before["concurrence_term"])
    n1, n2 = before["q1_norm_sq"], before["q2_norm_sq"]
    c, s = math.cos(theta), math.sin(theta)
    predicted_s = c * c * s_in - s * s * s_in.conjugate() + s * c * (n2 - n1)
    predicted_n2 = n2 * c * c + n1 * s * s - 2 * s * c * s_in.real

    assert abs(complex(*after["schmidt_term"]) - predicted_s) <= 1e-12
    assert abs(complex(*after["concurrence_term"]) - c_in) <= 1e-12
    assert abs(after["q2_norm_sq"] - predicted_n2) <= 1e-12


def test_verify_small_run_passes_and_is_deterministic(capsys, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code1, out1, _ = run_cli(
        capsys, "verify", "--trials", "25", "--seed", "7", "--report", str(r1)
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "--trials", "25", "--seed", "7", "--report", str(r2)
    )
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["overall_pass"] is True
    assert doc["seed"] == 7 and doc["trials"] == 25


# SHA-256 of `qgeo verify` report bytes, pinned across refactors (the
# default run's is test_acceptance's DEFAULT_REPORT_SHA256).  The values
# depend on numpy's Philox streams and on libm's cos and sin of the rotation
# angles theta only; the Haar inputs are sorted (exactly) and use only sqrt
# and a cos/sin kernel of correctly rounded float64 operations, no libm or
# numpy transcendental.
REPORT_SHA256 = {
    ("513", "0"): "59c111f36caa91ab87f3719a5547b4b1a2bd703cd65e1e3d042fa0943ce7e1eb",
    ("1", "7"): "bfdefc9207ccbce99fa678a7cce8d93cdd257580c17c517157862b7ce4b31cda",
    ("10000", "42"): "50c905ef36645397b40269dc3b2962da831af25d8a7dc0b39bab3b3919f5efc0",
}

# CPU counts a verify run is dealt over: one process, two (the benchmark
# machine's count), three, and five, more than a row of 4097 trials has blocks.
CPU_COUNTS = (1, 2, 3, 5)


@pytest.mark.parametrize(
    "trials, seed, digest",
    [pytest.param(t, s, d, id=f"{t}-{s}") for (t, s), d in REPORT_SHA256.items()],
)
def test_verify_report_bytes_are_pinned(capsys, monkeypatch, tmp_path, trials, seed, digest):
    report = tmp_path / "r.json"
    for cpus in CPU_COUNTS:
        # The (row, block) units are dealt over this many processes.
        monkeypatch.setattr(batch, "_available_cpus", lambda: cpus)
        code, out, _ = run_cli(
            capsys, "verify", "--trials", trials, "--seed", seed, "--report", str(report)
        )
        assert code == 0
        assert out == report.read_text()
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, cpus
        _assert_no_child_left()


@pytest.mark.parametrize("trials", [batch.BLOCK + 1, 2 * batch.BLOCK + 1])
def test_verify_report_bytes_do_not_depend_on_the_cpu_count(capsys, monkeypatch, tmp_path, trials):
    # 2049 trials end in a block of one trial; 4097 make 27 units.
    reports = []
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(batch, "_available_cpus", lambda: cpus)
        report = tmp_path / f"r{cpus}.json"
        code, _, _ = run_cli(capsys, "verify", "--trials", str(trials), "--seed", "11", "--report", str(report))
        assert code == 0
        reports.append(report.read_bytes())
        _assert_no_child_left()
    assert reports == [reports[0]] * len(CPU_COUNTS)


def test_verify_in_a_fresh_process_matches_one_process(capsys, monkeypatch, tmp_path):
    # The workers are forked from an interpreter that pytest has not set up.
    args = ["verify", "--trials", str(2 * batch.BLOCK + 1), "--seed", "11", "--report"]
    monkeypatch.setattr(batch, "_available_cpus", lambda: 1)
    one = tmp_path / "one.json"
    assert run_cli(capsys, *args, str(one))[0] == 0

    forked = tmp_path / "forked.json"
    subprocess.run(
        [sys.executable, "-W", "error", "-m", "qgeo", *args, str(forked)],
        env=child_env(),
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert forked.read_bytes() == one.read_bytes()


def test_verify_report_bytes_do_not_depend_on_the_block_size(capsys, tmp_path, monkeypatch):
    # The block size is not a report parameter: the 513-trial run crosses a
    # block boundary at 64 and 512, and is one block at the production size.
    reports = []
    for block in (64, 512, batch.BLOCK):
        monkeypatch.setattr(batch, "BLOCK", block)
        report = tmp_path / f"r{block}.json"
        code, _, _ = run_cli(capsys, "verify", "--trials", "513", "--seed", "0", "--report", str(report))
        assert code == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert hashlib.sha256(reports[0]).hexdigest() == REPORT_SHA256["513", "0"]


def test_verify_impossible_tolerance_fails_but_writes_report(capsys, tmp_path):
    report = tmp_path / "r.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--trials",
        "10",
        "--seed",
        "1",
        "--tol",
        "1e-30",
        "--report",
        str(report),
    )
    assert code == 1
    doc = json.loads(report.read_text())
    assert doc["overall_pass"] is False


def test_verify_unwritable_report_path(capsys, monkeypatch, tmp_path):
    def no_trials(*args):
        raise AssertionError("trials evaluated before the report was opened")

    monkeypatch.setattr(qgeo.cli, "run_suite", no_trials)
    report = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--trials", "100000", "--report", str(report))
    assert code == 2
    assert "cannot write" in err
    assert "Traceback" not in err
    assert out == ""
    assert not report.parent.exists()


def test_verify_that_fails_leaves_an_old_report_as_it_was(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_text('{"old": true}\n')
    code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--report", str(report))
    assert code == 3 and out == "" and err.startswith("error: ")
    assert report.read_text() == '{"old": true}\n'
    code, out, _ = run_cli(capsys, "verify", "--trials", "3", "--report", str(report))
    assert code == 0 and report.read_text() == out


def test_verify_worker_error_is_raised_as_itself(capsys, monkeypatch, tmp_path):
    # --seed -1 fails alike in every process (numpy's ValueError), and a
    # ValueError raised in a worker alone is raised here as itself: either
    # way the run exits 3 with the message and keeps an old report.
    parent, sample = os.getpid(), diagrams._sample_trials

    def fails_in_a_worker(*args):
        if os.getpid() != parent:
            raise ValueError("a worker's own error")
        return sample(*args)

    report = tmp_path / "report.json"
    report.write_text('{"old": true}\n')
    for cpus in (1, 3):
        monkeypatch.setattr(batch, "_available_cpus", lambda: cpus)
        code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--report", str(report))
        assert code == 3 and out == "" and err.startswith("error: "), cpus
        assert report.read_text() == '{"old": true}\n'
        _assert_no_child_left()

    monkeypatch.setattr(diagrams, "_sample_trials", fails_in_a_worker)
    with pytest.raises(ValueError) as got:
        diagrams.run_suite(3, 0)
    assert type(got.value) is ValueError and str(got.value) == "a worker's own error"
    code, out, err = run_cli(capsys, "verify", "--trials", "3", "--report", str(report))
    assert (code, out, err) == (3, "", "error: a worker's own error\n")
    assert report.read_text() == '{"old": true}\n'
    _assert_no_child_left()


@pytest.mark.parametrize("death", ["signal", "unpicklable"])
def test_verify_worker_that_ends_without_a_result_names_the_cause(capsys, monkeypatch, death):
    parent, sample = os.getpid(), diagrams._sample_trials

    def dies_in_a_worker(*args):
        if os.getpid() != parent:
            if death == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise qgeo.cli.CliError(2, "an error that pickles but does not unpickle")
        return sample(*args)

    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    monkeypatch.setattr(diagrams, "_sample_trials", dies_in_a_worker)
    if death == "signal":
        cause = f"{signal.strsignal(signal.SIGKILL)} (a verify worker exited with status -9)"
    else:
        cause = "an error that pickles but does not unpickle (a verify worker exited with status 1)"
    with pytest.raises(ChildProcessError) as got:
        diagrams.run_suite(3, 0)
    assert str(got.value) == cause
    _assert_no_child_left()
    assert run_cli(capsys, "verify", "--trials", "3") == (2, "", f"error: {cause}\n")
    _assert_no_child_left()


def test_verify_evaluates_each_unit_once_across_the_processes(capsys, monkeypatch, tmp_path):
    # The (row, block) units are dealt round-robin to 3 processes; the record
    # of who evaluated what goes to a file that every process appends to.
    log, evaluate_unit = tmp_path / "units.txt", diagrams._evaluate_unit

    def logged(group, seed, start, stop):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {group.idx} {start} {stop}\n")
        return evaluate_unit(group, seed, start, stop)

    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    monkeypatch.setattr(diagrams, "_evaluate_unit", logged)
    trials = 4 * batch.BLOCK + 1
    assert run_cli(capsys, "verify", "--trials", str(trials))[0] == 0
    _assert_no_child_left()
    taken = sorted(tuple(map(int, line.split()[1:])) for line in log.read_text().splitlines())
    expected = sorted(
        (group.idx, start, min(start + batch.BLOCK, n))
        for group in diagrams._GROUPS
        for n in [trials if group.section == "checks" else 100]
        for start in range(0, n, batch.BLOCK)
    )
    assert taken == expected


@pytest.mark.parametrize(
    "failure", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()], ids=repr
)
def test_verify_failure_in_the_parent_kills_the_workers(capsys, monkeypatch, failure):
    # The workers would outlive the test by a minute unless they are killed.
    parent = os.getpid()

    def fails_in_the_parent(*args):
        if os.getpid() == parent:
            raise failure
        time.sleep(60)

    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    monkeypatch.setattr(diagrams, "_sample_trials", fails_in_the_parent)
    t0 = time.monotonic()
    if isinstance(failure, OSError):
        assert run_cli(capsys, "verify", "--trials", "3") == (2, "", "error: No space left on device\n")
    else:
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--trials", "3"])
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_orbit_bell_is_fixed_point(capsys, tmp_path, bell_state):
    tr = write_transform(tmp_path / "t.json", "so2xsu2", math.pi / 4, 1 + 0j, 0j)
    out = tmp_path / "orbit.csv"
    code, _, _ = run_cli(
        capsys, "orbit", bell_state, tr, "--steps", "8", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,u0,u1,u2,u3,u4"
    assert len(lines) == 10
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")[1:]]
        np.testing.assert_allclose(vals, [0, 0, -1, 0, 0], atol=1e-12)


def test_orbit_returns_to_start_after_full_turn(capsys, tmp_path):
    state = write_state(
        tmp_path / "s.json", list(np.array([0.1, 0.7, 0.3, math.sqrt(0.41)]) + 0j)
    )
    k = 12
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 2 * math.pi / k, 1 + 0j, 0j)
    out = tmp_path / "orbit.csv"
    code, _, _ = run_cli(capsys, "orbit", str(state), tr, "--steps", str(k), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    first = [float(v) for v in lines[1].split(",")[1:]]
    last = [float(v) for v in lines[-1].split(",")[1:]]
    np.testing.assert_allclose(first, last, atol=1e-9)
    middle = [float(v) for v in lines[2].split(",")[1:]]
    assert np.linalg.norm(np.array(first) - np.array(middle)) > 1e-3


def test_orbit_zero_steps_single_row(capsys, tmp_path, bell_state):
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 0.3, 1 + 0j, 0j)
    out = tmp_path / "orbit.csv"
    code, _, _ = run_cli(capsys, "orbit", bell_state, tr, "--steps", "0", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_orbit_rejects_su2xso2(capsys, tmp_path, bell_state):
    tr = write_transform(tmp_path / "t.json", "su2xso2", 0.3, 1 + 0j, 0j)
    code, _, err = run_cli(
        capsys, "orbit", bell_state, tr, "--steps", "3", "--out", str(tmp_path / "o.csv")
    )
    assert code == 2
    assert "so2xsu2" in err
    assert "covers the canonical Moebius map of so2xsu2 only" in err
    assert "no Moebius map intertwines" not in err


def test_orbit_unwritable_out_fails_before_computing(capsys, monkeypatch, tmp_path, bell_state):
    def no_steps(*args):
        raise AssertionError("orbit steps computed before the output was opened")

    monkeypatch.setattr(qgeo.cli, "_orbit_plane", no_steps)
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 0.3, 1 + 0j, 0j)
    out = tmp_path / "missing" / "orbit.csv"
    code, _, err = run_cli(capsys, "orbit", bell_state, tr, "--steps", "100000", "--out", str(out))
    assert code == 2
    assert "cannot write" in err
    assert "Traceback" not in err
    assert not out.parent.exists()


def _orbit_inputs(tmp_path):
    rng = np.random.default_rng(17)
    g = rng.standard_normal(8)
    amps = (g[:4] + 1j * g[4:]) / np.linalg.norm(g)
    h = rng.standard_normal(4)
    h /= np.linalg.norm(h)
    state = write_state(tmp_path / "s.json", list(amps))
    tr = write_transform(tmp_path / "t.json", "so2xsu2", 2.0 * math.pi * rng.random(),
                         complex(h[0], h[1]), complex(h[2], h[3]))
    return state, tr


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pole_orbit_inputs(tmp_path):
    """|00>, whose image is the pole (0, 0, 0, 0, 1), turned by 2 pi / 3 a step.

    Its rows hold the values that batch.csv_rows leaves to repr in an orbit
    (0.0, 1.0, and about 1e-16 k in exponent form at every third step k)
    beside values it formats itself.
    """
    state = write_state(tmp_path / "s.json", [1 + 0j, 0j, 0j, 0j])
    return state, write_transform(tmp_path / "t.json", "so2xsu2", math.pi / 3, 1 + 0j, 0j)


@pytest.mark.parametrize(
    "steps, inputs",
    [
        pytest.param(steps, _orbit_inputs, id=str(steps))
        for steps in (
            0, ORBIT_CHUNK - 1, ORBIT_CHUNK, ORBIT_CHUNK + 1, 2 * ORBIT_CHUNK + 1,
            2 * ORBIT_CHUNK - 1, 2 * ORBIT_CHUNK, 3 * ORBIT_CHUNK + 5, 4 * ORBIT_CHUNK + 1,
            10_000,  # 9 999 -> 10 000 inside the last block, at 3 CPUs that block's own worker
        )
    ]
    + [pytest.param(2 * ORBIT_CHUNK + 7, _pole_orbit_inputs, id="pole")],
)
def test_orbit_csv_bytes_match_csv_writer(capsys, monkeypatch, tmp_path, steps, inputs):
    state, tr = inputs(tmp_path)
    point = conformal_map(quaternionify(load_state(state)))
    rows = orbit_s4(load_transform(tr), point, 0, steps + 1)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["step", "u0", "u1", "u2", "u3", "u4"])
    writer.writerows([k] + row.tolist() for k, row in enumerate(rows))

    out = tmp_path / "orbit.csv"
    for cpus in (1, 2, 3):
        # The rows are split over this many processes, in whole blocks.
        monkeypatch.setattr(batch, "_available_cpus", lambda: cpus)
        code, _, _ = run_cli(capsys, "orbit", state, tr, "--steps", str(steps), "--out", str(out))
        assert code == 0
        data = out.read_bytes()
        assert data == expected.getvalue().encode("utf-8"), cpus
        _assert_no_child_left()

    lines = data.decode("utf-8").split("\r\n")
    assert lines[-1] == ""
    assert [int(line.split(",")[0]) for line in lines[1:-1]] == list(range(steps + 1))
    np.testing.assert_array_equal(rows[0], inverse_stereographic(point))
    if inputs is _pole_orbit_inputs:
        u0 = {line.split(",")[1] for line in lines[1:-1]}
        u4 = {line.split(",")[5] for line in lines[1:-1]}
        assert {"0.0", "1.0"} <= u0 | u4 and any("e-" in v for v in u0) and len(u0) > steps / 2


@pytest.mark.parametrize("k0", [99_990, 10**7 - 5, 10**8 - 10, 10**17 - 3, 2**63 - 3])
def test_orbit_block_writer_matches_csv_writer_at_any_step(tmp_path, k0):
    # Step numbers are str(k) for every int k: across 99 999 -> 100 000,
    # 9 999 999 -> 10 000 000 and 99 999 999 -> 100 000 000 inside one
    # block, and across 10**17 and 2**63.
    state, tr = _orbit_inputs(tmp_path)
    u, point = load_transform(tr), conformal_map(quaternionify(load_state(state)))
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([k0 + j] + row.tolist() for j, row in enumerate(orbit_s4(u, point, k0, 20)))
    out = io.BytesIO()
    qgeo.cli._write_orbit_blocks(out, u, point, k0, 20)
    assert out.getvalue() == expected.getvalue().encode("ascii")


def test_orbit_worker_failure_is_a_write_error(capsys, monkeypatch, tmp_path):
    # The worker's own error text reaches the message, as the parent's does.
    parent, write_blocks = os.getpid(), qgeo.cli._write_orbit_blocks
    failures = {
        "worker failed": RuntimeError("worker failed"),
        "No space left on device": OSError(errno.ENOSPC, "No space left on device"),
        "KeyboardInterrupt()": KeyboardInterrupt(),
    }
    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    state, tr = _orbit_inputs(tmp_path)
    out = tmp_path / "orbit.csv"
    for cause, failure in failures.items():

        def fails_in_a_worker(*args):
            if os.getpid() != parent:
                raise failure
            write_blocks(*args)

        monkeypatch.setattr(qgeo.cli, "_write_orbit_blocks", fails_in_a_worker)
        code, _, err = run_cli(capsys, "orbit", state, tr, "--steps", str(3 * ORBIT_CHUNK), "--out", str(out))
        assert code == 2
        assert f"{out}: cannot write: {cause} (an orbit worker exited with status 1)" in err, err
        assert "Traceback" not in err
        _assert_no_child_left()


def test_orbit_writes_to_a_pipe(capsys, monkeypatch, tmp_path):
    # Every process writes its blocks in turn into the one pipe /dev/fd/N.
    state, tr = _orbit_inputs(tmp_path)
    steps = str(3 * ORBIT_CHUNK + 5)
    monkeypatch.setattr(batch, "_available_cpus", lambda: 1)
    one = tmp_path / "one.csv"
    assert run_cli(capsys, "orbit", state, tr, "--steps", steps, "--out", str(one))[0] == 0

    for cpus in (2, 3):
        monkeypatch.setattr(batch, "_available_cpus", lambda: cpus)
        piped = tmp_path / f"piped{cpus}.csv"
        read_end, write_end = os.pipe()
        copy = "import shutil, sys; shutil.copyfileobj(sys.stdin.buffer, open(sys.argv[1], 'wb'))"
        with open(read_end, "rb") as reader:
            drain = subprocess.Popen([sys.executable, "-c", copy, str(piped)], stdin=reader)
        try:
            code, _, err = run_cli(capsys, "orbit", state, tr, "--steps", steps, "--out", f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
            drain.wait(timeout=60)
        assert (code, err) == (0, ""), cpus
        _assert_no_child_left()
        assert drain.returncode == 0
        assert piped.read_bytes() == one.read_bytes(), cpus


def _temporary_dir_unusable(monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", "/nonexistent-dir")


def _temporary_file_fails(monkeypatch):
    def fails(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", fails)


@pytest.mark.parametrize("break_temporary_files", [_temporary_dir_unusable, _temporary_file_fails])
def test_orbit_needs_no_temporary_file(capsys, monkeypatch, tmp_path, break_temporary_files):
    state, tr = _orbit_inputs(tmp_path)
    steps = str(3 * ORBIT_CHUNK + 5)
    monkeypatch.setattr(batch, "_available_cpus", lambda: 1)
    one = tmp_path / "one.csv"
    assert run_cli(capsys, "orbit", state, tr, "--steps", steps, "--out", str(one))[0] == 0

    break_temporary_files(monkeypatch)
    for cpus in (2, 3):
        monkeypatch.setattr(batch, "_available_cpus", lambda: cpus)
        out = tmp_path / f"orbit{cpus}.csv"
        assert run_cli(capsys, "orbit", state, tr, "--steps", steps, "--out", str(out)) == (0, "", ""), cpus
        _assert_no_child_left()
        assert out.read_bytes() == one.read_bytes(), cpus


# At 3 CPUs the 9 blocks of an orbit go to this process (blocks 0, 3, 6) and
# two workers (1, 4, 7 and 2, 5, 8).  A failure at a process's second block
# comes while the others have made their next block and wait for their turn.
_RING_FAILURES = {
    "a worker killed": (4, "sigkill", f"{signal.strsignal(signal.SIGKILL)} (an orbit worker exited with status -9)"),
    "a worker raises": (5, RuntimeError("failed in turn"), "failed in turn (an orbit worker exited with status 1)"),
    "this process fails": (3, OSError(errno.ENOSPC, "No space left on device"), "No space left on device"),
    "this process is interrupted": (3, KeyboardInterrupt(), None),
}


@pytest.mark.parametrize("case", list(_RING_FAILURES))
def test_orbit_failure_in_the_ring_names_its_cause(capsys, monkeypatch, tmp_path, case):
    block, failure, cause = _RING_FAILURES[case]
    csv_rows = batch.csv_rows

    def fails_at_block(k0, fields):
        if k0 == block * ORBIT_CHUNK:
            if failure == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise failure
        return csv_rows(k0, fields)

    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    monkeypatch.setattr(batch, "csv_rows", fails_at_block)
    state, tr = _orbit_inputs(tmp_path)
    out = tmp_path / "orbit.csv"
    argv = ["orbit", state, tr, "--steps", str(9 * ORBIT_CHUNK - 1), "--out", str(out)]
    t0 = time.monotonic()
    if cause is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert run_cli(capsys, *argv) == (2, "", f"error: {out}: cannot write: {cause}\n")
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


@pytest.mark.parametrize(
    "failure", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()], ids=repr
)
def test_orbit_failure_in_the_parent_kills_the_workers(capsys, monkeypatch, tmp_path, failure):
    # The workers would outlive the test by a minute unless they are killed.
    parent = os.getpid()

    def fails_in_the_parent(*args):
        if os.getpid() == parent:
            raise failure
        time.sleep(60)

    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    monkeypatch.setattr(qgeo.cli, "_write_orbit_blocks", fails_in_the_parent)
    state, tr = _orbit_inputs(tmp_path)
    out = tmp_path / "orbit.csv"
    t0 = time.monotonic()
    if isinstance(failure, OSError):
        code, _, err = run_cli(capsys, "orbit", state, tr, "--steps", str(3 * ORBIT_CHUNK), "--out", str(out))
        assert code == 2 and "cannot write: No space left on device" in err
    else:
        with pytest.raises(KeyboardInterrupt):
            main(["orbit", state, tr, "--steps", str(3 * ORBIT_CHUNK), "--out", str(out)])
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_orbit_in_a_fresh_process_matches_one_process(capsys, monkeypatch, tmp_path):
    # The workers are forked from an interpreter that pytest has not set up.
    state, tr = _orbit_inputs(tmp_path)
    steps = str(3 * ORBIT_CHUNK)
    monkeypatch.setattr(batch, "_available_cpus", lambda: 1)
    one = tmp_path / "one.csv"
    assert run_cli(capsys, "orbit", state, tr, "--steps", steps, "--out", str(one))[0] == 0

    forked = tmp_path / "forked.csv"
    subprocess.run(
        [sys.executable, "-W", "error", "-m", "qgeo", "orbit", state, tr, "--steps", steps, "--out", str(forked)],
        env=child_env(),
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert forked.read_bytes() == one.read_bytes()


def test_orbit_long_run_has_no_drift(capsys, tmp_path):
    steps = 100_000
    state, tr = _orbit_inputs(tmp_path)
    out = tmp_path / "orbit.csv"
    code, _, _ = run_cli(capsys, "orbit", state, tr, "--steps", str(steps), "--out", str(out))
    assert code == 0
    last = np.array([float(v) for v in out.read_text().splitlines()[-1].split(",")[1:]])

    # Reference: the single map for rotation steps*theta, its angle reduced
    # modulo 2*pi in 50-digit decimal arithmetic.
    u = load_transform(tr)
    with localcontext() as ctx:
        ctx.prec = 60
        two_pi = 2 * Decimal("3.14159265358979323846264338327950288419716939937510")
        x = Decimal(u.rot.theta) * steps
        theta_n = float(x - two_pi * (x / two_pi).to_integral_value(rounding="ROUND_FLOOR"))
    u_n = LocalUnitary(u.variant, SO2Element(theta_n), u.su2)
    point = conformal_map(quaternionify(load_state(state)))
    reference = inverse_stereographic(apply_moebius_q(moebius_from_local_unitary(u_n), point))
    assert np.linalg.norm(last - reference) <= 1e-14


def test_sample_writes_deterministic_valid_states(capsys, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(capsys, "sample", "--count", "3", "--seed", "9", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "sample", "--count", "3", "--seed", "9", "--out", str(out2))[0] == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["state_0000.json", "state_0001.json", "state_0002.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        code, out, _ = run_cli(capsys, "analyze", str(out1 / name))
        assert code == 0


def test_sample_with_a_rejected_seed_makes_no_directory(capsys, tmp_path):
    out_dir = tmp_path / "samples"
    code, out, err = run_cli(capsys, "sample", "--count", "3", "--seed", "-1", "--out", str(out_dir))
    assert code == 3 and out == "" and err.startswith("error: ")
    assert not out_dir.exists()


# SHA-256 over the files `qgeo sample --count 10 --seed 0` writes, each as its
# name, a NUL byte and its contents, in name order.  File k is trial k of the
# counter-based stream (0, 0), the one sampler `qgeo verify` also reads.
SAMPLE_SHA256 = "17ea870a9fdf368b456a2f64eebaf623632756988ef2f01e1ffad37c52ca626c"


def _files_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_sample_files_are_pinned(capsys, tmp_path):
    assert run_cli(capsys, "sample", "--count", "10", "--seed", "0", "--out", str(tmp_path))[0] == 0
    assert _files_digest(tmp_path) == SAMPLE_SHA256


def test_sample_file_k_is_trial_k_of_the_seeds_stream(capsys, tmp_path, monkeypatch):
    # Blocks of 4 files, so that the 10 files cross two block boundaries.
    monkeypatch.setattr(batch, "BLOCK", 4)
    assert run_cli(capsys, "sample", "--count", "10", "--seed", "9", "--out", str(tmp_path / "a"))[0] == 0
    for k in range(10):
        doc = json.loads((tmp_path / "a" / f"state_{k:04d}.json").read_text())
        assert doc == qgeo.cli.state_to_doc(haar_random_state(9, 0, k)), k
    assert run_cli(capsys, "sample", "--count", "10", "--seed", "0", "--out", str(tmp_path / "b"))[0] == 0
    assert _files_digest(tmp_path / "b") == SAMPLE_SHA256


# SHA-256 of the reprs of `TwoQubitState.from_vector(v, renormalize=True)`
# for 2 000 complex Gaussian vectors v, the way perfbench's `api` items are built.
FROM_VECTOR_SHA256 = "4cb87f73ac893110e195bbcba590be6afcabc45ddcb861994ebb5507dd6aa427"
_FROM_VECTOR_DIGEST = """
import hashlib, numpy as np
from qgeo import TwoQubitState
g = np.random.default_rng(0).standard_normal((2000, 8))
states = [TwoQubitState.from_vector(r[:4] + 1j * r[4:], renormalize=True) for r in g]
print(hashlib.sha256(repr(states).encode()).hexdigest())
"""


# Every SIMD target numpy dispatches to on this machine beyond its baseline
# (X86_V3, X86_V4, ... on x86-64).  The names depend on numpy's version and
# numpy rejects unknown ones, so they are read from numpy itself.
_SIMD_TARGETS = " ".join(__cpu_dispatch__)


@pytest.mark.parametrize(
    "setting",
    [
        pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="Haswell"),
        pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="Prescott"),
        pytest.param({"NPY_DISABLE_CPU_FEATURES": _SIMD_TARGETS}, id="baseline-simd"),
    ],
)
def test_pinned_bytes_do_not_depend_on_the_blas_kernel(tmp_path, setting):
    # OPENBLAS_CORETYPE makes numpy's OpenBLAS run the kernels of another
    # CPU (AVX2, or SSE3 only), which round dot and matrix products
    # otherwise.  NPY_DISABLE_CPU_FEATURES makes numpy's ufuncs run their
    # baseline loops, whose cos and sin round otherwise on some inputs, and
    # its min and max loops, which are exact in every one.  The verify
    # report and the sample files read one sampler (qgeo.sampling), and it
    # and renormalized state vectors use none of the rounding ones: the
    # ufuncs on their path are sqrt and the + - * rint of the cos/sin
    # kernel, each correctly rounded, and min, max and selections, exact.
    env = child_env(**setting)

    def python(*args):
        return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                              capture_output=True, check=True, text=True).stdout

    def qgeo_cli(*args):
        python("-m", "qgeo.cli", *args)

    report, samples = tmp_path / "r.json", tmp_path / "samples"
    qgeo_cli("verify", "--trials", "513", "--seed", "0", "--report", str(report))
    qgeo_cli("sample", "--count", "10", "--seed", "0", "--out", str(samples))
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256["513", "0"]
    assert _files_digest(samples) == SAMPLE_SHA256
    assert python("-c", _FROM_VECTOR_DIGEST).strip() == FROM_VECTOR_SHA256


def test_importing_the_cli_loads_no_scipy():
    # Importing scipy.special alone costs about twice the CLI's start-up time.
    code = "import sys, qgeo.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert proc.stdout == "[]\n"


def test_transform_file_validation(capsys, tmp_path, bell_state):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"variant": "bogus", "theta": 0, "a": [1, 0], "b": [0, 0]}))
    assert run_cli(capsys, "transform", bell_state, str(path), str(tmp_path / "o.json"))[0] == 2

    path.write_text(json.dumps({"variant": "so2xsu2", "theta": 0, "a": [5, 0], "b": [0, 0]}))
    assert run_cli(capsys, "transform", bell_state, str(path), str(tmp_path / "o.json"))[0] == 2

    path.write_text(json.dumps({"variant": "so2xsu2", "a": [1, 0], "b": [0, 0]}))
    assert run_cli(capsys, "transform", bell_state, str(path), str(tmp_path / "o.json"))[0] == 2

    huge = int("9" * 400)
    for doc, message in (
        ({"variant": "so2xsu2", "theta": huge, "a": [1, 0], "b": [0, 0]}, "theta must be a finite"),
        ({"variant": "so2xsu2", "theta": 0, "a": [huge, 0], "b": [0, 0]}, "a must be finite"),
    ):
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "transform", bell_state, str(path), str(tmp_path / "o.json"))
        assert code == 2 and message in err
