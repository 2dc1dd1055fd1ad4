"""CLI end-to-end: subcommands, file formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import qgeo.cli
from qgeo.cli import load_state, load_transform, main
from qgeo.conformal import conformal_map, inverse_stereographic, schmidt_concurrence_form
from qgeo.local_unitary import LocalUnitary, SO2Element
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


def test_analyze_zero_vector_is_domain_error(capsys, tmp_path):
    path = write_state(tmp_path / "null.json", [0j, 0j, 0j, 0j])
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3


def test_analyze_renormalizes_with_warning(capsys, tmp_path):
    eps = 3e-7
    path = write_state(tmp_path / "near.json", [complex(S + eps), 0j, 0j, complex(S)])
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "renormalizing" in err


def test_load_state_norm_adds_left_to_right(tmp_path):
    """A renormalized file is divided by sqrt(((n0 + n1) + n2) + n3), n_k = |z_k|^2.

    For these amplitudes, Python 3.12's compensated sum() gives another norm
    (1.0000000000029998), so a sum() there would make the loaded state
    depend on the interpreter.
    """
    values = [
        0.17752652182351897 + 0.5953780629863595j,
        0.38886761923247015 - 0.2602514656664513j,
        -0.13767362916925963 + 0.20349128521947585j,
        -0.5766592800729953 - 0.046495041429969255j,
    ]
    n0, n1, n2, n3 = (z.real * z.real + z.imag * z.imag for z in values)
    norm = math.sqrt(((n0 + n1) + n2) + n3)
    assert norm == 1.000000000003
    assert qgeo.cli._SILENT_NORM_TOL < norm - 1.0 < qgeo.cli.FILE_NORM_TOL
    psi = load_state(write_state(tmp_path / "near.json", values))
    assert [psi.alpha, psi.beta, psi.gamma, psi.delta] == [z / norm for z in values]


def test_load_transform_norm_is_the_su2_element_rule(tmp_path):
    """A renormalized transform file is divided by sqrt(_abs2(a) + _abs2(b)), as SU2Element measures it.

    For this pair, abs(a) ** 2 + abs(b) ** 2 (libm hypot and pow) gives
    1.0000000061373848, so dividing by its root would give other bits.
    """
    a = -0.05647399313660132 - 0.3124426606501606j
    b = 0.8927412831139024 - 0.3196924763997169j
    norm_sq = (a.real * a.real + a.imag * a.imag) + (b.real * b.real + b.imag * b.imag)
    assert norm_sq == 1.0000000061373846
    assert qgeo.cli._SILENT_NORM_TOL < norm_sq - 1.0 < qgeo.cli.FILE_NORM_TOL
    u = load_transform(write_transform(tmp_path / "near.json", "su2xso2", 0.3, a, b))
    n = math.sqrt(norm_sq)
    assert (u.su2.a, u.su2.b) == (a / n, b / n)


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
# default run's is checked in test_acceptance).  The values hold for numpy's
# Philox streams and this platform's libm (numpy 2.4.6, CPython 3.11.7).
@pytest.mark.parametrize(
    "trials, seed, digest",
    [
        pytest.param(
            "513", "0", "c78f6ed9ed37f210b7af6cf29ba86644111d33de3d35ea171518783a6da01967", id="513-0"
        ),
        pytest.param(
            "1", "7", "5a62ab727a5500df9c15bf60ffb2cf6f5fd259452db7d1af9601665e1db93f57", id="1-7"
        ),
    ],
)
def test_verify_report_bytes_are_pinned(capsys, tmp_path, trials, seed, digest):
    report = tmp_path / "r.json"
    code, out, _ = run_cli(
        capsys, "verify", "--trials", trials, "--seed", seed, "--report", str(report)
    )
    assert code == 0
    assert out == report.read_text()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


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


def test_verify_unwritable_report_path(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--trials", "2", "--report", "/nonexistent/dir/report.json"
    )
    assert code == 2


def test_verify_env_tolerance_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("QGEO_TOL", "1e-30")
    code, _, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "2")
    assert code == 1
    monkeypatch.setenv("QGEO_TOL", "junk")
    code, _, err = run_cli(capsys, "verify", "--trials", "5")
    assert code == 2


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

    monkeypatch.setattr(qgeo.cli, "orbit_s4_chunks", no_steps)
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


@pytest.mark.parametrize(
    "steps", [0, ORBIT_CHUNK - 1, ORBIT_CHUNK, ORBIT_CHUNK + 1, 2 * ORBIT_CHUNK + 1]
)
def test_orbit_csv_bytes_match_csv_writer(capsys, tmp_path, steps):
    state, tr = _orbit_inputs(tmp_path)
    out = tmp_path / "orbit.csv"
    code, _, _ = run_cli(capsys, "orbit", state, tr, "--steps", str(steps), "--out", str(out))
    assert code == 0
    data = out.read_bytes()

    point = conformal_map(quaternionify(load_state(state)))
    rows = orbit_s4(load_transform(tr), point, 0, steps + 1)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["step", "u0", "u1", "u2", "u3", "u4"])
    writer.writerows([k] + row.tolist() for k, row in enumerate(rows))
    assert data == expected.getvalue().encode("utf-8")

    lines = data.decode("utf-8").split("\r\n")
    assert lines[-1] == ""
    assert [int(line.split(",")[0]) for line in lines[1:-1]] == list(range(steps + 1))
    np.testing.assert_array_equal(rows[0], inverse_stereographic(point))


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


# SHA-256 over the files `qgeo sample --count 10 --seed 0` writes, each as its
# name, a NUL byte and its contents, in name order.  `qgeo sample` and the
# public samplers behind it keep their `np.random.default_rng(seed)` draws;
# only the verification suite reads counter-based streams.
SAMPLE_SHA256 = "4312f55409ea7ac7a0ddeeb6f14f5dace4ed09629777dd9c686990352f1dc392"


def test_sample_files_are_pinned(capsys, tmp_path):
    assert run_cli(capsys, "sample", "--count", "10", "--seed", "0", "--out", str(tmp_path))[0] == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == SAMPLE_SHA256


def test_importing_the_cli_loads_no_scipy():
    # Importing scipy.special alone costs about twice the CLI's start-up time.
    src = str(Path(qgeo.cli.__file__).resolve().parent.parent)
    code = "import sys, qgeo.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
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
