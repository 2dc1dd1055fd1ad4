"""Local unitary actions, Sp(2) membership tests, and the complexification maps."""

import cmath
import math

import numpy as np
import pytest

from qgeo import batch
from qgeo.quaternion import J, ONE, Quaternion
from qgeo.states import (
    TwoQubitState,
    concurrence_term,
    haar_random_state,
    quaternionify,
    schmidt_term,
    state_matrix,
)
from qgeo.local_unitary import (
    J_METRIC,
    LocalUnitary,
    QuatMat2,
    SO2Element,
    SU2Element,
    Variant,
    apply_B_quaterbit,
    apply_cb,
    complex_form,
    complexify,
    is_quaternionic_complex_matrix,
    quat_matrix,
    random_local_unitary,
    random_su2,
    sp2_check_complex,
    sp2_check_quaternionic,
)

S = math.sqrt(0.5)
BELL = TwoQubitState(S, 0, 0, S)

EXPLICIT_J = np.array(
    [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def _b(theta, a, b):
    return LocalUnitary(Variant.SO2_X_SU2, SO2Element(theta), SU2Element(a, b))


def _bp(theta, a, b):
    return LocalUnitary(Variant.SU2_X_SO2, SO2Element(theta), SU2Element(a, b))


def _random_b(seed, variant=Variant.SO2_X_SU2):
    return random_local_unitary(variant, seed)


def test_su2_element_validates_normalization():
    with pytest.raises(ValueError):
        SU2Element(1.0, 1.0)
    u = SU2Element.normalized(1.0, 1.0)
    assert abs(abs(u.a) ** 2 + abs(u.b) ** 2 - 1.0) <= 1e-15


def test_cb_matrix_identity_and_rotation():
    np.testing.assert_allclose(complex_form(_b(0.0, 1, 0)), np.eye(4), atol=1e-15)
    m = complex_form(_b(math.pi / 2, 1, 0))
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
    )
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_cb_matrix_is_unitary():
    for seed in range(50):
        m = complex_form(_random_b(seed))
        np.testing.assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-12)


def test_apply_cb_identity_and_rotation():
    psi = haar_random_state(7)
    out = apply_cb(_b(0.0, 1, 0), psi)
    assert max(abs(out.amplitudes - psi.amplitudes)) <= 1e-15

    flipped = apply_cb(_b(math.pi / 2, 1, 0), TwoQubitState(1, 0, 0, 0))
    np.testing.assert_allclose(flipped.amplitudes, [0, 0, -1, 0], atol=1e-15)


def test_apply_cb_reproduces_componentwise_formulas():
    # Independent coding of the transformed amplitudes, written directly in
    # terms of (theta, a, b) and the input amplitudes.
    for seed in range(200):
        u = _random_b(seed)
        psi = haar_random_state(seed + 5000)
        c, s = math.cos(u.rot.theta), math.sin(u.rot.theta)
        a, b = u.su2.a, u.su2.b
        al, be, ga, de = psi.alpha, psi.beta, psi.gamma, psi.delta
        expect = np.array(
            [
                (a * al + b * be) * c + (a * ga + b * de) * s,
                (a.conjugate() * be - b.conjugate() * al) * c
                + (a.conjugate() * de - b.conjugate() * ga) * s,
                (a * ga + b * de) * c - (a * al + b * be) * s,
                (a.conjugate() * de - b.conjugate() * ga) * c
                - (a.conjugate() * be - b.conjugate() * al) * s,
            ]
        )
        assert max(abs(apply_cb(u, psi).amplitudes - expect)) <= 1e-14


def test_apply_cb_preserves_bell_concurrence():
    for seed in range(50):
        out = apply_cb(_random_b(seed), BELL)
        assert abs(abs(concurrence_term(out)) - 0.5) <= 1e-13


# The local pair A' (x) A acts on the amplitude matrix Psi (rows indexed by
# the first qubit) as the sandwich A' Psi A^T: an oracle for apply_cb that
# shares no code with it.


def test_apply_local_pair_identity_and_rotation():
    psi = haar_random_state(3)
    sandwich = (np.eye(2) @ state_matrix(psi) @ np.eye(2).T).reshape(4)
    assert max(abs(sandwich - psi.amplitudes)) <= 1e-15
    assert max(abs(apply_cb(_b(0.0, 1, 0), psi).amplitudes - sandwich)) <= 1e-15

    basis = TwoQubitState(1, 0, 0, 0)
    sandwich = (SO2Element(math.pi).matrix @ state_matrix(basis) @ np.eye(2).T).reshape(4)
    np.testing.assert_allclose(sandwich, [-1, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(apply_cb(_b(math.pi, 1, 0), basis).amplitudes, sandwich, atol=1e-12)


def test_apply_local_pair_matches_kronecker_and_cb():
    for seed in range(200):
        variant = list(Variant)[seed % 2]
        u = _random_b(seed, variant)
        psi = haar_random_state(seed + 900)
        first, second = u.rot.matrix, u.su2.matrix
        if variant is Variant.SU2_X_SO2:
            first, second = second, first
        sandwich = (first @ state_matrix(psi) @ second.T).reshape(4)
        kron = np.kron(first, second) @ psi.amplitudes
        assert max(abs(sandwich - kron)) <= 1e-13
        assert max(abs(sandwich - apply_cb(u, psi).amplitudes)) <= 1e-13


def _local_cases():
    return [
        (_random_b(seed, variant), haar_random_state(seed + 300))
        for seed in range(40)
        for variant in Variant
    ]


def test_apply_cb_builds_no_amplitude_vector(monkeypatch):
    # apply_cb is interpreter arithmetic on the four amplitudes: no numpy
    # vector, so no BLAS kernel, whose rounding depends on the CPU.
    cases = _local_cases()
    expected = [apply_cb(u, psi) for u, psi in cases]

    def no_vector(self):
        raise AssertionError("apply_cb read TwoQubitState.amplitudes")

    monkeypatch.setattr(TwoQubitState, "amplitudes", property(no_vector))
    assert [apply_cb(u, psi) for u, psi in cases] == expected


def test_apply_cb_raises_the_states_error_on_overflow():
    # apply_cb builds its result without TwoQubitState.__init__ but keeps its
    # finiteness check and error; on a block state it builds the namedtuple.
    u = _b(0.0, S, S)
    for big in [(1.7e308, 1.7e308, 0, 0), (0, 0, 1.7e308j, 1.7e308j), (1e-300, 0, -1.7e308, -1.7e308)]:
        raw = apply_cb(u, batch.TwoQubitState(*map(complex, big)))
        assert type(raw) is batch.TwoQubitState and not all(map(cmath.isfinite, raw))
        with pytest.raises(ValueError) as ref:
            TwoQubitState(*raw)
        with pytest.raises(ValueError) as got:
            apply_cb(u, TwoQubitState(*big))
        assert str(got.value) == str(ref.value) and " must be finite, got " in str(ref.value)
    out = apply_cb(u, BELL)
    assert type(out) is TwoQubitState and out == TwoQubitState(*map(complex, out.amplitudes.tolist()))


def test_apply_cb_rounds_independently_of_the_spinor_action():
    # The first factor applied first would repeat apply_B_quaterbit's
    # roundings operation for operation; then the quaterbit transport checks
    # would compare a path with itself and read exactly 0 on every input.
    differ = [
        quaternionify(apply_cb(u, psi)) != apply_B_quaterbit(u, quaternionify(psi))
        for u, psi in _local_cases()
    ]
    assert sum(differ) >= len(differ) // 2


def test_apply_B_quaterbit_pure_right_action_at_theta_zero():
    for seed in range(30):
        u = _random_b(seed)
        u0 = _b(0.0, u.su2.a, u.su2.b)
        qb = quaternionify(haar_random_state(seed + 33))
        right = Quaternion(u.su2.a, -u.su2.b.conjugate())
        out = apply_B_quaterbit(u0, qb)
        assert abs(out.q1 - qb.q1 * right) <= 1e-15
        assert abs(out.q2 - qb.q2 * right) <= 1e-15


def test_apply_B_quaterbit_matches_complex_form():
    for seed in range(300):
        u = _random_b(seed)
        psi = haar_random_state(seed + 71)
        lhs = quaternionify(apply_cb(u, psi))
        rhs = apply_B_quaterbit(u, quaternionify(psi))
        assert abs(lhs.q1 - rhs.q1) <= 1e-12
        assert abs(lhs.q2 - rhs.q2) <= 1e-12


def test_apply_Bprime_quaterbit_right_factor_only():
    for theta in (0.0, 0.4, 2.0):
        u = _bp(theta, 1, 0)
        qb = quaternionify(haar_random_state(11))
        right = Quaternion(complex(math.cos(theta)), complex(-math.sin(theta)))
        out = apply_B_quaterbit(u, qb)
        assert abs(out.q1 - qb.q1 * right) <= 1e-15
        assert abs(out.q2 - qb.q2 * right) <= 1e-15


def test_apply_Bprime_quaterbit_matches_complex_form():
    for seed in range(300):
        u = _random_b(seed, Variant.SU2_X_SO2)
        psi = haar_random_state(seed + 17)
        lhs = quaternionify(apply_cb(u, psi))
        rhs = apply_B_quaterbit(u, quaternionify(psi))
        assert abs(lhs.q1 - rhs.q1) <= 1e-12
        assert abs(lhs.q2 - rhs.q2) <= 1e-12


def test_apply_cbprime_preserves_concurrence_magnitude():
    for seed in range(100):
        u = _random_b(seed, Variant.SU2_X_SO2)
        psi = haar_random_state(seed + 43)
        before = abs(concurrence_term(psi))
        after = abs(concurrence_term(apply_cb(u, psi)))
        assert abs(before - after) <= 1e-12


def test_apply_cbprime_reduces_to_second_factor_rotation():
    u = _bp(0.7, 1, 0)
    np.testing.assert_allclose(
        complex_form(u), np.kron(np.eye(2), SO2Element(0.7).matrix), atol=1e-15
    )


def test_transformed_component_norm_closed_form():
    for seed in range(200):
        u = _random_b(seed)
        psi = haar_random_state(seed + 1234)
        qb = quaternionify(psi)
        out = quaternionify(apply_cb(u, psi))
        c, s = math.cos(u.rot.theta), math.sin(u.rot.theta)
        predicted = (
            qb.q2.norm_sq() * c * c
            + qb.q1.norm_sq() * s * s
            - 2 * s * c * schmidt_term(psi).real
        )
        assert abs(out.q2.norm_sq() - predicted) <= 1e-12


def test_schmidt_term_evolution_closed_form():
    for seed in range(200):
        u = _random_b(seed)
        psi = haar_random_state(seed + 4321)
        qb = quaternionify(psi)
        s_in = schmidt_term(psi)
        c, s = math.cos(u.rot.theta), math.sin(u.rot.theta)
        predicted = (
            c * c * s_in
            - s * s * s_in.conjugate()
            + s * c * (qb.q2.norm_sq() - qb.q1.norm_sq())
        )
        assert abs(schmidt_term(apply_cb(u, psi)) - predicted) <= 1e-12


def test_theta_zero_fixes_schmidt_term():
    for seed in range(50):
        u = _random_b(seed)
        u0 = _b(0.0, u.su2.a, u.su2.b)
        psi = haar_random_state(seed + 999)
        assert abs(schmidt_term(apply_cb(u0, psi)) - schmidt_term(psi)) <= 1e-13


def test_signed_concurrence_invariance():
    for seed in range(200):
        u = _random_b(seed)
        psi = haar_random_state(seed + 555)
        assert abs(concurrence_term(apply_cb(u, psi)) - concurrence_term(psi)) <= 1e-12


def test_sp2_check_quaternionic_examples():
    assert sp2_check_quaternionic(QuatMat2.identity(), tol=1e-12)
    two = Quaternion(2 + 0j, 0j)
    zero = Quaternion(0j, 0j)
    assert not sp2_check_quaternionic(QuatMat2(two, zero, zero, ONE), tol=1e-9)
    for seed in range(50):
        assert sp2_check_quaternionic(quat_matrix(_random_b(seed)), tol=1e-12)


def test_sp2_check_complex_examples():
    assert sp2_check_complex(np.eye(4), tol=1e-12)
    assert not sp2_check_complex(np.diag([1, 1j, 1, 1]), tol=1e-9)
    for seed in range(50):
        assert sp2_check_complex(complex_form(_random_b(seed)), tol=1e-12)


def test_quat_matrix_complexifies_to_complex_form():
    # One quaternionic matrix per so2xsu2 element: its complexification is
    # the 4x4 complex form, entry for entry.
    for seed in range(50):
        u = _random_b(seed)
        assert np.array_equal(complexify(quat_matrix(u)), complex_form(u)), seed


def test_complexify_identity_and_j():
    np.testing.assert_allclose(complexify(QuatMat2.identity()), np.eye(4), atol=0)
    jj = QuatMat2(J, Quaternion(0j, 0j), Quaternion(0j, 0j), J)
    assert np.array_equal(complexify(jj), EXPLICIT_J)
    assert np.array_equal(J_METRIC, EXPLICIT_J.real)


def _random_quat_mat(rng) -> QuatMat2:
    qs = [Quaternion.from_reals(*rng.uniform(-1, 1, size=4)) for _ in range(4)]
    return QuatMat2(*qs)


def test_complexify_is_an_algebra_map():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m1 = _random_quat_mat(rng)
        m2 = _random_quat_mat(rng)
        np.testing.assert_allclose(
            complexify(m1 @ m2), complexify(m1) @ complexify(m2), atol=1e-12
        )
        np.testing.assert_allclose(
            complexify(m1) + complexify(m2),
            complexify(QuatMat2(*(x + y for x, y in zip(m1.entries(), m2.entries())))),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            complexify(m1.dagger()), complexify(m1).conj().T, atol=1e-13
        )


def test_complexify_image_characterization():
    rng = np.random.default_rng(99)
    for _ in range(100):
        assert is_quaternionic_complex_matrix(complexify(_random_quat_mat(rng)), tol=1e-12)
    assert is_quaternionic_complex_matrix(EXPLICIT_J, tol=1e-12)
    assert not is_quaternionic_complex_matrix(np.diag([1.0, 2.0, 3.0, 4.0]), tol=1e-9)


def test_sp2_definitions_agree_through_complexify():
    rng = np.random.default_rng(7)
    samples = [quat_matrix(_random_b(seed)) for seed in range(30)]
    samples += [quat_matrix(_random_b(seed, Variant.SU2_X_SO2)) for seed in range(30)]
    samples += [_random_quat_mat(rng) for _ in range(60)]
    diag_units = QuatMat2(J, Quaternion(0j, 0j), Quaternion(0j, 0j), Quaternion(0j, 1j))
    samples.append(diag_units)
    samples.append(samples[0] @ diag_units)
    for m in samples:
        assert sp2_check_quaternionic(m, tol=1e-10) == sp2_check_complex(
            complexify(m), tol=1e-10
        )


def test_random_local_unitary_deterministic_and_valid():
    # Loose moment checks, as for the suite's block sampler: |a|^2 is uniform
    # on [0, 1] for Haar (a, b), and theta is uniform on [0, 2 pi).
    u = random_local_unitary(Variant.SO2_X_SU2, 5)
    assert u == random_local_unitary(Variant.SO2_X_SU2, 5)
    assert random_su2([3, 4]) == random_su2([3, 4]) != random_su2([3, 5])
    for seed in range(100):
        u = random_local_unitary(Variant.SO2_X_SU2, seed)
        assert sp2_check_complex(complex_form(u), tol=1e-12)
    us = [random_local_unitary(Variant.SO2_X_SU2, [7, k]) for k in range(20_000)]
    a, b = (np.array([getattr(u.su2, f) for u in us]) for f in "ab")
    theta = np.array([u.rot.theta for u in us])
    assert np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max() < 1e-15
    assert abs(np.mean(np.abs(a) ** 2) - 0.5) < 0.01
    assert abs(np.mean(np.abs(a) ** 4) - 1.0 / 3.0) < 0.01
    assert 0.0 <= theta.min() and theta.max() < 2 * math.pi
    assert abs(np.mean(theta) - math.pi) < 0.05
    assert abs(np.mean(theta < math.pi / 2) - 0.25) < 0.01
