"""Conformal maps: quotients to the extended line, dual map, 4-sphere chart."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qgeo import sampling
from qgeo.quaternion import INFINITY, J, Quaternion, chordal_distance
from qgeo.states import OneQubitState, Quaterbit, TwoQubitState, haar_random_state, quaternionify
from qgeo.conformal import (
    conformal_map,
    conformal_map_dual,
    conformal_map_one_qubit,
    embed_complex,
    inverse_stereographic,
    schmidt_concurrence_form,
)

S = math.sqrt(0.5)
BELL = TwoQubitState(S, 0, 0, S)

components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
quaternions = st.builds(Quaternion.from_reals, components, components, components, components)


def test_one_qubit_map_conventions():
    assert conformal_map_one_qubit(OneQubitState(1, 0)) is INFINITY
    assert conformal_map_one_qubit(OneQubitState(0, 1)) == Quaternion(0j, 0j)
    assert abs(conformal_map_one_qubit(OneQubitState(S, S)) - Quaternion(1 + 0j, 0j)) <= 1e-15
    # The image lies on the complex line: its j-part is zero.
    assert conformal_map_one_qubit(OneQubitState(0.6, 0.8j)).z2 == 0
    with pytest.raises(ZeroDivisionError):
        conformal_map_one_qubit(OneQubitState(0, 0))


def test_conformal_map_bell_point():
    assert abs(conformal_map(quaternionify(BELL)) + J) <= 1e-15


def test_conformal_map_infinity_and_zero():
    assert conformal_map(quaternionify(TwoQubitState(0, 1, 0, 0))) is INFINITY
    image = conformal_map(quaternionify(TwoQubitState(0, 0, 1, 0)))
    assert image == Quaternion(0j, 0j)


def test_conformal_map_rejects_zero_spinor():
    with pytest.raises(ZeroDivisionError):
        conformal_map(Quaterbit(Quaternion(0j, 0j), Quaternion(0j, 0j)))


def test_dual_map_examples():
    qb = quaternionify(BELL)
    assert abs(conformal_map_dual(qb) + J) <= 1e-15
    assert conformal_map_dual(Quaterbit(Quaternion(0j, 0j), Quaternion(1 + 0j, 0j))) == Quaternion(
        0j, 0j
    )


def test_dual_map_bra_relation():
    # Trials 0-9 999 of stream (0, 0), read as one block.
    for amplitudes in sampling.haar_rows(sampling.uniforms(0, 0, 0, 10_000), 4).tolist():
        qb = quaternionify(TwoQubitState(*amplitudes))
        conj_qb = Quaterbit(qb.q1.conjugate(), qb.q2.conjugate())
        lhs = conformal_map_dual(conj_qb)
        rhs = conformal_map(qb).conjugate()
        assert abs(lhs - rhs) <= 1e-12


def test_schmidt_concurrence_form_examples():
    value, n2 = schmidt_concurrence_form(BELL)
    assert abs(value + J) <= 1e-12
    assert n2 == pytest.approx(0.5)

    value, n2 = schmidt_concurrence_form(TwoQubitState(1, 0, 0, 0))
    assert value is INFINITY
    assert n2 == 0.0

    value, n2 = schmidt_concurrence_form(TwoQubitState(S, 0, S, 0))
    assert abs(value - Quaternion(1 + 0j, 0j)) <= 1e-12
    assert n2 == pytest.approx(0.5)


def test_schmidt_concurrence_form_matches_quotient():
    for seed in range(300):
        psi = haar_random_state(seed)
        value, _ = schmidt_concurrence_form(psi)
        direct = conformal_map(quaternionify(psi))
        assert chordal_distance(value, direct) <= 1e-12


def test_scale_invariance_of_the_quotient():
    for seed in range(200):
        psi = haar_random_state(seed)
        qb = quaternionify(psi)
        rng = np.random.default_rng(seed + 10_000)
        s = Quaternion.from_reals(*rng.uniform(-1, 1, size=4))
        if s.norm_sq() < 1e-4:
            continue
        scaled = Quaterbit(qb.q1 * s, qb.q2 * s)
        assert chordal_distance(conformal_map(scaled), conformal_map(qb)) <= 1e-11


def test_conformal_map_is_invariant_under_real_scaling():
    # The image of a spinor is that of its right-quaternion line, so scaling
    # both components by any s > 0 keeps it: INFINITY is reached only where
    # q2 has no finite inverse, wherever the spinor's scale puts |q2|^2.
    g = 1e-13
    spinors = [quaternionify(haar_random_state(seed)) for seed in range(10)]
    spinors.append(Quaterbit(Quaternion(math.sqrt(1 - g * g), 0), Quaternion(g, 0)))
    for qb in spinors:
        image = conformal_map(qb)
        for e in range(-150, 151):
            s = 10.0**e
            assert chordal_distance(conformal_map(Quaterbit(s * qb.q1, s * qb.q2)), image) <= 1e-15


def _exact_s4(q1, q2, mp):
    """The 4-sphere image of q1 * q2**-1 for the float spinor (q1, q2), in mpmath."""
    a1, a2, b1, b2 = (mp.mpc(z) for z in (q1.z1, q1.z2, q2.z1, q2.z2))
    n = abs(b1) ** 2 + abs(b2) ** 2
    c1, c2 = mp.conj(b1) / n, -b2 / n  # q2**-1
    p1, p2 = a1 * c1 - a2 * mp.conj(c2), a1 * c2 + a2 * mp.conj(c1)
    m = abs(p1) ** 2 + abs(p2) ** 2
    return [2 * x / (m + 1) for x in (p1.real, p1.imag, p2.real, p2.imag)] + [(m - 1) / (m + 1)]


def test_conformal_map_is_accurate_next_to_infinity():
    # Unit spinors with |q2| = 10**-k map within rounding of their image, as
    # far down as 1e-300, where |q2|^2 is 0 in floats: a unit spinor is sent
    # to INFINITY only at q2 = 0.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(61)
    with mpmath.workdps(60):
        for k in range(12, 301):
            g = 10.0**-k
            u1, u2 = (Quaternion.from_reals(*(x / np.linalg.norm(x))) for x in rng.standard_normal((2, 4)))
            for qb in (Quaterbit(math.sqrt(1 - g * g) * u1, g * u2), Quaterbit(Quaternion(1, 0), Quaternion(g, 0))):
                exact = _exact_s4(qb.q1, qb.q2, mpmath)
                got = inverse_stereographic(conformal_map(qb)).tolist()
                assert mpmath.sqrt(sum((mpmath.mpf(x) - y) ** 2 for x, y in zip(got, exact))) <= 1e-15


def test_one_qubit_map_agrees_with_embedded_quaternionic_map():
    # beta = delta = 0 embeds a one-qubit state on the first tensor factor.
    for seed in range(100):
        one = OneQubitState(*haar_random_state(seed).amplitudes[:2])
        n = math.sqrt(one.norm_sq())
        one = OneQubitState(one.a1 / n, one.a2 / n)
        psi = TwoQubitState(one.a1, 0, one.a2, 0)
        z = conformal_map_one_qubit(one)
        q = conformal_map(quaternionify(psi))
        assert chordal_distance(z, q) <= 1e-12
        assert z == conformal_map(Quaterbit(embed_complex(one.a1), embed_complex(one.a2)))


def test_inverse_stereographic_poles_and_equator():
    np.testing.assert_allclose(
        inverse_stereographic(Quaternion(0j, 0j)), [0, 0, 0, 0, -1], atol=1e-15
    )
    np.testing.assert_allclose(inverse_stereographic(INFINITY), [0, 0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(inverse_stereographic(J), [0, 0, 1, 0, 0], atol=1e-15)
    # Next to the north pole, where |q|^2 overflows: 2 x / |q|^2 and 1.0, not NaN.
    far = Quaternion(1e200 - 3e199j, 4e199)
    np.testing.assert_allclose(inverse_stereographic(far), [1.6e-200, -4.8e-201, 6.4e-201, 0, 1], rtol=1e-15)
    u = inverse_stereographic(Quaternion(1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j))
    assert np.all(np.isfinite(u)) and u[4] == 1.0 and np.all(np.abs(u[:4]) < 1e-308)


@given(quaternions)
def test_inverse_stereographic_lands_on_unit_sphere(q):
    u = inverse_stereographic(q)
    assert abs(np.dot(u, u) - 1.0) <= 1e-12


@given(quaternions, quaternions)
def test_chordal_distance_is_euclidean_between_images(p, q):
    d = chordal_distance(p, q)
    u, v = inverse_stereographic(p), inverse_stereographic(q)
    assert d == pytest.approx(float(np.linalg.norm(u - v)), abs=1e-14)


@given(quaternions)
def test_inverse_stereographic_injective_vs_infinity(q):
    assume(q.norm_sq() < 1e6)
    assert chordal_distance(q, INFINITY) > 0
