"""Conformal maps: quotients to the extended line, dual map, 4-sphere chart."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
    assert conformal_map_one_qubit(OneQubitState(S, S)).isclose(Quaternion(1 + 0j, 0j), tol=1e-15)
    # The image lies on the complex line: its j-part is zero.
    assert conformal_map_one_qubit(OneQubitState(0.6, 0.8j)).z2 == 0
    with pytest.raises(ZeroDivisionError):
        conformal_map_one_qubit(OneQubitState(0, 0))


def test_conformal_map_bell_point():
    assert conformal_map(quaternionify(BELL)).isclose(-J, tol=1e-15)


def test_conformal_map_infinity_and_zero():
    assert conformal_map(quaternionify(TwoQubitState(0, 1, 0, 0))) is INFINITY
    image = conformal_map(quaternionify(TwoQubitState(0, 0, 1, 0)))
    assert image == Quaternion(0j, 0j)


def test_conformal_map_rejects_zero_spinor():
    with pytest.raises(ZeroDivisionError):
        conformal_map(Quaterbit(Quaternion(0j, 0j), Quaternion(0j, 0j)))


def test_dual_map_examples():
    qb = quaternionify(BELL)
    assert conformal_map_dual(qb).isclose(-J, tol=1e-15)
    assert conformal_map_dual(Quaterbit(Quaternion(0j, 0j), Quaternion(1 + 0j, 0j))) == Quaternion(
        0j, 0j
    )


def test_dual_map_bra_relation():
    for seed in range(10_000):
        qb = quaternionify(haar_random_state(seed))
        conj_qb = Quaterbit(qb.q1.conjugate(), qb.q2.conjugate())
        if qb.q2.is_zero():
            continue
        lhs = conformal_map_dual(conj_qb)
        rhs = conformal_map(qb).conjugate()
        assert abs(lhs - rhs) <= 1e-12


def test_schmidt_concurrence_form_examples():
    value, n2 = schmidt_concurrence_form(BELL)
    assert value.isclose(-J, tol=1e-12)
    assert n2 == pytest.approx(0.5)

    value, n2 = schmidt_concurrence_form(TwoQubitState(1, 0, 0, 0))
    assert value is INFINITY
    assert n2 == 0.0

    value, n2 = schmidt_concurrence_form(TwoQubitState(S, 0, S, 0))
    assert value.isclose(Quaternion(1 + 0j, 0j), tol=1e-12)
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
        if s.norm_sq() < 1e-4 or qb.q2.is_zero():
            continue
        scaled = Quaterbit(qb.q1 * s, qb.q2 * s)
        assert chordal_distance(conformal_map(scaled), conformal_map(qb)) <= 1e-11


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
