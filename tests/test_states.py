"""State model: quaternion encoding, Schmidt/concurrence scalars, Haar sampling."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo import sampling
from qgeo.local_unitary import SU2Element
from qgeo.quaternion import J, ONE, Quaternion, unit
from qgeo.states import (
    OneQubitState,
    Quaterbit,
    TwoQubitState,
    concurrence_term,
    dequaternionify,
    haar_random_state,
    is_separable,
    quaternionify,
    schmidt_term,
    state_matrix,
    wootters_preconcurrence,
)

S = math.sqrt(0.5)
BELL = TwoQubitState(S, 0, 0, S)

amplitude = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
states = st.builds(TwoQubitState, amplitude, amplitude, amplitude, amplitude)


def test_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError):
        TwoQubitState(float("nan"), 0, 0, 1)
    with pytest.raises(ValueError, match="gamma"):
        TwoQubitState(0, 0, complex(float("inf"), 0), 1)
    with pytest.raises(ValueError):
        OneQubitState(complex(0, float("inf")), 1)
    # The value-type contract of the hand-written __init__.
    psi = TwoQubitState(1, 0.5, 0, 2j)
    assert all(type(z) is complex for z in (psi.alpha, psi.beta, psi.gamma, psi.delta))
    assert (psi.alpha, psi.beta) == (1 + 0j, 0.5 + 0j)
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.delta = 0j
    same = TwoQubitState(1 + 0j, 0.5 + 0j, 0j, 2j)
    assert psi == same and hash(psi) == hash(same)
    assert pickle.loads(pickle.dumps(psi)) == psi
    assert dataclasses.replace(psi, gamma=3) == TwoQubitState(1, 0.5, 3, 2j)
    with pytest.raises(ValueError, match="beta"):
        dataclasses.replace(psi, beta=float("nan"))
    assert repr(psi) == "TwoQubitState(alpha=(1+0j), beta=(0.5+0j), gamma=0j, delta=2j)"


def test_quaternionify_basis_states():
    assert quaternionify(TwoQubitState(1, 0, 0, 0)) == Quaterbit(ONE, Quaternion(0j, 0j))
    assert quaternionify(TwoQubitState(0, 1, 0, 0)) == Quaterbit(J, Quaternion(0j, 0j))


def test_quaternionify_bell():
    qb = quaternionify(BELL)
    assert qb.q1 == Quaternion(complex(S), 0j)
    assert qb.q2 == Quaternion(0j, complex(S))


def test_dequaternionify_inverts_exactly():
    assert dequaternionify(Quaterbit(ONE, Quaternion(0j, 0j))) == TwoQubitState(1, 0, 0, 0)
    assert dequaternionify(Quaterbit(J, Quaternion(0j, 0j))) == TwoQubitState(0, 1, 0, 0)


@given(states)
def test_round_trip_is_identity(psi):
    assert dequaternionify(quaternionify(psi)) == psi


@given(states)
def test_norm_transport_is_exact(psi):
    assert quaternionify(psi).norm_sq() == psi.norm_sq()


@given(states, states, amplitude, amplitude)
def test_encoding_is_complex_linear_on_the_left(psi1, psi2, c1, c2):
    combo = TwoQubitState(
        c1 * psi1.alpha + c2 * psi2.alpha,
        c1 * psi1.beta + c2 * psi2.beta,
        c1 * psi1.gamma + c2 * psi2.gamma,
        c1 * psi1.delta + c2 * psi2.delta,
    )
    qb1, qb2 = quaternionify(psi1), quaternionify(psi2)
    expect = Quaterbit(c1 * qb1.q1 + c2 * qb2.q1, c1 * qb1.q2 + c2 * qb2.q2)
    got = quaternionify(combo)
    assert abs(got.q1 - expect.q1) <= 1e-12
    assert abs(got.q2 - expect.q2) <= 1e-12


def test_state_matrix_layout():
    assert np.array_equal(
        state_matrix(TwoQubitState(1, 0, 0, 0)), np.array([[1, 0], [0, 0]], dtype=complex)
    )
    np.testing.assert_allclose(state_matrix(BELL), S * np.eye(2), atol=1e-15)
    m = state_matrix(TwoQubitState(1j, 2, 3, 4 - 1j))
    assert m[0, 1] == 2 and m[1, 0] == 3


def test_schmidt_term_examples():
    assert schmidt_term(BELL) == 0
    assert schmidt_term(TwoQubitState(S, S, 0, 0)) == 0
    assert abs(schmidt_term(TwoQubitState(S, 0, S, 0)) - 0.5) <= 1e-15


@given(states)
def test_schmidt_term_is_row_inner_product(psi):
    m = state_matrix(psi)
    inner = np.vdot(m[1], m[0])  # <row2, row1>
    assert abs(schmidt_term(psi) - inner) <= 1e-13


def test_concurrence_term_examples():
    assert abs(concurrence_term(BELL) - (-0.5)) <= 1e-15
    assert concurrence_term(TwoQubitState(0, 1, 0, 0)) == 0
    # Product state |x+> (x) |x+>.
    assert abs(concurrence_term(TwoQubitState(0.5, 0.5, 0.5, 0.5))) <= 1e-15


@given(states)
def test_concurrence_term_is_minus_determinant(psi):
    det = np.linalg.det(state_matrix(psi))
    assert abs(concurrence_term(psi) + det) <= 1e-14


def test_wootters_preconcurrence_bell():
    # Oracle: explicit 4x4 matrix of sigma_y (x) sigma_y in the product basis.
    syy = np.array(
        [
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        dtype=complex,
    )
    v = BELL.amplitudes
    expected = np.conj(v) @ (syy @ np.conj(v))
    assert abs(wootters_preconcurrence(BELL) - expected) <= 1e-15
    assert abs(wootters_preconcurrence(BELL) - (-1.0)) <= 1e-15


def test_wootters_preconcurrence_product_state():
    assert abs(wootters_preconcurrence(TwoQubitState(0.5, 0.5, 0.5, 0.5))) <= 1e-15


@given(states)
def test_wootters_is_twice_conjugate_concurrence(psi):
    assert abs(wootters_preconcurrence(psi) - 2 * concurrence_term(psi).conjugate()) <= 1e-12


def test_is_separable():
    assert is_separable(TwoQubitState(1, 0, 0, 0), tol=1e-12)
    assert not is_separable(BELL, tol=1e-12)
    assert is_separable(TwoQubitState(0.5, 0.5, 0.5, 0.5), tol=1e-12)
    with pytest.raises(ValueError):
        is_separable(BELL, tol=0.0)


def test_haar_sampler_deterministic():
    assert haar_random_state(123) == haar_random_state(123)
    assert haar_random_state(123) != haar_random_state(124)


def test_haar_sampler_normalized():
    for seed in range(50):
        assert abs(haar_random_state(seed).norm_sq() - 1.0) <= 1e-14


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_haar_sampler_normalized_any_seed(seed):
    assert abs(haar_random_state(seed).norm_sq() - 1.0) <= 1e-14


def test_haar_mean_amplitude_weight():
    # Trials 0-9 999 of stream (0, 0), read as one block.
    alpha = sampling.haar_rows(sampling.uniforms(0, 0, 0, 10_000), 4)[:, 0]
    assert haar_random_state(0, 0, 9_999).alpha == alpha[-1]
    mean = np.mean(np.abs(alpha) ** 2)
    assert abs(mean - 0.25) <= 0.02


def _parts_bits(values) -> str:
    """The reprs of the parts: they tell -0.0 from 0.0."""
    return repr([(z.real, z.imag) for z in values])


def test_from_vector_checks_the_shape():
    with pytest.raises(ValueError, match=r"expected 4 amplitudes, got shape \(3,\)"):
        TwoQubitState.from_vector([1, 0, 0], renormalize=True)
    assert TwoQubitState.from_vector([[0.6, 0], [0, 0.8j]]) == TwoQubitState(0.6, 0, 0, 0.8j)


def test_from_vector_rejects_vectors_it_cannot_normalize():
    # Zero is a squared norm below 2**-1022, the boundary of Quaternion.inverse.
    for v in (np.zeros(4), [1e-160, 0, 0, 1e-160j]):
        with pytest.raises(ZeroDivisionError, match="cannot normalize a zero vector"):
            TwoQubitState.from_vector(v, renormalize=True)
    with pytest.raises(ValueError, match="the squared norm overflows"):
        TwoQubitState.from_vector([1e200, 0, 0, 0], renormalize=True)
    assert TwoQubitState.from_vector(np.zeros(4)) == TwoQubitState(0, 0, 0, 0)


def test_from_vector_renormalizes_by_the_one_rule():
    # The squares of the real parts, then of the imaginary parts, added left
    # to right; each part divided by the root on its own.
    rng = np.random.default_rng(8)
    for scale in (1e-6, 1.0, 1e6, 1e100, 1e-13, 1e-150):
        for _ in range(100):
            g = rng.standard_normal(8) * scale
            g[rng.random(8) < 0.25] = 0.0
            g[0] = g[0] or -scale
            g[7] = -0.0 if g[7] == 0.0 else g[7]
            norm_sq = 0.0
            for x in g.tolist():
                norm_sq = norm_sq + x * x
            n = math.sqrt(norm_sq)
            values = [complex(x, y) for x, y in zip(g[:4].tolist(), g[4:].tolist())]
            expected = [complex(z.real / n, z.imag / n) for z in values]
            psi = TwoQubitState.from_vector(values, renormalize=True)
            got = [psi.alpha, psi.beta, psi.gamma, psi.delta]
            assert _parts_bits(got) == _parts_bits(expected)
    assert TwoQubitState.from_vector([1e-13, 0, 0, 1e-13j], renormalize=True) == TwoQubitState(S, 0, 0, S * 1j)


_UNIT_VECTOR = (complex(0.5, -0.0), complex(-0.0, 0.25), complex(0.3, 0.1), complex(0.0, -0.7))


def _outcome(normalize, values):
    """The parts' reprs of ``normalize(values)``, or the class of what it raises."""
    try:
        return _parts_bits(normalize(values))
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def _unit_reference(values):
    """The outcome of the one rule, written out: zero below 2**-1022, overflow at inf."""
    norm_sq = 0.0
    for x in [z.real for z in values] + [z.imag for z in values]:
        norm_sq = norm_sq + x * x
    if norm_sq < 2.0**-1022:
        return ZeroDivisionError
    if norm_sq == math.inf:
        return ValueError
    n = math.sqrt(norm_sq)
    return _parts_bits([complex(z.real / n, z.imag / n) for z in values])


@pytest.mark.parametrize("scale", [0.0, 1e-160, 1e-13, 1.0, 1e150, 1e200])
def test_every_normalizer_is_quaternion_unit(scale):
    """from_vector and an SU(2) pair normalize by the one rule: the same bits or the same error."""
    v = [complex(scale * z.real, scale * z.imag) for z in _UNIT_VECTOR]
    from_vector = TwoQubitState.from_vector
    assert _outcome(unit, v) == _unit_reference(v)
    assert _outcome(lambda w: dataclasses.astuple(from_vector(w, renormalize=True)), v) == _unit_reference(v)
    assert _outcome(lambda w: dataclasses.astuple(SU2Element(*unit(w))), v[:2]) == _unit_reference(v[:2])
    assert isinstance(_unit_reference(v), type) == (scale in (0.0, 1e-160, 1e200))
