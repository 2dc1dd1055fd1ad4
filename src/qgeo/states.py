"""One- and two-qubit pure states, their quaternion encoding, and entanglement scalars."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quaternion import Quaternion, _abs2

# Norm deviation accepted at the construction boundary.
NORMALIZATION_TOL = 1e-9

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _finite_complex(value, name: str) -> complex:
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class OneQubitState:
    """Amplitudes (a1, a2) of |0> and |1>."""

    a1: complex
    a2: complex

    def __post_init__(self):
        object.__setattr__(self, "a1", _finite_complex(self.a1, "a1"))
        object.__setattr__(self, "a2", _finite_complex(self.a2, "a2"))

    def norm_sq(self) -> float:
        return _abs2(self.a1) + _abs2(self.a2)


@dataclass(frozen=True, init=False)
class TwoQubitState:
    """Amplitudes of |00>, |01>, |10>, |11>, in that basis order.

    Normalization is a boundary contract: constructors only require finite
    components, so intermediate unnormalized vectors (as needed by linear
    maps) are representable.  Inputs are normalized where they are read:
    ``from_vector(v, renormalize=True)`` and the CLI's state-file loader.
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __init__(self, alpha: complex, beta: complex, gamma: complex, delta: complex):
        object.__setattr__(self, "alpha", _finite_complex(alpha, "alpha"))
        object.__setattr__(self, "beta", _finite_complex(beta, "beta"))
        object.__setattr__(self, "gamma", _finite_complex(gamma, "gamma"))
        object.__setattr__(self, "delta", _finite_complex(delta, "delta"))

    @classmethod
    def from_vector(cls, vec, renormalize: bool = False) -> TwoQubitState:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {v.shape}")
        if renormalize:
            n = np.linalg.norm(v)
            if n < 1e-12:
                raise ZeroDivisionError("cannot normalize a zero state vector")
            v = v / n
        return cls(v[0], v[1], v[2], v[3])

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta])

    def norm_sq(self) -> float:
        # Grouped to match Quaterbit.norm_sq bit for bit.
        return (_abs2(self.alpha) + _abs2(self.beta)) + (_abs2(self.gamma) + _abs2(self.delta))


@dataclass(frozen=True)
class Quaterbit:
    """Two-component quaternionic spinor image of a two-qubit state."""

    q1: Quaternion
    q2: Quaternion

    def norm_sq(self) -> float:
        return self.q1.norm_sq() + self.q2.norm_sq()


def quaternionify(psi: TwoQubitState) -> Quaterbit:
    """Encode amplitudes as the quaternion pair q1 = alpha + beta*j, q2 = gamma + delta*j.

    The map is a bijection of vectors, complex linear for scalars acting on
    the left, and carries the squared norm over exactly.
    """
    return Quaterbit(Quaternion(psi.alpha, psi.beta), Quaternion(psi.gamma, psi.delta))


def dequaternionify(qb: Quaterbit) -> TwoQubitState:
    """Exact inverse of :func:`quaternionify`."""
    return TwoQubitState(qb.q1.z1, qb.q1.z2, qb.q2.z1, qb.q2.z2)


def state_matrix(psi: TwoQubitState) -> np.ndarray:
    """2x2 amplitude matrix with rows indexed by the first qubit."""
    return np.array([[psi.alpha, psi.beta], [psi.gamma, psi.delta]])


def schmidt_term(psi: TwoQubitState) -> complex:
    """alpha*conj(gamma) + beta*conj(delta): the inner product of matrix row 1 with row 2.

    Vanishes exactly when the two rows of the amplitude matrix are orthogonal.
    """
    return psi.alpha * psi.gamma.conjugate() + psi.beta * psi.delta.conjugate()


def concurrence_term(psi: TwoQubitState) -> complex:
    """beta*gamma - alpha*delta, i.e. minus the amplitude-matrix determinant.

    Zero exactly on product states; invariant under local unitaries.
    """
    return psi.beta * psi.gamma - psi.alpha * psi.delta


def wootters_preconcurrence(psi: TwoQubitState) -> complex:
    """Sesquilinear form <psi| sigma_y (x) sigma_y |conj(psi)>.

    Equals twice the conjugate of :func:`concurrence_term`; its magnitude is
    the standard concurrence of the pure state.
    """
    v = psi.amplitudes
    vbar = v.conjugate()
    return complex(vbar @ (_SIGMA_YY @ vbar))


def is_separable(psi: TwoQubitState, tol: float = 1e-10) -> bool:
    """True when the concurrence term vanishes within tol (product state)."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    return abs(concurrence_term(psi)) < tol


def haar_random_state(seed) -> TwoQubitState:
    """Uniform random normalized two-qubit state, deterministic in seed.

    Four complex amplitudes are drawn as standard Gaussians and the vector is
    normalized, which makes the distribution unitarily invariant.
    """
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(4)
    im = rng.standard_normal(4)
    v = re + 1j * im
    return TwoQubitState.from_vector(v / math.sqrt(float(re @ re + im @ im)))


def haar_random_one_qubit(seed) -> OneQubitState:
    """Uniform random normalized one-qubit state, deterministic in seed."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(2)
    im = rng.standard_normal(2)
    v = re + 1j * im
    v = v / np.linalg.norm(v)
    return OneQubitState(v[0], v[1])
