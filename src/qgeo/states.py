"""One- and two-qubit pure states, their quaternion encoding, entanglement scalars and JSON form."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .quaternion import Quaternion, _abs2, _isfinite, _quaternion, divided, squared_norm

# Norm deviation accepted at the construction boundary.
NORMALIZATION_TOL = 1e-9

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# The nonzero entries (j, k, s) of sigma_y (x) sigma_y, in row-major order.
_SIGMA_YY_ENTRIES = tuple(
    (j, k, complex(s)) for (j, k), s in np.ndenumerate(np.kron(_SIGMA_Y, _SIGMA_Y)) if s
)


def _finite_complex(value, name: str) -> complex:
    z = complex(value)
    if not _isfinite(z):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True, slots=True)
class OneQubitState:
    """Amplitudes (a1, a2) of |0> and |1>."""

    a1: complex
    a2: complex

    def __post_init__(self):
        object.__setattr__(self, "a1", _finite_complex(self.a1, "a1"))
        object.__setattr__(self, "a2", _finite_complex(self.a2, "a2"))

    def norm_sq(self) -> float:
        return _abs2(self.a1) + _abs2(self.a2)


@dataclass(frozen=True, slots=True, init=False)
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
        _set_alpha(self, _finite_complex(alpha, "alpha"))
        _set_beta(self, _finite_complex(beta, "beta"))
        _set_gamma(self, _finite_complex(gamma, "gamma"))
        _set_delta(self, _finite_complex(delta, "delta"))

    @classmethod
    def _make(cls, amplitudes) -> TwoQubitState:
        """The state of four complex amplitudes, as a namedtuple's ``_make`` builds one.

        It checks finiteness as ``__init__`` does, with the same error, and
        skips only the ``complex()`` coercion and the ``__init__`` call.
        """
        alpha, beta, gamma, delta = amplitudes
        if not (_isfinite(alpha) and _isfinite(beta) and _isfinite(gamma) and _isfinite(delta)):
            return cls(alpha, beta, gamma, delta)  # raises __init__'s error
        psi = _new(cls)
        _set_alpha(psi, alpha)
        _set_beta(psi, beta)
        _set_gamma(psi, gamma)
        _set_delta(psi, delta)
        return psi

    @classmethod
    def from_vector(cls, vec, renormalize: bool = False) -> TwoQubitState:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {v.shape}")
        values = v.tolist()
        if renormalize:
            n = math.sqrt(squared_norm(values))
            if n < 1e-12:
                raise ZeroDivisionError("cannot normalize a zero state vector")
            if n == math.inf:
                raise ValueError("cannot normalize: the squared norm overflows")
            values = divided(values, n)
        return cls(*values)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta])

    def norm_sq(self) -> float:
        # Grouped to match Quaterbit.norm_sq bit for bit.
        return (_abs2(self.alpha) + _abs2(self.beta)) + (_abs2(self.gamma) + _abs2(self.delta))


@dataclass(frozen=True, slots=True, init=False)
class Quaterbit:
    """Two-component quaternionic spinor image of a two-qubit state."""

    q1: Quaternion
    q2: Quaternion

    def __init__(self, q1: Quaternion, q2: Quaternion):
        _set_q1(self, q1)
        _set_q2(self, q2)

    def norm_sq(self) -> float:
        return self.q1.norm_sq() + self.q2.norm_sq()


_new = object.__new__
_set_alpha, _set_beta = TwoQubitState.alpha.__set__, TwoQubitState.beta.__set__
_set_gamma, _set_delta = TwoQubitState.gamma.__set__, TwoQubitState.delta.__set__
_set_q1, _set_q2 = Quaterbit.q1.__set__, Quaterbit.q2.__set__


def quaternionify(psi: TwoQubitState) -> Quaterbit:
    """Encode amplitudes as the quaternion pair q1 = alpha + beta*j, q2 = gamma + delta*j.

    The map is a bijection of vectors, complex linear for scalars acting on
    the left, and carries the squared norm over exactly.
    """
    return Quaterbit(_quaternion(psi.alpha, psi.beta), _quaternion(psi.gamma, psi.delta))


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
    the standard concurrence of the pure state.  The form is summed over the
    nonzero entries s_jk of sigma_y (x) sigma_y in row-major order, term
    conj(v_j) * (s_jk * conj(v_k)), so it does not depend on BLAS or the CPU.
    """
    vbar = [z.conjugate() for z in (psi.alpha, psi.beta, psi.gamma, psi.delta)]
    return reduce(operator.add, (vbar[j] * (s * vbar[k]) for j, k, s in _SIGMA_YY_ENTRIES))


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
    return TwoQubitState(*_haar_amplitudes(seed, 4))


def haar_random_one_qubit(seed) -> OneQubitState:
    """Uniform random normalized one-qubit state, deterministic in seed."""
    return OneQubitState(*_haar_amplitudes(seed, 2))


def _haar_amplitudes(seed, n: int) -> list[complex]:
    """n standard complex Gaussians from ``default_rng(seed)`` (real parts drawn first), normalized.

    ``seed`` may be a Generator, which is read on.  The vector is normalized
    by the one rule of :func:`qgeo.quaternion.squared_norm`, so it does not
    depend on BLAS, the CPU or the Python version.
    """
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(n).tolist(), rng.standard_normal(n).tolist()
    values = [complex(x, y) for x, y in zip(re, im)]
    return divided(values, math.sqrt(squared_norm(values)))


def _json_number(value) -> float | None:
    """A JSON number (not a boolean) as a float, inf if too large; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def decode_number(value, where: str) -> float:
    """A finite real from its JSON form, a number but not a boolean; ``where`` names it in an error."""
    x = _json_number(value)
    if x is None or not math.isfinite(x):
        raise ValueError(f"{where} must be a finite number")
    return x


def decode_pair(value, where: str) -> complex:
    """A complex number from its JSON form ``[re, im]``; ``where`` names it in an error."""
    parts = [_json_number(v) for v in value] if isinstance(value, (list, tuple)) else []
    if len(parts) != 2 or None in parts:
        raise ValueError(f"{where} must be a [re, im] pair of numbers")
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"{where} must be finite")
    return complex(*parts)


def encode_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def decode_amplitudes(value, count: int) -> list[complex]:
    """The ``count`` amplitudes of a JSON amplitude list, as they are: not normalized."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ValueError(f"amplitudes must list exactly {count} [re, im] pairs")
    return [decode_pair(v, f"amplitudes[{k}]") for k, v in enumerate(value)]


def encode_amplitudes(psi: OneQubitState | TwoQubitState) -> list[list[float]]:
    return [encode_pair(getattr(psi, f.name)) for f in fields(psi)]
