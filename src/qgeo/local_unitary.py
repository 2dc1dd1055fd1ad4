"""Local unitary subgroups of Sp(2), their complex and quaternionic actions.

Two one-parameter families are covered: rotation-on-first-qubit with SU(2) on
the second ("so2xsu2"), and SU(2)-on-first with rotation on the second
("su2xso2").  Both are a pair of SU(2) factors, one per qubit (the fields
of :class:`LocalUnitary`), which give one complex action on amplitudes
(:func:`apply_cb`, written out in interpreter arithmetic; :func:`complex_form`
is its 4x4 matrix) and one equivalent quaternionic spinor action; the module also
provides the membership tests that characterize Sp(2) in both the
quaternionic and the complexified pictures, and the one codec of the JSON
forms of local unitaries and SU(2) elements (transform files, worst cases).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import sampling
from .quaternion import Quaternion, _quaternion, squared_norm
from .states import (
    NORMALIZATION_TOL, OneQubitState, Quaterbit, TwoQubitState, _positive, decode_number, decode_pair, encode_pair,
)


class Variant(str, Enum):
    """Which tensor factor carries the rotation and which the SU(2) element."""

    SO2_X_SU2 = "so2xsu2"
    SU2_X_SO2 = "su2xso2"

    def order(self, rot, su2):
        """The rotation and SU(2) factors in (first-qubit, second-qubit) order.

        The one place that decides which factor acts on which qubit, for
        single factors and for arrays of them alike.
        """
        return (rot, su2) if self is Variant.SO2_X_SU2 else (su2, rot)


@dataclass(frozen=True, slots=True, init=False)
class SU2Element:
    """SU(2) element with matrix rows (a, b) and (-conj(b), conj(a)).

    ``a`` and ``b`` are coerced to ``complex``, must be finite and have
    ``squared_norm`` within ``NORMALIZATION_TOL`` of 1; each is checked and
    stored once, in ``__init__``.
    """

    a: complex
    b: complex

    def __init__(self, a: complex, b: complex):
        a, b = complex(a), complex(b)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError("SU(2) parameters must be finite")
        norm_sq = squared_norm((a, b))
        if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"|a|^2 + |b|^2 must be 1, got {norm_sq!r}")
        _set_su2_a(self, a)
        _set_su2_b(self, b)

    @property
    def matrix(self) -> np.ndarray:
        return _factor_matrix(self.a, self.b)


@dataclass(frozen=True, slots=True, init=False)
class SO2Element:
    """Plane rotation by theta, matrix ((cos, sin), (-sin, cos)).

    ``theta`` is coerced to ``float`` and must be finite; it is checked and
    stored once, in ``__init__``.
    """

    theta: float

    def __init__(self, theta: float):
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError("rotation angle must be finite")
        _set_so2_theta(self, theta)

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, s], [-s, c]])


_set_su2_a, _set_su2_b = SU2Element.a.__set__, SU2Element.b.__set__
_set_so2_theta = SO2Element.theta.__set__


@dataclass(frozen=True, slots=True, init=False)
class LocalUnitary:
    """A separable two-qubit unitary: its variant, its angle and the factors it computes once.

    ``(a1, b1)`` and ``(a2, b2)`` are the first and second qubit's SU(2) factors, each
    the pair (a, b) of the matrix rows (a, b), (-conj(b), conj(a)): the rotation
    (cos(theta), sin(theta)) and the SU(2) element's (a, b), in :meth:`Variant.order`.
    """

    variant: Variant
    theta: float
    a1: complex
    b1: complex
    a2: complex
    b2: complex

    def __init__(self, variant: Variant, rot: SO2Element, su2: SU2Element):
        if not isinstance(variant, Variant):
            variant = Variant(variant)
        if not isinstance(rot, SO2Element):
            raise TypeError(f"rot must be an SO2Element, got {type(rot).__name__}")
        if not isinstance(su2, SU2Element):
            raise TypeError(f"su2 must be an SU2Element, got {type(su2).__name__}")
        theta = rot.theta
        (a1, b1), (a2, b2) = variant.order((complex(math.cos(theta)), complex(math.sin(theta))), (su2.a, su2.b))
        _set_variant(self, variant)
        _set_theta(self, theta)
        _set_a1(self, a1)
        _set_b1(self, b1)
        _set_a2(self, a2)
        _set_b2(self, b2)

    @property
    def rot(self) -> SO2Element:
        """The rotation it was built from."""
        return SO2Element(self.theta)

    @property
    def su2(self) -> SU2Element:
        """The SU(2) element it was built from (:meth:`Variant.order` undoes itself)."""
        return SU2Element(*self.variant.order((self.a1, self.b1), (self.a2, self.b2))[1])


_set_variant, _set_theta = LocalUnitary.variant.__set__, LocalUnitary.theta.__set__
_set_a1, _set_b1 = LocalUnitary.a1.__set__, LocalUnitary.b1.__set__
_set_a2, _set_b2 = LocalUnitary.a2.__set__, LocalUnitary.b2.__set__


def _fields(doc, names: tuple[str, ...]) -> list:
    """The values of ``names`` in a JSON object; a KeyError names the first missing one."""
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return [doc[name] for name in names]


def decode_su2(doc) -> tuple[complex, complex]:
    """(a, b) of the JSON form of an SU(2) element, as they are: not normalized."""
    a, b = _fields(doc, ("a", "b"))
    return decode_pair(a, "a"), decode_pair(b, "b")


def decode_transform(doc) -> tuple[Variant, float, complex, complex]:
    """(variant, theta, a, b) of the JSON form of a local unitary, as they are: not normalized."""
    variant, theta, _, _ = _fields(doc, ("variant", "theta", "a", "b"))
    if variant not in [v.value for v in Variant]:
        raise ValueError(f"variant must be 'so2xsu2' or 'su2xso2', got {variant!r}")
    return (Variant(variant), decode_number(theta, "theta"), *decode_su2(doc))


def encode_transform(t: LocalUnitary | SU2Element) -> dict:
    """The JSON form of a local unitary or of an SU(2) element."""
    if isinstance(t, SU2Element):
        return {"a": encode_pair(t.a), "b": encode_pair(t.b)}
    return {"variant": t.variant.value, "theta": t.theta, **encode_transform(t.su2)}


def _factor_matrix(a: complex, b: complex) -> np.ndarray:
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def _require_variant(u: LocalUnitary, variant: Variant, op: str) -> None:
    if u.variant is not variant:
        raise ValueError(f"{op} requires variant {variant.value!r}, got {u.variant.value!r}")


def complex_form(u: LocalUnitary) -> np.ndarray:
    """The 4x4 complex form, the Kronecker product of the first and second factor."""
    return np.kron(_factor_matrix(u.a1, u.b1), _factor_matrix(u.a2, u.b2))


def _su2_action(a: complex, b: complex, x: complex, y: complex) -> tuple[complex, complex]:
    """The matrix with rows (a, b), (-conj(b), conj(a)) on the column (x, y)."""
    return a * x + b * y, -b.conjugate() * x + a.conjugate() * y


def apply_cb(u: LocalUnitary, psi: TwoQubitState) -> TwoQubitState:
    """The complex form F (x) G on the amplitudes, in interpreter arithmetic.

    With the amplitude matrix Psi = ((alpha, beta), (gamma, delta)), whose
    rows are indexed by the first qubit, the result is F Psi G^T: the second
    factor G acts on each row first, then the first factor F on each column.
    That is 16 complex products and 8 sums in one fixed order, so the result
    does not depend on BLAS or the CPU, and it rounds otherwise than
    :func:`apply_B_quaterbit`, which applies F first.
    """
    a, b, a2, b2 = u.a1, u.b1, u.a2, u.b2
    c, d, c2, d2 = -b.conjugate(), a.conjugate(), -b2.conjugate(), a2.conjugate()
    alpha, beta, gamma, delta = psi.alpha, psi.beta, psi.gamma, psi.delta
    # Each pair is _su2_action written out: G on the rows, then F on the columns.
    alpha, beta = a2 * alpha + b2 * beta, c2 * alpha + d2 * beta
    gamma, delta = a2 * gamma + b2 * delta, c2 * gamma + d2 * delta
    alpha, gamma = a * alpha + b * gamma, c * alpha + d * gamma
    beta, delta = a * beta + b * delta, c * beta + d * delta
    return type(psi)._make((alpha, beta, gamma, delta))


def apply_su2(a: SU2Element, psi: OneQubitState) -> OneQubitState:
    """One-qubit action of an SU(2) element on the amplitude pair."""
    return type(psi)(*_su2_action(a.a, a.b, psi.a1, psi.a2))


def apply_B_quaterbit(u: LocalUnitary, qb: Quaterbit) -> Quaterbit:
    """Spinor action: the first factor acts from the left, the second from the right.

    The entries of the first factor multiply (q1, q2) from the left as
    complex scalars, and the unit quaternion a2 - conj(b2)*j of the second
    factor (a2, b2) multiplies each component from the right.
    """
    a, b = u.a1, u.b1
    right = type(qb.q1)(u.a2, -u.b2.conjugate())
    return Quaterbit(
        (a * qb.q1 + b * qb.q2) * right,
        ((-b.conjugate()) * qb.q1 + a.conjugate() * qb.q2) * right,
    )


@dataclass(frozen=True, slots=True, init=False)
class QuatMat2:
    """2x2 matrix with quaternion entries."""

    m11: Quaternion
    m12: Quaternion
    m21: Quaternion
    m22: Quaternion

    def __init__(self, m11: Quaternion, m12: Quaternion, m21: Quaternion, m22: Quaternion):
        _set_m11(self, m11)
        _set_m12(self, m12)
        _set_m21(self, m21)
        _set_m22(self, m22)

    @classmethod
    def identity(cls) -> QuatMat2:
        one = Quaternion(1 + 0j, 0j)
        zero = Quaternion(0j, 0j)
        return cls(one, zero, zero, one)

    def __matmul__(self, other: QuatMat2) -> QuatMat2:
        if not isinstance(other, QuatMat2):
            return NotImplemented
        return QuatMat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __neg__(self) -> QuatMat2:
        return QuatMat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def dagger(self) -> QuatMat2:
        """Conjugate transpose: entry (i, j) becomes conj(m_ji)."""
        return QuatMat2(
            self.m11.conjugate(),
            self.m21.conjugate(),
            self.m12.conjugate(),
            self.m22.conjugate(),
        )

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.m11, self.m12, self.m21, self.m22)


_set_m11, _set_m12 = QuatMat2.m11.__set__, QuatMat2.m12.__set__
_set_m21, _set_m22 = QuatMat2.m21.__set__, QuatMat2.m22.__set__


def quat_matrix(u: LocalUnitary) -> QuatMat2:
    """Quaternionic 2x2 matrix of a local unitary.

    The entries are F_ij * (a2 - b2*j): F is the first factor's matrix,
    whose complex entries act as left factors, and (a2, b2) the second
    factor.  For so2xsu2, where F is real, :func:`complexify` of it is
    exactly :func:`complex_form`.
    """
    a, b, a2, nb2 = u.a1, u.b1, u.a2, -u.b2
    c, d = -b.conjugate(), a.conjugate()
    return QuatMat2(
        _quaternion(a * a2, a * nb2),
        _quaternion(b * a2, b * nb2),
        _quaternion(c * a2, c * nb2),
        _quaternion(d * a2, d * nb2),
    )


J_METRIC = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])


def sp2_check_quaternionic(m: QuatMat2, tol: float) -> bool:
    """Membership test M^dagger M = I, entry-wise within tol."""
    _positive(tol)
    d = m.dagger() @ m
    ident = QuatMat2.identity()
    return all(abs(x - y) < tol for x, y in zip(d.entries(), ident.entries()))


def sp2_check_complex(u: np.ndarray, tol: float) -> bool:
    """Membership test in the 4x4 picture: unitarity plus U J U^T = J."""
    _positive(tol)
    u = np.asarray(u, dtype=complex)
    unitary = np.max(np.abs(u.conjugate().T @ u - np.eye(4))) < tol
    preserves = np.max(np.abs(u @ J_METRIC @ u.T - J_METRIC)) < tol
    return bool(unitary and preserves)


def complexify(m: QuatMat2) -> np.ndarray:
    """Replace each entry z1 + z2*j by the 2x2 block ((z1, -z2), (conj(z2), conj(z1))).

    This is the injective algebra map from quaternionic to complex matrices:
    it preserves sums, products, and conjugate transposes, sends the
    quaternion scalar matrix diag(j, j) to the metric J, and its image is
    exactly the set of U with J U J^-1 = conj(U).
    """
    out = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(((m.m11, m.m12), (m.m21, m.m22))):
        for j, q in enumerate(row):
            out[2 * i, 2 * j] = q.z1
            out[2 * i, 2 * j + 1] = -q.z2
            out[2 * i + 1, 2 * j] = q.z2.conjugate()
            out[2 * i + 1, 2 * j + 1] = q.z1.conjugate()
    return out


def is_quaternionic_complex_matrix(u: np.ndarray, tol: float) -> bool:
    """True when J U J^-1 = conj(U) within tol, i.e. U complexifies a quaternion matrix."""
    _positive(tol)
    u = np.asarray(u, dtype=complex)
    # J^2 = -I, so J^-1 = -J.
    return bool(np.max(np.abs(J_METRIC @ u @ (-J_METRIC) - u.conjugate())) < tol)


def random_local_unitary(variant: Variant, seed: int, idx: int = 0, trial: int = 0) -> LocalUnitary:
    """Trial ``trial`` of stream ``(seed, idx)``, as ``qgeo verify`` draws it: theta uniform on
    [0, 2*pi), then (a, b) Haar on SU(2).  The arguments are non-negative integers.
    """
    theta, a, b = sampling.local_unitary_params(sampling.uniforms(seed, idx, trial, trial + 1))
    return LocalUnitary(Variant(variant), SO2Element(theta[0]), SU2Element(a[0], b[0]))


def random_su2(seed: int, idx: int = 0, trial: int = 0) -> SU2Element:
    """The Haar-random SU(2) element of :func:`random_local_unitary`'s trial."""
    _, a, b = sampling.local_unitary_params(sampling.uniforms(seed, idx, trial, trial + 1))
    return SU2Element(a[0], b[0])
