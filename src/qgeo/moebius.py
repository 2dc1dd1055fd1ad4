"""Fractional-linear (Moebius) actions on the extended quaternion line.

Over the quaternions the order of every product matters, so one matrix
induces several inequivalent actions.  The canonical one used throughout,
``apply_moebius_q``, multiplies coefficients on the right and inverts the
denominator on the right:

    F_M(q) = (q*m11 + m12) * (q*m21 + m22)**-1,  F_M(INFINITY) = m11 * m21**-1

with each quotient taken on the extended line by
:func:`qgeo.quaternion.right_quotient`.  This is the unique ordering under
which a common right factor of the matrix entries cancels, which is what
makes the rotation-type local unitaries act through it.  The two
alternative orderings are available behind an explicit selector.  On the
complex line all orderings agree with the complex Moebius map
z -> (a z + b) / (c z + d); the one-qubit checks use the left-coefficient
ordering (:meth:`MoebiusQ.from_su2`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quaternion import (
    INFINITY,
    DegenerateMapError,  # re-exported: raised by the actions below on 0/0
    ExtendedQuaternion,
    _abs2,
    left_quotient,
    right_quotient,
)
from .conformal import embed_complex, inverse_stereographic
from .local_unitary import LocalUnitary, QuatMat2, SU2Element, Variant, _quat_matrix, _require_variant

# MoebiusQ's invertibility threshold on |study_determinant(m)|, the determinant of m in C^4x4.
DET_TOL = 1e-18

# Rows per block of orbit_s4_chunks; bounds the memory of a streamed orbit.
ORBIT_CHUNK = 4096

# Bits of 2*pi kept beyond the integer part of the largest 2*k*theta / (2*pi),
# so that an angle reduced by orbit_angles is off by at most about 2**-90.
_ANGLE_GUARD_BITS = 96


class VariantOrder(Enum):
    """Alternative operand orderings for the quaternionic fractional-linear action."""

    LEFT_DENOMINATOR = "left_denominator"
    LEFT_COEFFICIENTS = "left_coefficients"


def study_determinant(m: QuatMat2) -> float:
    """det of m = (a b; c d) as a 4x4 complex matrix: |a|^2|d|^2 + |b|^2|c|^2 - 2 Re(conj(a) b conj(d) c).

    Evaluated as |w|^2 / |a|^2 with w = |a|^2 d - c conj(a) b, after a row swap if |c| > |a|:
    a singular matrix cancels in w, so its value is rounding squared (Aslaksen, "Quaternionic
    determinants", Math. Intelligencer 18 (1996) 57-65).
    """
    a, b, c, d = m.m11, m.m12, m.m21, m.m22
    na, nc = a.norm_sq(), c.norm_sq()
    if na < nc:
        a, b, c, d, na = c, d, a, b, nc
    a1, a2, b1, b2, c1, c2 = a.z1, a.z2, b.z1, b.z2, c.z1, c.z2
    # conj(a) b, then w, as complex pairs by the product rule of Quaternion.
    x1, x2 = a1.conjugate() * b1 + a2 * b2.conjugate(), a1.conjugate() * b2 - a2 * b1.conjugate()
    w1 = na * d.z1 - (c1 * x1 - c2 * x2.conjugate())
    w2 = na * d.z2 - (c1 * x2 + c2 * x1.conjugate())
    return (_abs2(w1) + _abs2(w2)) / na if na else 0.0


@dataclass(frozen=True, slots=True, init=False)
class MoebiusQ:
    """Quaternionic Moebius map: a 2x2 quaternion matrix whose Study determinant is >= DET_TOL."""

    m: QuatMat2

    def __init__(self, m: QuatMat2):
        det = study_determinant(m)
        if abs(det) < DET_TOL:
            raise ValueError(f"matrix is not invertible: Study determinant {det!r}")
        _set_m(self, m)

    @classmethod
    def identity(cls) -> MoebiusQ:
        return cls(QuatMat2.identity())

    @classmethod
    def from_su2(cls, u: SU2Element) -> MoebiusQ:
        """The SU(2) matrix, rows (a, b) and (-conj(b), conj(a)), on the complex line.

        Under the left-coefficient ordering it maps the complex line to
        itself by the complex Moebius map z -> (a z + b) / (-conj(b) z + conj(a)).
        """
        entries = (u.a, u.b, -u.b.conjugate(), u.a.conjugate())
        return cls(QuatMat2(*map(embed_complex, entries)))


_new = object.__new__
_set_m = MoebiusQ.m.__set__


def apply_moebius_q(f: MoebiusQ, q: ExtendedQuaternion) -> ExtendedQuaternion:
    """Canonical action (q*m11 + m12) * (q*m21 + m22)**-1 on the extended line."""
    m = f.m
    if q is INFINITY:
        return right_quotient(m.m11, m.m21)
    return q._moebius(m)


def apply_moebius_q_variant(
    f: MoebiusQ, q: ExtendedQuaternion, which: VariantOrder
) -> ExtendedQuaternion:
    """Evaluate one of the alternative operand orderings.

    LEFT_DENOMINATOR:   (q*m21 + m22)**-1 * (q*m11 + m12),  infinity -> m21**-1 * m11
    LEFT_COEFFICIENTS:  (m11*q + m12) * (m21*q + m22)**-1,  infinity -> m11 * m21**-1

    The quotients are :func:`qgeo.quaternion.left_quotient` and
    :func:`qgeo.quaternion.right_quotient` respectively.
    """
    m = f.m
    which = VariantOrder(which)
    if which is VariantOrder.LEFT_DENOMINATOR:
        if q is INFINITY:
            return left_quotient(m.m11, m.m21)
        return left_quotient(q._mul_add(m.m11, m.m12), q._mul_add(m.m21, m.m22))
    if q is INFINITY:
        return right_quotient(m.m11, m.m21)
    return right_quotient(m.m11._mul_add(q, m.m12), m.m21._mul_add(q, m.m22))


def compose(f: MoebiusQ, g: MoebiusQ) -> MoebiusQ:
    """Matrix product of the underlying quaternion matrices.

    On matrices of the form (real 2x2) * (common right factor), which covers
    every map produced by :func:`moebius_from_local_unitary`, the product
    realizes functional composition of the canonical actions: applying the
    result equals applying ``g`` then ``f``.  Genuinely noncommuting entries
    admit no such law at all, since the composite of two canonical actions
    involves a value-dependent conjugation and is no longer of the same
    form; composing q -> q*i with q -> q*j yields q -> q*(i*j) while any
    matrix product can only produce q -> q*(j*i) or q -> q*(i*j) uniformly.
    """
    return MoebiusQ(f.m @ g.m)


def moebius_from_local_unitary(u: LocalUnitary) -> MoebiusQ:
    """The Moebius map intertwined with an so2xsu2 local unitary by the conformal map.

    Its matrix is :func:`quat_matrix`, with entries R(theta)_ij * (a - b*j).
    Under the canonical action the right factor (a - b*j) cancels, so the
    induced map on the extended quaternion line depends on theta alone.
    MoebiusQ's invertibility guard is taken in closed form from the factors
    (:func:`_factor_study_determinant`), with MoebiusQ's threshold and error.
    """
    _require_variant(u, Variant.SO2_X_SU2, "moebius_from_local_unitary")
    first, second = u.factors()
    m = _quat_matrix(first, second)
    det = _factor_study_determinant(first, second)
    if det < DET_TOL:
        raise ValueError(f"matrix is not invertible: Study determinant {det!r}")
    f = _new(MoebiusQ)
    _set_m(f, m)
    return f


def _factor_study_determinant(first: tuple[complex, complex], second: tuple[complex, complex]) -> float:
    """study_determinant of the matrix with entries F_ij * p of two factors (a, b) and (a2, b2).

    The Study determinant is multiplicative (Aslaksen 1996), so it is
    |det F|^2 |p|^4 = ((|a|^2 + |b|^2) (|a2|^2 + |b2|^2))^2.
    """
    (a, b), (a2, b2) = first, second
    # Each |x|^2 is _abs2(x), written out.
    s = (a.real * a.real + a.imag * a.imag + (b.real * b.real + b.imag * b.imag)) * (
        a2.real * a2.real + a2.imag * a2.imag + (b2.real * b2.real + b2.imag * b2.imag)
    )
    return s * s


def _pi_fixed(bits: int) -> int:
    """floor(pi * 2**bits) up to 2 units, by Machin's formula in integer arithmetic.

    pi = 16*atan(1/5) - 4*atan(1/239); 16 guard bits absorb the truncation
    of every series term (at most one unit each).
    """
    g = bits + 16

    def atan_inv(x: int) -> int:
        x2 = x * x
        term = total = (1 << g) // x
        n, sign = 1, 1
        while term:
            term //= x2
            n += 2
            sign = -sign
            total += sign * (term // n)
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> 16


def orbit_angles(theta: float, ks: Sequence[int]) -> list[float]:
    """The angles 2*k*theta mod 2*pi, for each integer k >= 0 in ``ks``, as floats.

    Computed exactly from the float ``theta`` (``theta.as_integer_ratio()``)
    in integer arithmetic, against 2*pi carried to as many bits as the
    largest k needs, so no rounding error grows with k or |theta|: each angle
    is the correctly rounded value of a number within about 2**-90 of the
    true reduced angle, in [0, 2*pi).
    """
    num, den = float(theta).as_integer_ratio()
    if not ks:
        return []
    if min(ks) < 0:
        raise ValueError("orbit steps must be non-negative")
    # 2*k*theta < 2**(bits of k + bits of num - bits of den + 2); the guard
    # bits then cover 2*pi's truncation times the number of whole turns.
    bits = max(max(ks).bit_length() + num.bit_length() - den.bit_length() + 2, 0)
    bits += _ANGLE_GUARD_BITS
    den_two_pi = den * (_pi_fixed(bits) << 1)
    den_scaled = den << bits
    return [(((2 * k * num) << bits) % den_two_pi) / den_scaled for k in ks]


def orbit_s4_chunks(u: LocalUnitary, point: ExtendedQuaternion, k0: int, n: int) -> Iterator[np.ndarray]:
    """The 4-sphere rows of :func:`orbit_s4`, in consecutive blocks of at most ORBIT_CHUNK rows.

    A generator: memory stays flat however many steps are requested, and
    nothing is computed (and no argument checked) until the first block is
    drawn.
    """
    _require_variant(u, Variant.SO2_X_SU2, "orbit_s4")
    if k0 < 0 or n < 0:
        raise ValueError(f"orbit steps must be non-negative, got k0={k0}, n={n}")
    theta = u.rot.theta
    u0, u1, u2, u3, u4 = inverse_stereographic(point).tolist()
    # Step k0 + c + j is a rotation by phi_c + phi_j: one exact angle per
    # block start c, one table of in-block offsets j for the whole run.
    offsets = np.array(orbit_angles(theta, range(min(n, ORBIT_CHUNK))))
    cos_j, sin_j = np.cos(offsets), np.sin(offsets)
    for start in range(k0, k0 + n, ORBIT_CHUNK):
        m = min(ORBIT_CHUNK, k0 + n - start)
        (phi,) = orbit_angles(theta, [start])
        c, s = math.cos(phi), math.sin(phi)
        cos_k = c * cos_j[:m] - s * sin_j[:m]
        sin_k = s * cos_j[:m] + c * sin_j[:m]
        rows = np.empty((m, 5))
        rows[:, 0] = cos_k * u0 - sin_k * u4
        rows[:, 1:4] = (u1, u2, u3)
        rows[:, 4] = sin_k * u0 + cos_k * u4
        yield rows


def orbit_s4(u: LocalUnitary, point: ExtendedQuaternion, k0: int, n: int) -> np.ndarray:
    """4-sphere images of the iterates k0, ..., k0 + n - 1 of the map induced by ``u``.

    The map of :func:`moebius_from_local_unitary` depends on theta alone and
    its k-th iterate is the map for rotation k*theta, which on the
    4-sphere chart rotates the (u0, u4) plane by phi_k = 2*k*theta and fixes
    u1, u2, u3:

        u0_k = cos(phi_k)*u0 - sin(phi_k)*u4,  u4_k = sin(phi_k)*u0 + cos(phi_k)*u4

    Row j is therefore the image of k0 + j applications of
    :func:`apply_moebius_q` to ``point``, with an error that does not grow
    with k (see :func:`orbit_angles`).  Returns an (n, 5) array; raises
    ValueError for a su2xso2 transform, as moebius_from_local_unitary does.
    """
    return np.concatenate([np.empty((0, 5)), *orbit_s4_chunks(u, point, k0, n)])
