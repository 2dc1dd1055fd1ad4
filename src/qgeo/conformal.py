"""Conformal maps from qubit states to the extended quaternion line.

A one-qubit state lands on the complex line, the quaternions z + 0*j
(:func:`embed_complex`): it is the extended complex plane of Lee et al., with
the quaternion line's point at infinity and quotient rule.
"""

from __future__ import annotations

import numpy as np

from .quaternion import (
    INFINITY,
    ExtendedQuaternion,
    Quaternion,
    _abs2,
    _s4_coords,
    left_quotient,
    right_quotient,
)
from .states import OneQubitState, Quaterbit, TwoQubitState, concurrence_term, schmidt_term


def conformal_map_one_qubit(psi: OneQubitState) -> ExtendedQuaternion:
    """Quotient a1 / a2 on the complex line of the extended quaternion line.

    The quotient is :func:`qgeo.quaternion.right_quotient` of the embedded
    amplitudes: a2 = 0 maps to INFINITY.
    """
    return right_quotient(embed_complex(psi.a1), embed_complex(psi.a2))


def conformal_map(qb: Quaterbit) -> ExtendedQuaternion:
    """Right quotient q1 * q2**-1 on the extended quaternion line.

    The quotient is :func:`qgeo.quaternion.right_quotient`.  The image is
    invariant under right multiplication of both components by any nonzero
    quaternion, so it only depends on the right-quaternion line spanned by
    the spinor.
    """
    return right_quotient(qb.q1, qb.q2)


def conformal_map_dual(qb: Quaterbit) -> ExtendedQuaternion:
    """Left quotient q2**-1 * q1, the conformal map of the dual (bra) side.

    Applying it to the component-wise conjugated spinor returns the
    quaternion conjugate of :func:`conformal_map` of the original.
    """
    return left_quotient(qb.q1, qb.q2)


def schmidt_concurrence_form(psi: TwoQubitState) -> tuple[ExtendedQuaternion, float]:
    """Conformal image written as (S + C*j) / |q2|^2, paired with |q2|^2.

    S and C are the Schmidt and concurrence terms of the state.  When q2
    vanishes the image is INFINITY.  The finite branch coincides with
    ``conformal_map(quaternionify(psi))`` and provides an independent
    formula for cross-checking.
    """
    n2 = _abs2(psi.gamma) + _abs2(psi.delta)
    return fraction_point(schmidt_term(psi), concurrence_term(psi), n2), n2


def fraction_point(z1: complex, z2: complex, d: float) -> ExtendedQuaternion:
    """The point (z1 + z2*j) / d for a real d: INFINITY where d <= 0."""
    return INFINITY if d <= 0 else Quaternion(z1 / d, z2 / d)


def inverse_stereographic(p: ExtendedQuaternion) -> np.ndarray:
    """Chart of the extended quaternion line on the unit 4-sphere.

    A finite q = (x0, x1, x2, x3) maps to
    (2*x0, 2*x1, 2*x2, 2*x3, |q|^2 - 1) / (|q|^2 + 1), INFINITY to the north
    pole (0, 0, 0, 0, 1).  Injective; the chordal metric is the Euclidean
    distance between images.
    """
    return np.array(_s4_coords(p))


def embed_complex(z: complex) -> Quaternion:
    """The complex number z as the quaternion z + 0*j."""
    return Quaternion(complex(z), 0j)
