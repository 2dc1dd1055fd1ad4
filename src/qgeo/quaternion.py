"""Quaternion arithmetic on complex pairs, plus the extended quaternion line."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

# Squared-norm threshold below which a quaternion counts as zero for inversion.
ZERO_NORM_SQ = 1e-24

# Default absolute tolerance for approximate comparisons.
COMPARE_TOL = 1e-10


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


class AtInfinity:
    """The single point at infinity compactifying the quaternions; there is exactly one instance."""

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = AtInfinity()


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Quaternion q = z1 + z2*j stored as a pair of complex numbers.

    Equivalently q = x0 + x1*i + x2*j + x3*k with z1 = x0 + x1*i and
    z2 = x2 + x3*i.  The defining relations i**2 = j**2 = k**2 = ijk = -1
    reduce in this representation to the single rule j*z == z.conjugate()*j
    for complex z, which the product formula encodes directly.

    Multiplication is non-commutative.  A complex or real scalar ``c`` acts
    from the side it is written on: ``c * q`` is the left product and
    ``q * c`` the right product, and the two generally differ.
    """

    z1: complex
    z2: complex

    def __post_init__(self):
        z1 = complex(self.z1)
        z2 = complex(self.z2)
        if not (cmath.isfinite(z1) and cmath.isfinite(z2)):
            raise ValueError(f"quaternion components must be finite, got ({z1!r}, {z2!r})")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)

    @classmethod
    def from_reals(cls, x0: float, x1: float, x2: float, x3: float) -> Quaternion:
        """Build x0 + x1*i + x2*j + x3*k from four real coefficients."""
        return cls(complex(x0, x1), complex(x2, x3))

    def as_reals(self) -> tuple[float, float, float, float]:
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    @property
    def x0(self) -> float:
        return self.z1.real

    @property
    def x1(self) -> float:
        return self.z1.imag

    @property
    def x2(self) -> float:
        return self.z2.real

    @property
    def x3(self) -> float:
        return self.z2.imag

    def __add__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.z1, -self.z2)

    def __mul__(self, other) -> Quaternion:
        # (p1 + p2 j)(q1 + q2 j) = (p1 q1 - p2 conj(q2)) + (p1 q2 + p2 conj(q1)) j
        if isinstance(other, Quaternion):
            q1, q2 = other.z1, other.z2
        elif isinstance(other, (int, float, complex)):
            q1, q2 = complex(other), 0j
        else:
            return NotImplemented
        p1, p2 = self.z1, self.z2
        return Quaternion(p1 * q1 - p2 * q2.conjugate(), p1 * q2 + p2 * q1.conjugate())

    def __rmul__(self, other) -> Quaternion:
        # Scalar written on the left multiplies on the left.
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return Quaternion(c * self.z1, c * self.z2)
        return NotImplemented

    def conjugate(self) -> Quaternion:
        return Quaternion(self.z1.conjugate(), -self.z2)

    def norm_sq(self) -> float:
        return _abs2(self.z1) + _abs2(self.z2)

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_zero(self) -> bool:
        return self.norm_sq() < ZERO_NORM_SQ

    def inverse(self) -> Quaternion:
        """Two-sided inverse conj(q) / |q|^2; raises on (near-)zero input."""
        n = self.norm_sq()
        if n < ZERO_NORM_SQ:
            raise ZeroDivisionError("inverse of a zero (or sub-threshold) quaternion")
        return Quaternion(self.z1.conjugate() / n, -self.z2 / n)

    def isclose(self, other: Quaternion, tol: float = COMPARE_TOL) -> bool:
        return abs(self.z1 - other.z1) <= tol and abs(self.z2 - other.z2) <= tol


ONE = Quaternion(1 + 0j, 0j)
I = Quaternion(1j, 0j)
J = Quaternion(0j, 1 + 0j)
K = Quaternion(0j, 1j)

# A point of the extended quaternion line: either a Quaternion or INFINITY.
ExtendedQuaternion = Quaternion | AtInfinity


class DegenerateMapError(ZeroDivisionError):
    """Numerator and denominator vanished together: the quotient is indeterminate."""


def _is_pole(p: Quaternion, q: Quaternion) -> bool:
    """Whether p / q is INFINITY (q counts as zero); raises DegenerateMapError on 0/0."""
    if not q.is_zero():
        return False
    if p.is_zero():
        raise DegenerateMapError("indeterminate quotient: numerator and denominator both zero")
    return True


def right_quotient(p: Quaternion, q: Quaternion) -> ExtendedQuaternion:
    """p * q**-1 on the extended line: INFINITY where q counts as zero.

    Raises DegenerateMapError (a ZeroDivisionError) when p counts as zero too.
    """
    if _is_pole(p, q):
        return INFINITY
    return p * q.inverse()


def left_quotient(p: Quaternion, q: Quaternion) -> ExtendedQuaternion:
    """q**-1 * p on the extended line, with the conventions of :func:`right_quotient`."""
    if _is_pole(p, q):
        return INFINITY
    return q.inverse() * p


def _s4_coords(p: ExtendedQuaternion) -> tuple[float, float, float, float, float]:
    """Inverse stereographic image of an extended quaternion on the unit 4-sphere.

    INFINITY goes to the north pole (0,0,0,0,1) and 0 to the south pole.
    """
    if p is INFINITY:
        return (0.0, 0.0, 0.0, 0.0, 1.0)
    n = p.norm_sq()
    d = n + 1.0
    return (2.0 * p.x0 / d, 2.0 * p.x1 / d, 2.0 * p.x2 / d, 2.0 * p.x3 / d, (n - 1.0) / d)


def chordal_distance(p: ExtendedQuaternion, q: ExtendedQuaternion) -> float:
    """Euclidean distance between 4-sphere images; makes INFINITY an ordinary point.

    Symmetric, non-negative, zero only for equal points, and bounded by 2.
    """
    u = _s4_coords(p)
    v = _s4_coords(q)
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def ext_isclose(p: ExtendedQuaternion, q: ExtendedQuaternion, tol: float = COMPARE_TOL) -> bool:
    """Tolerance comparison on the extended line, via the chordal metric."""
    return chordal_distance(p, q) <= tol
