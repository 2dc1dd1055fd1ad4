"""Quaternion arithmetic on complex pairs, plus the extended quaternion line."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_TINY = 2.0**-600  # scales a quaternion whose |q|^2 overflows (1 / _TINY: underflows) into range, exactly
_NORMAL = 2.0**-1022  # the least normal float: a |q|^2 below it has lost bits


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


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, z1: complex, z2: complex):
        z1, z2 = complex(z1), complex(z2)
        if not (_isfinite(z1) and _isfinite(z2)):
            raise _not_finite(z1, z2)
        _set_z1(self, z1)
        _set_z2(self, z2)

    @classmethod
    def from_reals(cls, x0: float, x1: float, x2: float, x3: float) -> Quaternion:
        """Build x0 + x1*i + x2*j + x3*k from four real coefficients."""
        return cls(complex(x0, x1), complex(x2, x3))

    def as_reals(self) -> tuple[float, float, float, float]:
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    def __add__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return _quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return _quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self) -> Quaternion:
        return _quaternion(-self.z1, -self.z2)

    def __mul__(self, other) -> Quaternion:
        # (p1 + p2 j)(q1 + q2 j) = (p1 q1 - p2 conj(q2)) + (p1 q2 + p2 conj(q1)) j
        if isinstance(other, Quaternion):
            q1, q2 = other.z1, other.z2
        elif isinstance(other, (int, float, complex)):
            q1, q2 = complex(other), 0j
        else:
            return NotImplemented
        p1, p2 = self.z1, self.z2
        return _quaternion(p1 * q1 - p2 * q2.conjugate(), p1 * q2 + p2 * q1.conjugate())

    def __rmul__(self, other) -> Quaternion:
        # Scalar written on the left multiplies on the left.
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return _quaternion(c * self.z1, c * self.z2)
        return NotImplemented

    def conjugate(self) -> Quaternion:
        return _quaternion(self.z1.conjugate(), -self.z2)

    def norm_sq(self) -> float:
        z1, z2 = self.z1, self.z2  # _abs2(z1) + _abs2(z2), written out
        return (z1.real * z1.real + z1.imag * z1.imag) + (z2.real * z2.real + z2.imag * z2.imag)

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> Quaternion:
        """Two-sided inverse conj(q) / |q|^2; raises where it is not finite: q = 0 or |q| < ~5.6e-309."""
        return _quaternion(*self._inverse_parts())

    def _inverse_parts(self) -> tuple[complex, complex]:
        n = self.norm_sq()
        if _NORMAL <= n < math.inf:  # each part is at most n ** -0.5 < 2**511
            return self.z1.conjugate() / n, -self.z2 / n
        if self.z1 or self.z2:  # |q * s|^2 is normal for s = 2**-600 (overflow) or 2**600
            s = _TINY if n == math.inf else 1 / _TINY
            z1, z2 = divided((self.z1, self.z2), 1 / s)  # invert q * s, then scale by s, part by part
            n = _abs2(z1) + _abs2(z2)
            w1, w2 = divided((z1.conjugate() / n, -z2 / n), 1 / s)
            if _isfinite(w1) and _isfinite(w2):  # else |q| is below 1 / the largest float
                return w1, w2
        raise ZeroDivisionError("quaternion has no finite inverse")

    # The compound operations below compute on the parts, in the order and
    # with the roundings of the operators they compose, and build only their
    # result.  Each raises what the composed expression raises.

    def _over(self, q: Quaternion) -> Quaternion:
        """self * q**-1."""
        c1, c2 = q._inverse_parts()
        p1, p2 = self.z1, self.z2
        return _quaternion(p1 * c1 - p2 * c2.conjugate(), p1 * c2 + p2 * c1.conjugate())

    def _moebius(self, m) -> ExtendedQuaternion:
        """(self * m.m11 + m.m12) * (self * m.m21 + m.m22)**-1 for a QuatMat2 m, as
        ``right_quotient(self * m.m11 + m.m12, self * m.m21 + m.m22)``."""
        p1, p2, a, b, c, d = self.z1, self.z2, m.m11, m.m12, m.m21, m.m22
        # The two products and sums, written out: numerator n, then denominator d.
        q1, q2 = a.z1, a.z2
        n1, n2 = p1 * q1 - p2 * q2.conjugate() + b.z1, p1 * q2 + p2 * q1.conjugate() + b.z2
        q1, q2 = c.z1, c.z2
        d1, d2 = p1 * q1 - p2 * q2.conjugate() + d.z1, p1 * q2 + p2 * q1.conjugate() + d.z2
        # Then right_quotient: d's _inverse_parts and n's _over.  A non-finite numerator, or
        # a |d|^2 that is not a normal finite float, goes to the composed expression.
        n = (d1.real * d1.real + d1.imag * d1.imag) + (d2.real * d2.real + d2.imag * d2.imag)
        if not (_isfinite(n1) and _isfinite(n2) and _NORMAL <= n < math.inf):
            return right_quotient(self * a + b, self * c + d)
        c1, c2 = d1.conjugate() / n, -d2 / n
        return _quaternion(n1 * c1 - n2 * c2.conjugate(), n1 * c2 + n2 * c1.conjugate())


_isfinite = cmath.isfinite
_new = object.__new__
_set_z1 = Quaternion.z1.__set__
_set_z2 = Quaternion.z2.__set__


def _not_finite(z1: complex, z2: complex) -> ValueError:
    return ValueError(f"quaternion components must be finite, got ({z1!r}, {z2!r})")


def _quaternion(z1: complex, z2: complex) -> Quaternion:
    """The Quaternion (z1, z2) of two complex numbers: the constructor of every result built from them.

    It checks finiteness as ``__init__`` does, with the same error, and skips
    only the ``complex()`` coercion and the ``__init__`` call.
    """
    if not (_isfinite(z1) and _isfinite(z2)):
        raise _not_finite(z1, z2)
    q = _new(Quaternion)
    _set_z1(q, z1)
    _set_z2(q, z2)
    return q


ONE = Quaternion(1 + 0j, 0j)
I = Quaternion(1j, 0j)
J = Quaternion(0j, 1 + 0j)
K = Quaternion(0j, 1j)

# A point of the extended quaternion line: either a Quaternion or INFINITY.
ExtendedQuaternion = Quaternion | AtInfinity


class DegenerateMapError(ZeroDivisionError):
    """Numerator and denominator vanished together: the quotient is indeterminate."""


def _over_zero(p: Quaternion) -> AtInfinity:
    """A numerator p over a denominator with no finite inverse: INFINITY, or
    DegenerateMapError where p has none either."""
    try:
        p._inverse_parts()
    except ZeroDivisionError:
        raise DegenerateMapError("indeterminate quotient: numerator and denominator both zero") from None
    return INFINITY


def right_quotient(p: Quaternion, q: Quaternion) -> ExtendedQuaternion:
    """p * q**-1 on the extended line: INFINITY where q has no finite inverse (:meth:`Quaternion.inverse`).

    Raises DegenerateMapError (a ZeroDivisionError) when p has none either.
    """
    try:
        return p._over(q)
    except ZeroDivisionError:
        return _over_zero(p)


def left_quotient(p: Quaternion, q: Quaternion) -> ExtendedQuaternion:
    """q**-1 * p on the extended line, with the conventions of :func:`right_quotient`."""
    try:
        return q.inverse() * p
    except ZeroDivisionError:
        return _over_zero(p)


def _s4_coords(p: ExtendedQuaternion) -> tuple[float, float, float, float, float]:
    """Inverse stereographic image of an extended quaternion on the unit 4-sphere.

    INFINITY goes to the north pole (0,0,0,0,1) and 0 to the south pole.  A
    point whose |q|^2 overflows (|q| above about 1.34e154) goes next to the
    north pole: u4 is 1.0, the float nearest (|q|^2 - 1) / (|q|^2 + 1), and
    u0..u3 are 2 x / |q|^2 computed on q scaled by 2**-600.
    """
    if p is INFINITY:
        return (0.0, 0.0, 0.0, 0.0, 1.0)
    z1, z2 = p.z1, p.z2
    x0, x1, x2, x3 = z1.real, z1.imag, z2.real, z2.imag
    n = (x0 * x0 + x1 * x1) + (x2 * x2 + x3 * x3)  # p.norm_sq(), written out
    if n == math.inf:
        x = [c * _TINY for c in (x0, x1, x2, x3)]
        n = (x[0] * x[0] + x[1] * x[1]) + (x[2] * x[2] + x[3] * x[3])
        return (*[2.0 * c / n * _TINY for c in x], 1.0)
    d = n + 1.0
    return (2.0 * x0 / d, 2.0 * x1 / d, 2.0 * x2 / d, 2.0 * x3 / d, (n - 1.0) / d)


def chordal_distance(p: ExtendedQuaternion, q: ExtendedQuaternion) -> float:
    """Euclidean distance between 4-sphere images; makes INFINITY an ordinary point.

    Symmetric, non-negative, zero only for equal points, and bounded by 2.
    ``d * d`` added left to right rounds alike under every Python and as
    ``qgeo.batch``'s block metric; ``d ** 2`` (libm ``pow``) and ``sum``
    (compensated since 3.12) do not.
    """
    u0, u1, u2, u3, u4 = _s4_coords(p)
    v0, v1, v2, v3, v4 = _s4_coords(q)
    d0, d1, d2, d3, d4 = u0 - v0, u1 - v1, u2 - v2, u3 - v3, u4 - v4
    return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4)


def squared_norm(values):
    """|v|^2 of complex numbers by the library's one rule: the squares of the
    real parts, then of the imaginary parts, left to right.
    """
    total = 0.0
    for z in values:
        total = total + z.real * z.real
    for z in values:
        total = total + z.imag * z.imag
    return total


def divided(values, n: float) -> list[complex]:
    """Each value divided by n, part by part: before Python 3.14, ``z / n`` turns -0.0 into 0.0."""
    return [complex(z.real / n, z.imag / n) for z in values]


def unit(values) -> list[complex]:
    """``values`` over their norm; ZeroDivisionError where |v|^2 < 2**-1022 (as in ``inverse``), ValueError at inf."""
    n = squared_norm(values)
    if n < _NORMAL:
        raise ZeroDivisionError("cannot normalize a zero vector")
    if n == math.inf:
        raise ValueError("cannot normalize: the squared norm overflows")
    return divided(values, math.sqrt(n))
