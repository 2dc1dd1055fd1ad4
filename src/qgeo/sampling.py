"""The one sampler of Haar-random inputs: counter-based streams of uniforms, read in blocks.

Stream ``(seed, idx)`` is ``Generator(Philox(SeedSequence([seed, idx])))``,
and trial ``t`` owns its ``K`` uniforms at positions ``[K t, K t + K)``.  A
block of trials is one ``Generator.random`` call at counter offset ``K t /
4`` (Philox yields four 64-bit words per counter step), so a trial's draws do
not depend on which block reads them.  ``qgeo verify`` reads seed-space index
``idx`` of its rows in blocks; the public samplers of :mod:`qgeo.states` and
:mod:`qgeo.local_unitary` read one trial, and ``qgeo sample`` reads stream
``(seed, 0)``, so each of them gives what a block read gives for that trial.

A Haar-random unit vector of C^n takes 2n - 1 uniforms: its squared moduli
are the spacings of n - 1 of them, sorted by a compare-exchange network, and
its phases are ``2 pi u`` of the other n (Devroye, *Non-Uniform Random
Variate Generation*, 1986, ch. V).  On the ``2**-53`` grid of
``Generator.random`` the spacings are exact and add up to exactly 1, and
``sqrt`` is correctly rounded; ``(cos, sin)(2 pi u)`` are fdlibm's
polynomial kernels written out in array operations that are each correctly
rounded or exact (``+ - *``, ``rint`` and selections).  So the rows are unit
vectors to about 1e-15 with no normalization, and they round alike under
every libc and every instruction set numpy dispatches to, whose own ``cos``
and ``sin`` round differently on some inputs.

This module imports nothing of qgeo, so the scalar modules may use it
without the block layer.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Uniforms per trial, a multiple of Philox's four words per counter step.
# Slots 0-6: the state's 3 spacing and 4 phase uniforms (a one-qubit state
# uses 0-2); slot 8: the rotation angle; slots 9-11: the SU(2) pair's spacing
# and 2 phases; slots 7 and 12-15: spare.
K = 16
_ANGLE, _SU2 = 8, 9

_TWO_PI = 2.0 * math.pi


def uniforms(seed: int, idx: int, start: int, stop: int) -> np.ndarray:
    """The ``(stop - start, K)`` uniforms of trials ``[start, stop)`` of stream ``(seed, idx)``.

    Each argument must be an integer (``operator.index``), where numpy alone
    would read, say, a list seed as another stream; a negative seed raises
    numpy's ``ValueError``.
    """
    if not 0 <= operator.index(start) <= operator.index(stop):
        raise ValueError(f"trials [{start}, {stop}) are not a range of non-negative integers")
    bitgen = np.random.Philox(np.random.SeedSequence([operator.index(seed), operator.index(idx)]))
    bitgen.advance(start * (K // 4))
    return np.random.Generator(bitgen).random((stop - start, K))


# fdlibm's coefficients (k_sin.c, k_cos.c); each decimal is exact as a double.
_S1, _S2, _S3, _S4, _S5, _S6 = (
    -1.66666666666666324348e-01,
    8.33333333332248946124e-03,
    -1.98412698298579493134e-04,
    2.75573137070700676789e-06,
    -2.50507602534068634195e-08,
    1.58969099521155010221e-10,
)
_C1, _C2, _C3, _C4, _C5, _C6 = (
    4.16666666666666019037e-02,
    -1.38888888888741095749e-03,
    2.48015872894767294178e-05,
    -2.75573143513906633035e-07,
    2.08757232129817482790e-09,
    -1.13596475577881948265e-11,
)
# pi/2 = _PIO2_HI + _PIO2_LO to about 2**-106 relative.
_PIO2_HI, _PIO2_LO = math.pi / 2, 6.123233995736766e-17


def _veltkamp(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_PIO2_H, _PIO2_L = _veltkamp(_PIO2_HI)
# Quadrant n mod 4 of 2 pi u: (cos, sin) = (c, s), (-s, c), (-c, -s), (s, -c).
_ODD = np.array([False, True, False, True])
_COS_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_SIN_SIGN = np.array([1.0, 1.0, -1.0, -1.0])

# The helpers below evaluate their formulas operation by operation in the
# order written, each with ``out=`` into a buffer whose value is no longer
# needed, so that few block-sized arrays are alive at once.  ``+`` and ``*``
# commute in IEEE arithmetic, so ``z * x`` may be stored as ``x *= z``.


def _times_pio2(r):
    """r pi/2 as ``hi + lo``: Dekker's exact product with _PIO2_HI, plus r _PIO2_LO.

    With r = rh + rl split by :func:`_veltkamp`, ``lo`` is (((rh _PIO2_H - hi)
    + rh _PIO2_L) + rl _PIO2_H) + rl _PIO2_L + r _PIO2_LO, summed in that order.
    """
    hi = r * _PIO2_HI
    rh, rl = _veltkamp(r)
    lo = rh * _PIO2_H
    lo -= hi
    rh *= _PIO2_L
    lo += rh
    np.multiply(rl, _PIO2_H, out=rh)
    lo += rh
    rl *= _PIO2_L
    lo += rl
    np.multiply(r, _PIO2_LO, out=rl)
    lo += rl
    return hi, lo


def _kernel_sin(x, y):
    """sin(x + y) for |x| <= pi/4 and y the tail of x: fdlibm's ``__kernel_sin``.

    With z = x x, w = z z and zx = z x: x - ((z (0.5 y - zx poly) - y) -
    zx _S1), where poly = _S2 + z (_S3 + z _S4) + z w (_S5 + z _S6).
    """
    z = x * x
    w = z * z
    zx = z * x
    poly = z * _S4
    poly += _S3
    poly *= z
    poly += _S2
    w *= z
    t = z * _S6
    t += _S5
    w *= t
    poly += w
    poly *= zx
    np.multiply(y, 0.5, out=t)
    t -= poly
    t *= z
    t -= y
    zx *= _S1
    t -= zx
    return np.subtract(x, t, out=t)


def _kernel_cos(x, y):
    """cos(x + y) for |x| <= pi/4 and y the tail of x: fdlibm's ``__kernel_cos``.

    With z = x x, w = z z, hz = 0.5 z and one_hz = 1 - hz: one_hz + (((1 -
    one_hz) - hz) + (z poly - x y)), where poly = z (_C1 + z (_C2 + z _C3)) +
    w w (_C4 + z (_C5 + z _C6)).
    """
    z = x * x
    w = z * z
    poly = z * _C3
    poly += _C2
    poly *= z
    poly += _C1
    poly *= z
    w *= w
    t = z * _C6
    t += _C5
    t *= z
    t += _C4
    w *= t
    poly += w
    hz = np.multiply(z, 0.5, out=w)
    one_hz = np.subtract(1.0, hz, out=t)
    poly *= z
    np.multiply(x, y, out=z)
    poly -= z
    np.subtract(1.0, one_hz, out=z)
    z -= hz
    z += poly
    return np.add(one_hz, z, out=z)


def _cos_sin_2pi(u: np.ndarray):
    """(cos, sin) of 2 pi u, within 1 ulp.

    The reduction is made on u itself: with n = rint(4u), ``r = 4u - n`` is
    exact and lies in [-1/2, 1/2], and x = r pi/2 is formed as a pair
    ``hi + lo``.  The kernels are fdlibm's in the branch-free form of
    FreeBSD's msun.  Quadrant n mod 4 then swaps and negates them, so
    quadrant points are exact: u = 1/4 gives (-0.0, 1.0).
    """
    r = np.multiply(u, 4.0)
    n = np.rint(r)
    r -= n
    q = n.astype(np.intp) & 3
    x, y = _times_pio2(r)
    del n, r  # before the kernels, whose buffers are the peak
    sin, cos = _kernel_sin(x, y), _kernel_cos(x, y)
    del x, y
    odd = _ODD[q]
    return np.where(odd, sin, cos) * _COS_SIGN[q], np.where(odd, cos, sin) * _SIN_SIGN[q]


# Compare-exchange networks that sort 1 or 3 columns (Knuth, TAOCP 5.3.4).
_SORTING_NETWORK = {1: (), 3: ((0, 1), (1, 2), (0, 1))}


def _spacings(cuts: np.ndarray, out: np.ndarray) -> None:
    """The spacings of each row of ``cuts``, sorted, against 0 and 1, written to ``out``.

    ``out`` has one column more than ``cuts``.  The cuts are sorted in
    place by a compare-exchange network, then column k becomes
    ``edge[k] - edge[k - 1]`` (edge[-1] = 0 leaves column 0 as it is) and
    the last column ``1 - edge[-1]``.  ``min`` and ``max`` are exact and
    ``-`` is correctly rounded, so these are the bits that numpy's sort of
    the rows followed by its differences with 0 prepended and 1 appended
    give, ties included.
    """
    k = cuts.shape[1]
    edges, last = out[:, :k], out[:, k]
    edges[...] = cuts
    for i, j in _SORTING_NETWORK[k]:
        np.minimum(edges[:, i], edges[:, j], out=last)
        np.maximum(edges[:, i], edges[:, j], out=edges[:, j])
        edges[:, i] = last
    np.subtract(1.0, edges[:, k - 1], out=last)
    for i in range(k - 1, 0, -1):
        edges[:, i] -= edges[:, i - 1]


def haar_rows(u: np.ndarray, n: int) -> np.ndarray:
    """Haar-random unit rows of C^n from the first 2n - 1 uniform columns.

    The squared moduli are the spacings of columns 0 to n - 2, sorted by a
    compare-exchange network, against 0 and 1; the phases are 2 pi times
    the next n columns.
    """
    cos, sin = _cos_sin_2pi(u[:, n - 1 : 2 * n - 1])  # first: its temporaries are the peak
    rows = np.empty((len(u), n), dtype=complex)
    moduli = rows.real
    _spacings(u[:, : n - 1], moduli)
    np.sqrt(moduli, out=moduli)
    np.multiply(moduli, sin, out=rows.imag)
    moduli *= cos
    return rows


def local_unitary_params(u: np.ndarray):
    """(theta, a, b) from trial uniforms: theta uniform on [0, 2 pi), (a, b) Haar on SU(2)."""
    ab = haar_rows(u[:, _SU2:], 2)
    return _TWO_PI * u[:, _ANGLE], ab[:, 0], ab[:, 1]
