"""Block evaluation of the verification suite, bit for bit equal to per-trial evaluation.

The report of ``run_suite`` must not depend on how its trials are split into
blocks, so everything here is exact, not approximate:

* Sampling.  Seed-space index ``idx`` reads one counter-based stream,
  ``Generator(Philox(SeedSequence([seed, idx])))``, and trial ``t`` owns its
  ``K`` uniforms at positions ``[K t, K t + K)``.  A block of trials is one
  ``Generator.random`` call at counter offset ``K t / 4`` (Philox yields four
  64-bit words per counter step), so a trial's draws do not depend on which
  block reads them.  A Haar-random unit vector of C^n takes 2n - 1
  uniforms: its squared moduli are the spacings of n - 1 of them, sorted,
  and its phases are ``2 pi u`` of the other n (Devroye, *Non-Uniform Random
  Variate Generation*, 1986, ch. V).  On the ``2**-53`` grid of
  ``Generator.random`` the spacings are exact and add up to exactly 1, and
  ``sqrt`` is correctly rounded; ``(cos, sin)(2 pi u)`` are fdlibm's
  polynomial kernels written out in array operations that are each
  correctly rounded or exact (``+ - *``, ``rint`` and selections).  So the
  rows are unit vectors to about 1e-15 with no normalization, and they
  round alike under every libc and every instruction set numpy dispatches
  to, whose own ``cos`` and ``sin`` round differently on some inputs.
* Arithmetic.  A complex array is split into a pair of float64 arrays
  ``(re, im)``.  CPython evaluates complex products and quotients with fixed
  formulas (``_Py_c_prod``, ``_Py_c_quot``); numpy's complex ufuncs use other
  ones (fused multiply-adds, another division), so the formulas are written
  out here with float64 operations, which round exactly as the interpreter
  does.  Every quotient is by a real number (:func:`div_real`), as in
  ``Quaternion.inverse``.  ``abs`` of a complex is ``hypot`` in both, and
  the chordal metric is one function of floats or arrays for both.  The
  scalar code calls no numpy routine on a trial's inputs: matrix actions and
  the Wootters form are written out in complex ``*`` and ``+`` in one fixed
  order, and so are their mirrors here.  Neither layer calls BLAS, whose
  kernels (and hence roundings) depend on the CPU.

A quaternion is a pair of split complex values ``(z1, z2)``.  Block
functions compute the generic branch of the scalar code only; branch
conditions, such as a denominator below ``ZERO_NORM_SQ``, are returned as
boolean masks so that the caller can hand those trials to the scalar code.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .quaternion import ZERO_NORM_SQ, _chord_sq
from .states import _SIGMA_YY_ENTRIES

# Trials per block.  A block amortizes numpy's per-call cost over its trials,
# and its arrays bound the memory the suite needs whatever the trial count;
# doubling it saves little time and adds to the peak resident set.
BLOCK = 512

# Uniforms per trial, a multiple of Philox's four words per counter step.
# Slots 0-6: the state's 3 spacing and 4 phase uniforms (a one-qubit state
# uses 0-2); slot 8: the rotation angle; slots 9-11: the SU(2) pair's spacing
# and 2 phases; slots 7 and 12-15: spare.
K = 16
_ANGLE, _SU2 = 8, 9

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def uniforms(seed: int, idx: int, start: int, stop: int) -> np.ndarray:
    """The ``(stop - start, K)`` uniforms of trials ``[start, stop)`` of stream ``idx``."""
    bitgen = np.random.Philox(np.random.SeedSequence([seed, idx]))
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


def _times_pio2(r):
    """r pi/2 as ``hi + lo``: Dekker's exact product with _PIO2_HI, plus r _PIO2_LO."""
    hi = r * _PIO2_HI
    rh, rl = _veltkamp(r)
    return hi, (((rh * _PIO2_H - hi) + rh * _PIO2_L) + rl * _PIO2_H) + rl * _PIO2_L + r * _PIO2_LO


def _kernel_sin(x, y):
    """sin(x + y) for |x| <= pi/4 and y the tail of x: fdlibm's ``__kernel_sin``."""
    z = x * x
    w = z * z
    zx = z * x
    poly = _S2 + z * (_S3 + z * _S4) + z * w * (_S5 + z * _S6)
    return x - ((z * (0.5 * y - zx * poly) - y) - zx * _S1)


def _kernel_cos(x, y):
    """cos(x + y) for |x| <= pi/4 and y the tail of x: fdlibm's ``__kernel_cos``."""
    z = x * x
    w = z * z
    poly = z * (_C1 + z * (_C2 + z * _C3)) + w * w * (_C4 + z * (_C5 + z * _C6))
    hz = 0.5 * z
    one_hz = 1.0 - hz
    return one_hz + (((1.0 - one_hz) - hz) + (z * poly - x * y))


def _cos_sin_2pi(u: np.ndarray):
    """(cos, sin) of 2 pi u, within 1 ulp.

    The reduction is made on u itself: with n = rint(4u), ``r = 4u - n`` is
    exact and lies in [-1/2, 1/2], and x = r pi/2 is formed as a pair
    ``hi + lo``.  The kernels are fdlibm's in the branch-free form of
    FreeBSD's msun.  Quadrant n mod 4 then swaps and negates them, so
    quadrant points are exact: u = 1/4 gives (-0.0, 1.0).
    """
    n = np.rint(4.0 * u)
    x, y = _times_pio2(4.0 * u - n)
    sin, cos = _kernel_sin(x, y), _kernel_cos(x, y)
    q = n.astype(np.intp) & 3
    odd = _ODD[q]
    return np.where(odd, sin, cos) * _COS_SIGN[q], np.where(odd, cos, sin) * _SIN_SIGN[q]


def _haar_rows(u: np.ndarray, n: int) -> np.ndarray:
    """Haar-random unit rows of C^n from the first 2n - 1 uniform columns.

    The squared moduli are the spacings of columns 0 to n - 2, sorted,
    against 0 and 1; the phases are 2 pi times the next n columns.
    """
    cos, sin = _cos_sin_2pi(u[:, n - 1 : 2 * n - 1])  # first: its temporaries are the peak
    moduli = np.sqrt(np.diff(np.sort(u[:, : n - 1], axis=1), prepend=0.0, append=1.0, axis=1))
    return join((moduli * cos, moduli * sin))


def haar_states(u: np.ndarray) -> np.ndarray:
    """Haar-random two-qubit amplitude rows from trial uniforms."""
    return _haar_rows(u, 4)


def haar_one_qubit_states(u: np.ndarray) -> np.ndarray:
    """Haar-random one-qubit amplitude rows from trial uniforms."""
    return _haar_rows(u, 2)


def local_unitary_params(u: np.ndarray):
    """(theta, a, b) from trial uniforms: theta uniform on [0, 2 pi), (a, b) Haar on SU(2)."""
    ab = _haar_rows(u[:, _SU2:], 2)
    return _TWO_PI * u[:, _ANGLE], ab[:, 0], ab[:, 1]


# ---------------------------------------------------------------------------
# Interpreter arithmetic on float64 arrays
# ---------------------------------------------------------------------------


def libm(fn, x: np.ndarray) -> np.ndarray:
    """A ``math`` function applied element by element, bit for bit what the scalar code gets."""
    values = np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size)
    return values.reshape(x.shape)


def split(z: np.ndarray):
    return z.real, z.imag


def join(z) -> np.ndarray:
    out = np.empty(np.broadcast(z[0], z[1]).shape, dtype=complex)
    out.real, out.imag = z
    return out


def mul(a, b):
    """Complex product, ``_Py_c_prod``.  A real operand is passed as ``(x, 0.0)``."""
    ar, ai = a
    br, bi = b
    return ar * br - ai * bi, ar * bi + ai * br


def real_mul(x, b):
    """``x * b`` for a real ``x``: CPython promotes it to ``complex(x, 0.0)``."""
    return mul((x, 0.0), b)


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def neg(a):
    return -a[0], -a[1]


def conj(a):
    return a[0], -a[1]


def abs2(a):
    """The library's ``_abs2``: re*re + im*im."""
    return a[0] * a[0] + a[1] * a[1]


def cabs(a):
    """``abs`` of a complex."""
    return np.hypot(a[0], a[1])


def div_real(a, x):
    """``a / x`` for a real ``x``: CPython divides by ``complex(x, 0.0)``."""
    ratio = 0.0 / x
    denom = x + 0.0 * ratio
    return (a[0] + a[1] * ratio) / denom, (a[1] - a[0] * ratio) / denom


def max2(a, b):
    """Python's ``max(a, b)``: the first unless the second is greater."""
    return np.where(b > a, b, a)


# ---------------------------------------------------------------------------
# Quaternions: pairs (z1, z2) of split complex values
# ---------------------------------------------------------------------------


def qadd(p, q):
    return add(p[0], q[0]), add(p[1], q[1])


def qsub(p, q):
    return sub(p[0], q[0]), sub(p[1], q[1])


def qmul(p, q):
    """``Quaternion.__mul__``: (p1 q1 - p2 conj(q2)) + (p1 q2 + p2 conj(q1)) j."""
    p1, p2 = p
    q1, q2 = q
    return sub(mul(p1, q1), mul(p2, conj(q2))), add(mul(p1, q2), mul(p2, conj(q1)))


def qscale(c, q):
    """``c * q`` for a complex scalar ``c``, ``Quaternion.__rmul__``."""
    return mul(c, q[0]), mul(c, q[1])


def qnorm_sq(q):
    return abs2(q[0]) + abs2(q[1])


def qabs(q):
    return np.sqrt(qnorm_sq(q))


def qinverse(q):
    n = qnorm_sq(q)
    return div_real(conj(q[0]), n), div_real(neg(q[1]), n)


def right_quotient(p, q):
    """``p * q**-1`` and the mask of rows where ``q`` counts as zero (scalar branch)."""
    return qmul(p, qinverse(q)), qnorm_sq(q) < ZERO_NORM_SQ


def _s4_coords(p):
    n = qnorm_sq(p)
    d = n + 1.0
    (x0, x1), (x2, x3) = p
    return (2.0 * x0 / d, 2.0 * x1 / d, 2.0 * x2 / d, 2.0 * x3 / d, (n - 1.0) / d)


def chordal_distance(p, q):
    """``chordal_distance`` of two finite quaternion rows."""
    return np.sqrt(_chord_sq(_s4_coords(p), _s4_coords(q)))


# ---------------------------------------------------------------------------
# The library's operations on blocks
# ---------------------------------------------------------------------------


def quaterbits(psi: np.ndarray):
    """``quaternionify`` of amplitude rows: q1 = alpha + beta j, q2 = gamma + delta j."""
    alpha, beta, gamma, delta = (split(psi[:, j]) for j in range(4))
    return (alpha, beta), (gamma, delta)


def schmidt_term(psi: np.ndarray):
    alpha, beta, gamma, delta = (split(psi[:, j]) for j in range(4))
    return add(mul(alpha, conj(gamma)), mul(beta, conj(delta)))


def concurrence_term(psi: np.ndarray):
    alpha, beta, gamma, delta = (split(psi[:, j]) for j in range(4))
    return sub(mul(beta, gamma), mul(alpha, delta))


def su2_action(a, b, x, y):
    """``local_unitary._su2_action``: rows (a, b), (-conj(b), conj(a)) on the column (x, y)."""
    return add(mul(a, x), mul(b, y)), add(mul(neg(conj(b)), x), mul(conj(a), y))


def apply_cb(first, second, psi: np.ndarray) -> np.ndarray:
    """Amplitude rows of ``apply_cb``: factor arrays ``(a, b)``, the second acting first."""
    (a, b), (a2, b2) = (map(split, f) for f in (first, second))
    alpha, beta, gamma, delta = (split(psi[:, j]) for j in range(4))
    alpha, beta = su2_action(a2, b2, alpha, beta)
    gamma, delta = su2_action(a2, b2, gamma, delta)
    alpha, gamma = su2_action(a, b, alpha, gamma)
    beta, delta = su2_action(a, b, beta, delta)
    return np.stack([join(z) for z in (alpha, beta, gamma, delta)], axis=1)


def spinor(first, second, qb):
    """``apply_B_quaterbit``: the first factor from the left, then a2 - conj(b2) j on the right."""
    (a, b), (a2, b2) = (map(split, f) for f in (first, second))
    q1, q2 = qb
    right = (a2, neg(conj(b2)))
    top = qadd(qscale(a, q1), qscale(b, q2))
    bottom = qadd(qscale(neg(conj(b)), q1), qscale(conj(a), q2))
    return qmul(top, right), qmul(bottom, right)


def moebius_so2xsu2(c, s, a, b, q):
    """``apply_moebius_q(moebius_from_local_unitary(u), q)`` and its zero-denominator mask.

    ``MoebiusQ``'s invertibility check cannot fire here: the matrix is
    unitary, so its Study determinant is 1 up to rounding.
    """
    factor = (a, neg(b))
    m11, m12 = qscale((c, 0.0), factor), qscale((s, 0.0), factor)
    m21, m22 = qscale((-s, 0.0), factor), qscale((c, 0.0), factor)
    num = qadd(qmul(q, m11), m12)
    den = qadd(qmul(q, m21), m22)
    return right_quotient(num, den)


def wootters_preconcurrence(psi: np.ndarray):
    """``states.wootters_preconcurrence`` per amplitude row, term for term."""
    vbar = [conj(split(psi[:, j])) for j in range(4)]
    terms = (mul(vbar[j], mul((s.real, s.imag), vbar[k])) for j, k, s in _SIGMA_YY_ENTRIES)
    return reduce(add, terms)
