"""Block evaluation of the verification suite, bit for bit equal to per-trial evaluation.

The report of ``run_suite`` must not depend on how its trials are split into
blocks, so everything here is exact, not approximate:

* Sampling.  Seed-space index ``idx`` reads one counter-based stream,
  ``Generator(Philox(SeedSequence([seed, idx])))``, and trial ``t`` owns its
  ``K`` uniforms at positions ``[K t, K t + K)``.  A block of trials is one
  ``Generator.random`` call at counter offset ``K t / 4`` (Philox yields four
  64-bit words per counter step), so a trial's draws do not depend on which
  block reads them.  Gaussians come from the Box-Muller transform with libm's
  ``log1p``, ``cos`` and ``sin``; numpy's own vectorized versions round
  differently on some inputs, depending on the instruction set it dispatches
  to.
* Arithmetic.  A complex array is split into a pair of float64 arrays
  ``(re, im)``.  CPython evaluates complex products and quotients with fixed
  formulas (``_Py_c_prod``, ``_Py_c_quot``); numpy's complex ufuncs use other
  ones (fused multiply-adds, another division), so the formulas are written
  out here with float64 operations, which round exactly as the interpreter
  does.  Every quotient is by a real number (:func:`div_real`), as in
  ``Quaternion.inverse``.  ``abs`` of a complex is ``hypot`` in both.  A
  float ``x ** 2`` is libm's ``pow``, which differs from ``x * x`` in the
  last bit on about one input in a thousand, and ``sum`` is the
  interpreter's, so both are left to the interpreter, element by element.  Where the scalar code calls numpy
  itself (matrix products, dot products, the division by a norm), the block
  calls the same numpy routine on a stack of operands, which runs the same
  kernel on each item.

A quaternion is a pair of split complex values ``(z1, z2)``.  Block
functions compute the generic branch of the scalar code only; branch
conditions, such as a denominator below ``ZERO_NORM_SQ``, are returned as
boolean masks so that the caller can hand those trials to the scalar code.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .quaternion import ZERO_NORM_SQ
from .states import _SIGMA_YY

# Trials per block.  A block amortizes numpy's per-call cost over its trials,
# and its arrays bound the memory the suite needs whatever the trial count;
# doubling it saves little time and adds to the peak resident set.
BLOCK = 512

# Uniforms per trial, a multiple of Philox's four words per counter step.
# Slots 0-7: the state's Gaussians (a one-qubit state uses 0-3); slot 8: the
# rotation angle; slots 9-12: the SU(2) Gaussians; slots 13-15: spare.
K = 16
_STATE, _ANGLE, _SU2 = slice(0, 8), 8, slice(9, 13)

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def uniforms(seed: int, idx: int, start: int, stop: int) -> np.ndarray:
    """The ``(stop - start, K)`` uniforms of trials ``[start, stop)`` of stream ``idx``."""
    bitgen = np.random.Philox(np.random.SeedSequence([seed, idx]))
    bitgen.advance(start * (K // 4))
    return np.random.Generator(bitgen).random((stop - start, K))


def _gaussians(u: np.ndarray) -> np.ndarray:
    """Box-Muller: uniform columns (2i, 2i + 1) give r cos(phi) and r sin(phi)."""
    r = np.sqrt(-2.0 * libm(math.log1p, -u[:, 0::2]))
    phi = _TWO_PI * u[:, 1::2]
    out = np.empty_like(u)
    out[:, 0::2] = r * libm(math.cos, phi)
    out[:, 1::2] = r * libm(math.sin, phi)
    return out


def _normalized(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Rows ``(re + i im) / |(re, im)|``; a zero row gives NaN."""
    norm_sq = 0.0
    for col in (*re.T, *im.T):
        norm_sq = norm_sq + col * col
    n = np.sqrt(norm_sq)[:, None]
    return join((re / n, im / n))


def haar_states(u: np.ndarray) -> np.ndarray:
    """Haar-random two-qubit amplitude rows from trial uniforms."""
    g = _gaussians(u[:, _STATE])
    return _normalized(g[:, :4], g[:, 4:])


def haar_one_qubit_states(u: np.ndarray) -> np.ndarray:
    """Haar-random one-qubit amplitude rows from trial uniforms."""
    g = _gaussians(u[:, :4])
    return _normalized(g[:, :2], g[:, 2:])


def local_unitary_params(u: np.ndarray):
    """(theta, a, b) from trial uniforms: theta uniform on [0, 2 pi), (a, b) Haar on SU(2)."""
    g = _gaussians(u[:, _SU2])
    ab = _normalized(g[:, 0::2], g[:, 1::2])
    return _TWO_PI * u[:, _ANGLE], ab[:, 0], ab[:, 1]


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``x[i] @ y[i]``: numpy's dot kernel on each row, as a 1-D ``@`` runs it."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``m[i] @ v[i]``, numpy's matrix-vector kernel on each item."""
    return np.matmul(m, v[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Interpreter arithmetic on float64 arrays
# ---------------------------------------------------------------------------


def pow2(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` as the interpreter computes it for each float (libm pow)."""
    return np.fromiter(map(pow, x.tolist(), repeat(2)), dtype=float, count=len(x))


def interp_sum(terms) -> np.ndarray:
    """Python's ``sum`` over the terms, trial by trial (its order and compensation)."""
    rows = zip(*(t.tolist() for t in terms))
    return np.fromiter(map(sum, rows), dtype=float, count=len(terms[0]))


def libm(fn, x: np.ndarray) -> np.ndarray:
    """A ``math`` function applied element by element (numpy's own may round differently)."""
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
    terms = [pow2(a - b) for a, b in zip(_s4_coords(p), _s4_coords(q))]
    return np.sqrt(interp_sum(terms))


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


def su2_matrices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``SU2Element.matrix`` rows (a, b), (-conj(b), conj(a)) for complex arrays a, b."""
    m = np.empty((len(a), 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = a, b, -np.conj(b), np.conj(a)
    return m


def complex_forms(first, second) -> np.ndarray:
    """``complex_form`` of factor arrays ``(a, b)``: the first factor (x) the second, via ``_kron2``."""
    left, right = su2_matrices(*first), su2_matrices(*second)
    return (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(-1, 4, 4)


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
    unitary, so its complexified determinant has modulus 1 up to rounding.
    """
    factor = (a, neg(b))
    m11, m12 = qscale((c, 0.0), factor), qscale((s, 0.0), factor)
    m21, m22 = qscale((-s, 0.0), factor), qscale((c, 0.0), factor)
    num = qadd(qmul(q, m11), m12)
    den = qadd(qmul(q, m21), m22)
    return right_quotient(num, den)


def wootters_preconcurrence(psi: np.ndarray):
    """``conj(v) @ (sigma_y (x) sigma_y @ conj(v))`` per amplitude row."""
    vbar = psi.conjugate()
    return split(dot(vbar, matvec(_SIGMA_YY, vbar)))
