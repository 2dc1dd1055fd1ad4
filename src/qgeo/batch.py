"""Block evaluation of the verification suite, bit for bit equal to per-trial evaluation.

The report of ``run_suite`` must not depend on how its trials are evaluated,
so everything here reproduces the scalar code exactly, not approximately:

* Sampling.  Trial ``t`` of check group ``idx`` draws from
  ``np.random.default_rng([seed, idx, t, k])``.  :func:`pcg64_states`
  computes numpy's SeedSequence hash for a whole block with uint32 arrays
  and turns each hash into the state PCG64 would start from.  The draws are
  then made trial by trial from one reused generator whose state is set to
  each of those in turn, so they are numpy's own draws.
* Arithmetic.  A complex array is split into a pair of float64 arrays
  ``(re, im)``.  CPython evaluates complex products and quotients with fixed
  formulas (``_Py_c_prod``, ``_Py_c_quot``); numpy's complex ufuncs use other
  ones (fused multiply-adds, another division), so the formulas are written
  out here with float64 operations, which round exactly as the interpreter
  does.  ``abs`` of a complex is ``hypot`` in both.  A float ``x ** 2`` is
  libm's ``pow``, which differs from ``x * x`` in the last bit on about one
  input in a thousand, and ``sum`` is the interpreter's, so both are left to
  the interpreter, element by element.  Where the scalar code calls numpy
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

# numpy.random.SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of ``calls`` hash calls and after the last,
    as a column: it starts at ``init`` and each call multiplies it by ``mult``."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of the constants."""
    value = (value ^ before) * after
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _seed_sequence_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` for each column of uint32 words.

    The sequential hash calls of SeedSequence.mix_entropy are grouped where
    their inputs do not depend on each other; each group takes the next
    constants in call order.
    """
    width, n = entropy.shape
    extra = max(width - _POOL_SIZE, 0)
    h = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * extra)
    words = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    words[: min(width, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(words, h[:_POOL_SIZE], h[1 : _POOL_SIZE + 1])
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[src], h[call : call + 3], h[call + 1 : call + 4])
        pool[dst] = _mix(pool[dst], hashed)
        call += 3
    for src in range(_POOL_SIZE, width):
        hashed = _hashmix(entropy[src], h[call : call + 4], h[call + 1 : call + 5])
        pool = _mix(pool, hashed)
        call += 4
    hb = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.concatenate([pool, pool]), hb[:-1], hb[1:]).astype(np.uint64)
    # Consecutive uint32 words form one little-endian uint64.
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def pcg64_states(seed: int, idx: int, k: int, start: int, stop: int):
    """(state, inc) of ``PCG64(SeedSequence([seed, idx, t, k]))`` for t in [start, stop), lazily.

    The trials of one call must all be below 2**32 or all at or above it, so
    that their entropy has one width; aligned blocks satisfy this.
    """
    # Let numpy reject what SeedSequence rejects, with its own message.
    np.random.SeedSequence([seed, idx, start, k])
    if start < 1 << 32 < stop:
        raise ValueError("a block of trials must not straddle trial 2**32")
    trials = np.arange(start, stop, dtype=np.uint64)
    words = [*_uint32_words(int(seed)), *_uint32_words(idx), trials & np.uint64(_MASK32)]
    if start >= 1 << 32:
        words.append(trials >> np.uint64(32))
    words.extend(_uint32_words(k))
    entropy = np.empty((len(words), len(trials)), dtype=np.uint32)
    for j, word in enumerate(words):
        entropy[j] = word
    return _pcg64_seeded(_seed_sequence_state(entropy))


def _pcg64_seeded(seeds: np.ndarray):
    """pcg64_set_seed on rows (s_hi, s_lo, i_hi, i_lo): with 128-bit initstate s
    and initseq i, inc = 2 i + 1, then two LCG steps around adding s."""
    for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        yield ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


class BlockSampler:
    """Draws of ``np.random.default_rng([seed, idx, t, k])`` for a block of trials t.

    One PCG64 is reused: its state is set to each trial's seeded state before
    that trial's draws.  :meth:`generators` yields it once per trial.
    """

    def __init__(self, seed: int, idx: int, k: int):
        self.seed, self.idx, self.k = seed, idx, k
        self.bitgen = np.random.PCG64(0)
        self.gen = np.random.Generator(self.bitgen)

    def generators(self, start: int, stop: int):
        inner = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
        bitgen, gen = self.bitgen, self.gen
        for state, inc in pcg64_states(self.seed, self.idx, self.k, start, stop):
            inner["state"] = state
            inner["inc"] = inc
            bitgen.state = full
            yield gen

    def reseeded(self, trial: int) -> np.random.Generator:
        """The generator in the state trial ``trial`` starts from."""
        return next(self.generators(trial, trial + 1))


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``x[i] @ y[i]``: numpy's dot kernel on each row, as a 1-D ``@`` runs it."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``m[i] @ v[i]``, numpy's matrix-vector kernel on each item."""
    return np.matmul(m, v[..., None])[..., 0]


def _normals(sampler: BlockSampler, start: int, stop: int, size: int) -> np.ndarray:
    """``standard_normal(size)`` of each trial's generator, one row per trial."""
    out = np.empty((stop - start, size))
    for row, gen in zip(out, sampler.generators(start, stop)):
        row[:] = gen.standard_normal(size)
    return out


def haar_states(sampler: BlockSampler, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude rows of ``haar_random_state`` and a mask of rows to redo in scalar code."""
    draws = _normals(sampler, start, stop, 8)
    re, im = draws[:, :4], draws[:, 4:]
    v = (re + 1j * im) / np.sqrt(dot(re, re) + dot(im, im))[:, None]
    return v, ~np.isfinite(v).all(axis=1)


def haar_one_qubit_states(
    sampler: BlockSampler, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude rows of ``haar_random_one_qubit`` and a mask of rows to redo."""
    draws = _normals(sampler, start, stop, 4)
    v = draws[:, :2] + 1j * draws[:, 2:]
    # np.linalg.norm: dots of the strided real and imaginary views.
    vr, vi = v.real, v.imag
    v = v / np.sqrt(dot(vr, vr) + dot(vi, vi))[:, None]
    return v, ~np.isfinite(v).all(axis=1)


def local_unitary_params(sampler: BlockSampler, start: int, stop: int):
    """(theta, a, b) of ``random_local_unitary`` per trial, and a mask of rows to redo.

    ``a`` and ``b`` are complex arrays.  The mask marks the rows whose
    Gaussian draw the scalar sampler rejects and draws again.
    """
    u = np.empty(stop - start)
    g = np.empty((stop - start, 4))
    for i, gen in enumerate(sampler.generators(start, stop)):
        u[i] = gen.random()
        g[i] = gen.standard_normal(4)
    # gen.uniform(0.0, 2 pi) returns 0.0 + 2 pi * gen.random(), at a third
    # of the cost of the call.
    theta = 0.0 + _TWO_PI * u
    g0, g1, g2, g3 = (pow2(g[:, j]) for j in range(4))
    norm_sq = g0 + g1 + g2 + g3
    n = np.sqrt(norm_sq)
    a = div_real((g[:, 0], g[:, 1]), n)
    b = div_real((g[:, 2], g[:, 3]), n)
    return theta, join(a), join(b), norm_sq < 1e-24


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
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


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


def quot(a, b):
    """Complex quotient, ``_Py_c_quot``; a zero divisor gives NaN, not an exception."""
    ar, ai = a
    br, bi = b
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch not taken
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


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


def complex_forms(rotation_first: bool, c, s, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``complex_form``: R (x) SU(2) when ``rotation_first``, else SU(2) (x) R, via ``_kron2``."""
    rot = np.empty((len(c), 2, 2))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, s, -s, c
    su2 = su2_matrices(a, b)
    left, right = (rot, su2) if rotation_first else (su2, rot)
    out = np.empty((len(c), 4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            block = out[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            np.multiply(left[:, i, j, None, None], right, out=block)
    return out


def spinor_so2xsu2(c, s, a, b, qb):
    """``apply_B_quaterbit``: rotate (q1, q2), then right-multiply by a - conj(b) j."""
    q1, q2 = qb
    right = (a, neg(conj(b)))
    top = qadd(qscale((c, 0.0), q1), qscale((s, 0.0), q2))
    bottom = qadd(qscale((-s, 0.0), q1), qscale((c, 0.0), q2))
    return qmul(top, right), qmul(bottom, right)


def spinor_su2xso2(c, s, a, b, qb):
    """``apply_Bprime_quaterbit``: complex left action, then right factor cos - sin j."""
    q1, q2 = qb
    right = ((c, 0.0), (-s, 0.0))
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
