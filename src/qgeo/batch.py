"""Block evaluation of the verification suite, bit for bit equal to per-trial evaluation.

The report of ``run_suite`` must not depend on how its trials are split into
blocks, so the arithmetic here is exact, not approximate.  A block of
complex numbers is a :class:`Split`, a pair of float64 arrays ``(re, im)``.
CPython evaluates complex products and quotients with fixed formulas
(``_Py_c_prod``, ``_Py_c_quot``); numpy's complex ufuncs use other ones
(fused multiply-adds, another division), so Split's operators write the
formulas out in float64 operations, which round exactly as the interpreter
does.  Every quotient is by a real number, as in ``Quaternion.inverse``.
Nothing here calls BLAS, whose kernels (and hence roundings) depend on the
CPU.  The blocks' inputs come from :mod:`qgeo.sampling`.

The evaluators of :mod:`qgeo.diagrams` are written once, in the library's
functions and operators.  This module gives them blocks of the library's
objects under the library's names (the states, ``SU2Element``,
``SO2Element``, ``LocalUnitary``, ``Quaternion``, ``MoebiusQ``) and the
operations that construct objects or branch (``quaternionify``,
``embed_complex``, ``quat_matrix``, the Moebius constructors,
``fraction_point``, the chordal metric and ``max``); a block
``Quaternion``'s compound operations are the operators they compose.  Every
other library function runs on the blocks unchanged.  Where the scalar code
leaves the generic branch, at a quotient by a quaternion below
``ZERO_NORM_SQ`` or at a point whose |q|^2 overflows, the block's rows are
NaN, which marks those trials for the scalar code.

Text.  :func:`reprs` gives ``repr``'s strings of a float64 column, its
digits made in blocks where they can be proven; ``qgeo orbit`` writes its CSV
with it.

Processes.  Blocks read disjoint counter ranges, so they need no shared
state and can be evaluated anywhere.  :func:`_forked` runs shares of such
work on forked workers; ``qgeo verify``'s blocks and ``qgeo orbit``'s CSV
runs go through it, on up to one process per available CPU
(:func:`_available_cpus`).
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .local_unitary import QuatMat2, Variant, _require_variant
from .quaternion import ZERO_NORM_SQ, _abs2
from .sampling import _veltkamp
from .states import Quaterbit

# Trials per block.  A block amortizes numpy's per-call cost over its trials,
# and its arrays bound the memory the suite needs whatever the trial count.
# ``qgeo verify`` at its defaults (2 shared CPUs, numpy 2.4): run_suite takes
# about 0.16 s at 2048 against 0.23 s at 512, at a peak resident set 0.6 MB
# higher; 4096 saves another 0.01 s for another 1.2 MB.
BLOCK = 2048

# ---------------------------------------------------------------------------
# Interpreter arithmetic on blocks
# ---------------------------------------------------------------------------


def libm(fn, x) -> np.ndarray:
    """A ``math`` function applied element by element, bit for bit what the scalar code gets."""
    x = np.asarray(x, dtype=float)
    values = np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size)
    return values.reshape(x.shape)


# Tables of reprs.  10**(16 - E) for the decade 10**E <= |x| < 10**(E + 1),
# E = -4 .. -1.  By class E + 4, plus 4 for x < 0: the sign, "0." and -E - 1
# zeros right-aligned in bytes 0-6 of a word, and the bits by which the text
# is then shifted down.  The text of 00 .. 99.  Row t marks the last t of 24 bytes.
_DECADE_SCALE = np.array([1e20, 1e19, 1e18, 1e17])
_PREFIXES = np.frombuffer(
    b"".join((s + b"0." + b"0" * (3 - e)).rjust(7, b"\0") + b"\0" for s in (b"", b"-") for e in range(4)), dtype="<u8"
)
_SHIFTS = np.array([8 * (2 + e - s) for s in (0, 1) for e in range(4)], dtype=np.uint64)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype="<u2")
_TRAILING = np.frombuffer(b"".join(b"\0" * (24 - t) + b"\1" * t for t in range(17)), dtype=bool).reshape(17, 24)
_POWERS = np.array([10**j for j in range(1, 17)])


def reprs(x: np.ndarray) -> list[str]:
    """``list(map(repr, x.tolist()))`` for a 1-D float64 array, bit for bit.

    As in Grisu3 (Loitsch, PLDI 2010), digits are made fast where they are
    proven, and ``repr`` is called once for the rest.  Proven: 1e-4 <= |x|
    < 1, not a power of two.  Each 1e-N is the first double at or above
    10**-N, so the decade E is exact.  |x| 10**(16 - E) = z + f exactly
    (Dekker), z a 17-digit integer, f in [0, 1); a decimal reads back as x
    when nearer than the exact h = ulp(x) 10**(16 - E) / 2, in (0.55, 11.2).
    Distances to the nearest multiples of 10 and 100 are exact below 13 and
    at least 13 otherwise; a multiple of 100 within h is the only one, so
    its trailing zeros give the shortest length.  Ties and distances of
    exactly h go to ``repr``.  The operations are exact or correctly
    rounded, so the text does not depend on the CPU or libc, and few in
    kind, so that few pages of numpy's code are read in.
    """
    a = np.abs(x)
    unsure = a < 1e-4  # each unsure[...] = True below marks rows for repr
    unsure[a >= 1.0] = unsure[a != a] = True
    if np.count_nonzero(unsure) == len(a):
        return list(map(repr, x.tolist()))
    a[unsure] = 0.3  # any value in range, so that nothing below overflows
    mantissa, exponent = np.frexp(a)
    unsure[mantissa == 0.5] = True  # a power of two
    e = np.where(a < 1e-3, 0, np.where(a < 1e-2, 1, np.where(a < 1e-1, 2, 3)))
    text = _text(*_shortest(a, exponent, _DECADE_SCALE[e], unsure), np.where(x < 0, e + 4, e))
    (bad,) = np.nonzero(unsure)
    if bad.size:
        text[bad] = np.array(list(map(repr, x[bad].tolist())), dtype="S24").view(np.uint8).reshape(-1, 24)
    out = []  # in slices, so that the 4-byte characters of "U24" take little memory
    for i in range(0, len(text), 512):
        out += text[i : i + 512].astype(np.uint32).view("U24").ravel().tolist()  # NUL padding is no part of a str
    return out


def _shortest(a, exponent, scale, unsure):
    """The shortest decimals nearest a, times scale: 17-digit integers, and their trailing zeros."""
    hi = a * scale
    (ah, al), (sh, sl) = _veltkamp(a), _veltkamp(scale)
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    floor = np.floor(lo)
    f, z = lo - floor, hi.astype(np.int64) + floor.astype(np.int64)
    h = np.ldexp(scale * 2.0**-54, exponent)  # ulp(a) scale / 2
    ok10, c10 = _nearest_multiple(z, f, h, 10, unsure)
    ok100, c100 = _nearest_multiple(z, f, h, 100, unsure)
    unsure[f == 0.5] = True
    c = np.where(ok100, c100, np.where(ok10, c10, np.where(f > 0.5, z + 1, z)))
    zeros = np.where(ok10, 1, 0)
    (rows,) = np.nonzero(ok100)
    zeros[rows] = np.where(c[rows, None] % _POWERS, 0, 1).sum(axis=1)
    return c, zeros


def _nearest_multiple(z, f, h, q: int, unsure):
    """Whether the multiple of q nearest z + f is nearer than h, and that multiple; marks ties in ``unsure``."""
    r = z % q
    below = (r + 0x4330000000000000).view(np.float64) - 2.0**52  # float(r), from the bits of 2**52 + r
    above = (q - below) - f
    below += f
    near = np.minimum(below, above)
    ok = near < h
    unsure[near == h] = unsure[np.where(ok, below == above, False)] = True
    return ok, np.where(above < below, z - r + q, z - r)


def _text(c, zeros, cls):
    """Rows of 24 NUL-padded bytes: the prefix of class cls, then the digits of c up to its trailing zeros."""
    t, low = np.divmod(c, 10**8)
    lead, high = np.divmod(t, 10**8)
    quads = np.divmod(np.stack([high, low], axis=1), 10**4)
    pairs = np.stack(np.divmod(quads[0], 100) + np.divmod(quads[1], 100), axis=2)
    words = np.empty((len(c), 3), dtype="<u8")  # little-endian on every CPU
    words[:, 0] = _PREFIXES[cls]
    words[:, 1:] = _PAIRS.take(pairs).view("<u8")[:, :, 0]
    text = words.view(np.uint8)
    text[:, 7] = lead + ord("0")
    text[_TRAILING[zeros]] = 0
    shift = _SHIFTS[cls]  # down over the prefix's padding, as 24 little-endian bytes
    for i in range(3):
        words[:, i] >>= shift
        if i < 2:
            words[:, i] += words[:, i + 1] << (64 - shift)
    return text


class Split:
    """Complex rows as a pair of float64 arrays, with CPython 3.11's complex arithmetic.

    ``+ - *`` are ``_Py_c_sum``, ``_Py_c_diff`` and ``_Py_c_prod``, ``/`` by
    a real is ``_Py_c_quot`` by ``complex(x, 0.0)`` and ``abs`` is
    ``hypot``.  A real operand (a float or a float64 array) is promoted to
    ``complex(x, 0.0)`` and a Python complex to its parts, as the interpreter
    promotes them, so ``x + z`` adds 0.0 to the imaginary part.  A part may
    be a float that broadcasts, as the 0.0 of an embedded complex number.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # an ndarray operand defers to the reflected operators

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, other):
        w = _promoted(other)
        return NotImplemented if w is None else Split(self.real + w.real, self.imag + w.imag)

    def __sub__(self, other):
        w = _promoted(other)
        return NotImplemented if w is None else Split(self.real - w.real, self.imag - w.imag)

    def __rsub__(self, other):
        w = _promoted(other)
        return NotImplemented if w is None else w - self

    def __mul__(self, other):
        w = _promoted(other)
        if w is None:
            return NotImplemented
        return Split(self.real * w.real - self.imag * w.imag, self.real * w.imag + self.imag * w.real)

    # IEEE + and * commute, so x + z and x * z round as z + x and z * x do.
    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, x):
        if not isinstance(x, _REAL):
            return NotImplemented
        ratio = 0.0 / x
        denom = x + 0.0 * ratio
        return Split((self.real + self.imag * ratio) / denom, (self.imag - self.real * ratio) / denom)

    def __neg__(self):
        return Split(-self.real, -self.imag)

    def conjugate(self):
        return Split(self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)


_REAL = (int, float, np.ndarray)


def _promoted(x) -> Split | None:
    if isinstance(x, Split):
        return x
    if isinstance(x, complex):
        return Split(x.real, x.imag)
    return Split(x, 0.0) if isinstance(x, _REAL) else None


def split(z: np.ndarray) -> Split:
    """The Split rows of a complex array."""
    return Split(z.real, z.imag)


class Quaternion:
    """A block of the library's ``Quaternion`` z1 + z2 j, with Split rows z1 and z2."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1: Split, z2: Split):
        self.z1, self.z2 = z1, z2

    def __add__(self, other):
        return Quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other):
        return Quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        p1, p2, q1, q2 = self.z1, self.z2, other.z1, other.z2
        return Quaternion(p1 * q1 - p2 * q2.conjugate(), p1 * q2 + p2 * q1.conjugate())

    def __rmul__(self, c):
        """``c * q`` for a complex scalar ``c``, which multiplies on the left."""
        return Quaternion(c * self.z1, c * self.z2)

    def norm_sq(self):
        return _abs2(self.z1) + _abs2(self.z2)

    def __abs__(self):
        return np.sqrt(self.norm_sq())

    def inverse(self) -> Quaternion:
        """conj(q) / |q|^2, marking the rows on which the library's ``inverse`` raises."""
        return fraction_point(self.z1.conjugate(), -self.z2, self.norm_sq())

    def _mul_add(self, m, n):
        return self * m + n

    def _over(self, q):
        return self * q.inverse()

    def _under(self, q):
        return q.inverse() * self

    def _moebius(self, m):
        return self._mul_add(m.m11, m.m12)._over(self._mul_add(m.m21, m.m22))


# ---------------------------------------------------------------------------
# The library's objects and branches on blocks
# ---------------------------------------------------------------------------

OneQubitState = namedtuple("OneQubitState", "a1 a2")
TwoQubitState = namedtuple("TwoQubitState", "alpha beta gamma delta")
SU2Element = namedtuple("SU2Element", "a b")
SO2Element = namedtuple("SO2Element", "theta")


class LocalUnitary:
    """A block of the library's ``LocalUnitary``: one variant, angle rows and SU(2) rows."""

    def __init__(self, variant: Variant, rot: SO2Element, su2: SU2Element):
        self.variant, self.su2 = Variant(variant), su2
        rot_factor = [Split(libm(f, rot.theta), 0.0) for f in (math.cos, math.sin)]
        self._factors = self.variant.order(tuple(rot_factor), (su2.a, su2.b))

    def factors(self):
        return self._factors


def quaternionify(psi: TwoQubitState) -> Quaterbit:
    return Quaterbit(Quaternion(psi.alpha, psi.beta), Quaternion(psi.gamma, psi.delta))


def embed_complex(z: Split) -> Quaternion:
    return Quaternion(z, Split(0.0, 0.0))


def fraction_point(z1: Split, z2: Split, d: np.ndarray) -> Quaternion:
    """(z1 + z2 j) / d, with NaN on the rows d < ZERO_NORM_SQ that the library sends to INFINITY.

    A NaN marks a row for the scalar code: it survives every operation of
    this module, :func:`max` included.
    """
    d = np.where(d < ZERO_NORM_SQ, np.nan, d)
    return Quaternion(z1 / d, z2 / d)


def quat_matrix(u: LocalUnitary) -> QuatMat2:
    (a, b), (a2, b2) = u.factors()
    f = Quaternion(a2, -b2)
    return QuatMat2(a * f, b * f, (-b.conjugate()) * f, a.conjugate() * f)


@dataclass(frozen=True)
class MoebiusQ:
    """A block of the library's ``MoebiusQ``.

    There is no invertibility check: the suite builds its maps from unitary
    matrices, whose Study determinant is 1 up to rounding.
    """

    m: QuatMat2

    @classmethod
    def from_su2(cls, u: SU2Element) -> MoebiusQ:
        entries = (u.a, u.b, -u.b.conjugate(), u.a.conjugate())
        return cls(QuatMat2(*map(embed_complex, entries)))


def moebius_from_local_unitary(u: LocalUnitary) -> MoebiusQ:
    _require_variant(u, Variant.SO2_X_SU2, "moebius_from_local_unitary")
    return MoebiusQ(quat_matrix(u))


def chordal_distance(p: Quaternion, q: Quaternion) -> np.ndarray:
    """The library's chordal metric, in its operations and their order."""
    u0, u1, u2, u3, u4 = _s4_coords(p)
    v0, v1, v2, v3, v4 = _s4_coords(q)
    d0, d1, d2, d3, d4 = u0 - v0, u1 - v1, u2 - v2, u3 - v3, u4 - v4
    return np.sqrt(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4)


def _s4_coords(p: Quaternion) -> tuple[np.ndarray, ...]:
    z1, z2 = p.z1, p.z2
    n = p.norm_sq()
    d = n + 1.0
    return (2.0 * z1.real / d, 2.0 * z1.imag / d, 2.0 * z2.real / d, 2.0 * z2.imag / d, (n - 1.0) / d)


def max(*values: np.ndarray) -> np.ndarray:
    """Python's ``max``, the first of equal maxima, except that a NaN (a mark) always wins."""
    return reduce(lambda a, b: np.where((b > a) | np.isnan(b), b, a), values)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def _available_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _forked(work: Callable, shares: Sequence, worker: str, carry: bool = True) -> list:
    """``[work(share) for share in shares]``, each share after the first on a forked worker.

    This process forks a worker for every other share, then runs
    ``work(shares[0])``.  A worker runs only ``work`` and leaves through
    ``os._exit``, flushing nothing it inherited.  Its reply comes back
    through a pipe: the result pickled, or, when ``carry`` is set, the
    exception ``work`` raised, which is raised here as itself.  A worker
    that ends without such a reply (killed by a signal, its reply does not
    pickle, or ``carry`` is not set) writes the text of its error instead,
    and this raises ``ChildProcessError("<cause> (<worker> exited with
    status N)")``.  Every worker is reaped before this returns or raises,
    and killed first when this process fails.
    """
    import signal

    workers = []  # (pid, reply pipe) of shares 1 .. p-1, in order, not yet reaped
    with contextlib.ExitStack() as pipes:
        try:
            for share in shares[1:]:
                reply, out = (pipes.enter_context(open(fd, mode)) for fd, mode in zip(os.pipe(), ("rb", "wb")))
                pid = os.fork()
                if pid == 0:  # a worker: it leaves only through os._exit
                    status = 1
                    try:
                        code = _reply(work, share, out, carry)
                        out.flush()
                        status = code
                    finally:
                        os._exit(status)
                workers.append((pid, reply))
                out.close()  # so that reading the reply ends when the worker does
            results = [work(shares[0])]
            while workers:
                pid, reply = workers[0]
                data = reply.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[0]
                if status:
                    cause = signal.strsignal(-status) if status < 0 else data.decode(errors="replace")
                    raise ChildProcessError(f"{cause or 'no cause given'} ({worker} exited with status {status})")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results.append(value)
            return results
        finally:
            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _reply(work: Callable, share, out, carry: bool) -> int:
    """A worker's exit status, once its reply to :func:`_forked` is written to ``out``."""
    try:
        reply = (True, work(share))
    except BaseException as exc:
        reply = (False, exc)
    error = reply[1]
    if reply[0] or carry:
        try:
            data = pickle.dumps(reply)
            pickle.loads(data)  # an exception may pickle but not unpickle
        except Exception as exc:
            error = exc if reply[0] else error
        else:
            out.write(data)
            return 0
    out.write((getattr(error, "strerror", None) or str(error) or repr(error)).encode())
    return 1
