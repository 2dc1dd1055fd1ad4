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
other library function runs on the blocks unchanged.  Rows on which the
scalar code leaves the generic branch (a quotient by a d or |q|^2 that is
not a normal finite float) are NaN, for the scalar code.

Text.  :func:`csv_rows` gives a block's CSV lines as one bytearray:
step numbers, float64 columns in ``repr``'s digits, made in numpy where they
can be proven, and fixed text.  ``qgeo orbit`` writes its CSV with it.

Processes.  Blocks read disjoint counter ranges, so they need no shared
state and can be evaluated anywhere.  :func:`_forked` is the one place that
decides how many processes run and which takes what: it deals a list of
such items round-robin to up to one process per available CPU
(:func:`_processes`), this one first and then forked workers.
``qgeo verify`` deals its (row, block) units through it, and ``qgeo orbit``
its CSV blocks, which each process writes into the one output in turn, a
turn passed round a ring of pipes (:func:`_in_turn`).
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
from .quaternion import _NORMAL, _abs2
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


# Tables of the CSV text.  By decade e, 10**(e - 4) <= |x| < 10**(e - 3): the
# scale 10**(20 - e), its Veltkamp halves, and scale * 2**-54.  At 10 * (e +
# 4 (x < 0)) + d: the sign, "0." and 3 - e zeros in bytes 1-6 of a word, the
# lead digit d in byte 7.  By n: the bytes of a word that hold bits below 2**n.
_SCALES = np.array([(s, *_veltkamp(s), s * 2.0**-54) for s in (1e20, 1e19, 1e18, 1e17)]).T.copy()
_HEADS = np.frombuffer(b"".join(
    (s + b"0." + b"0" * (3 - e)).rjust(7, b"\0") + b"%d" % d for s in (b"", b"-") for e in range(4) for d in range(10)), "<u8")
_KEEP = np.array([(1 << 8 * -(-n // 8)) - 1 for n in range(64)], dtype=np.uint64).view(np.int64)
_ONES = 0x0101010101010101  # one in each byte of a word


def csv_rows(k0: int, fields: Sequence) -> bytearray:
    """CSV lines k0, k0 + 1, ..., byte for byte as ``csv.writer`` writes them.

    Line k0 + j is ``str(k0 + j)``, then each field after a comma, then
    ``\\r\\n``.  A field is a float64 column, row j written as ``repr`` writes
    it, or printable ASCII bytes, the same in every line; one at least is a
    column, of at most 10**8 rows.  The fields are NUL-padded bytes side by
    side, one record a line, whose NULs one pass deletes; bytes are a mark there.
    """
    m = next(len(f) for f in fields if not isinstance(f, bytes))
    high, low = divmod(k0, 10**8)  # str(k): the digits above the last 8, then the last 8
    v = np.arange(low, low + m)
    carry = v >= 10**8  # from high to high + 1, at most once
    heads = np.array([b"%d" % high if high else b"", b"%d" % (high + 1)])
    digits = _digits(np.where(carry, v - 10**8, v)) + 0x30 * _ONES
    if not high:  # no leading zeros
        digits &= ~_KEEP.take(8 * (7 - np.searchsorted(10 ** np.arange(1, 8), v, "right")))
    cells, marks = [heads.take(carry.view(np.uint8)), digits.view("S8")], [f for f in fields if isinstance(f, bytes)]
    for f in fields:
        text = np.bytes_(b"%c" % (marks.index(f) + 1)) if isinstance(f, bytes) else _float_text(f)
        cells += [np.bytes_(b","), text]
    cells.append(np.bytes_(b"\r\n"))
    record = np.dtype([(f"f{i}", c.dtype) for i, c in enumerate(cells)])
    data = bytearray(m * record.itemsize)
    for i, c in enumerate(cells):
        np.frombuffer(data, record)[f"f{i}"] = c
    data = data.translate(None, b"\0")
    for i, text in enumerate(marks, 1):
        data = data.replace(b"%c" % i, text)
    return data


def _float_text(x: np.ndarray) -> np.ndarray:
    """``repr`` of each value of a float64 column, as NUL-padded ``S24``.

    As in Grisu3 (Loitsch, PLDI 2010), digits are made fast where they are
    proven, and ``repr`` is called once for the rest.  Proven: 1e-4 <= |x| <
    1, not a power of two; each 1e-N is the first double at or above 10**-N,
    so the decade is exact.  |x| 10**(20 - e) = z + f exactly (Dekker), z a
    17-digit integer, f in [0, 1); a decimal reads back as x when nearer than
    the exact h = ulp(x) 10**(20 - e) / 2, in (0.55, 11.2).  Distances to the
    multiples of 10 and 100 nearest are exact below 13 and at least 13
    otherwise; a multiple of 100 within h is the only one, so the shortest.
    Ties and distances of exactly h go to ``repr``.  The operations are exact
    or correctly rounded, so the text does not depend on the CPU or libc.
    """
    a = np.abs(x)
    unsure = ~((1e-4 <= a) & (a < 1.0))  # rows for repr
    a = np.where(unsure, 0.3, a)  # any value in range, so that nothing below overflows
    mantissa, exponent = np.frexp(a)
    unsure |= mantissa == 0.5  # a power of two
    e = (a >= 1e-3).astype(np.intp) + (a >= 1e-2) + (a >= 1e-1)
    scale, sh, sl, half_ulp = _SCALES.take(e, axis=1)
    hi = a * scale
    ah, al = _veltkamp(a)
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    floor = np.floor(lo)
    f = lo - floor
    z = hi.astype(np.int64) + floor.astype(np.int64)
    h = np.ldexp(half_ulp, exponent)
    r100 = (z - z // 100 * 100 + 0x4330000000000000).view(np.float64) - 2.0**52  # float(z % 100), from the bits of 2**52 + r
    r10 = r100 - 10.0 * np.floor(r100 * 0.1)
    unsure |= f == 0.5
    step = (f > 0.5).astype(np.float64)  # from z to the nearest integer, or a multiple of 10 or 100 within h
    for r, q in ((r10, 10.0), (r100, 100.0)):
        below = r + f
        above = (q - r) - f
        near = np.minimum(below, above)
        ok = near < h
        unsure |= (near == h) | (ok & (below == above))
        step = np.where(ok, (above < below) * q - r, step)
    c = z + step.astype(np.int64)
    lead, top = c // 10**16, c // 10**8
    digits = _digits(np.stack([top - lead * 10**8, c - top * 10**8]))
    # 2**(n - 1) in each word's last nonzero digit (n = 0 for none), to drop the trailing zeros
    n = np.frexp(((digits + 0x3F * _ONES) & 0x40 * _ONES).astype(np.float64))[1]
    n[0] = np.maximum(n[0], (n[1] > 0) * 63)
    words = np.empty((len(x), 3), dtype="<u8")
    words[:, 0] = _HEADS.take((e + 4 * (x < 0)) * 10 + lead)
    words[:, 1:] = ((digits + 0x30 * _ONES) & _KEEP.take(n)).T
    text = words.view("S24")[:, 0]
    text[unsure] = list(map(repr, x[unsure].tolist()))
    return text


def _digits(v):
    """The 8 decimal digits of each int64 0 <= v < 10**8, a byte each, the first in the lowest byte."""
    # By 10**4, then by 100 and 10 in each 32- and 16-bit part at once: * 5243 >> 19 and * 103 >> 10.
    q = v // 10**4
    x = q + ((v - q * 10**4) << 32)
    y = (x * 5243 >> 19) & 0x0000007F0000007F
    x = y + ((x - y * 100) << 16)
    y = (x * 103 >> 10) & 0x000F000F000F000F
    return y + ((x - y * 10) << 8)


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
        """conj(q) / |q|^2, marked by :func:`fraction_point` where the library's ``inverse`` raises or rescales q."""
        return fraction_point(self.z1.conjugate(), -self.z2, self.norm_sq())

    def _over(self, q):
        return self * q.inverse()

    def _moebius(self, m):
        return (self * m.m11 + m.m12)._over(self * m.m21 + m.m22)


# ---------------------------------------------------------------------------
# The library's objects and branches on blocks
# ---------------------------------------------------------------------------

OneQubitState = namedtuple("OneQubitState", "a1 a2")
TwoQubitState = namedtuple("TwoQubitState", "alpha beta gamma delta")
SU2Element = namedtuple("SU2Element", "a b")
SO2Element = namedtuple("SO2Element", "theta")


class LocalUnitary:
    """A block of the library's ``LocalUnitary``: one variant, SU(2) rows, and factor rows a1, b1, a2, b2."""

    def __init__(self, variant: Variant, rot: SO2Element, su2: SU2Element):
        self.variant, self.su2 = Variant(variant), su2
        rot_factor = tuple(Split(libm(f, rot.theta), 0.0) for f in (math.cos, math.sin))
        (self.a1, self.b1), (self.a2, self.b2) = self.variant.order(rot_factor, (su2.a, su2.b))


def quaternionify(psi: TwoQubitState) -> Quaterbit:
    return Quaterbit(Quaternion(psi.alpha, psi.beta), Quaternion(psi.gamma, psi.delta))


def embed_complex(z: Split) -> Quaternion:
    return Quaternion(z, Split(0.0, 0.0))


def fraction_point(z1: Split, z2: Split, d: np.ndarray) -> Quaternion:
    """(z1 + z2 j) / d, with NaN on the rows whose d is not a normal finite float: the
    library sends them to INFINITY (d <= 0) or rescales their inverse.

    A NaN marks a row for the scalar code: it survives every operation of
    this module, :func:`max` included.
    """
    d = np.where((d >= _NORMAL) & (d < math.inf), d, np.nan)
    return Quaternion(z1 / d, z2 / d)


def quat_matrix(u: LocalUnitary) -> QuatMat2:
    a, b, f = u.a1, u.b1, Quaternion(u.a2, -u.b2)
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


def _processes(n: int) -> int:
    """How many processes share n items: one per available CPU, at most n."""
    return min(_available_cpus(), n)


def _forked(work: Callable, items: Sequence, worker: str, carry: bool = True) -> list:
    """``[work(items[k::p]) for k in range(p)]``, p = ``_processes(len(items))``: share 0 in this
    process, each other share on a forked worker.

    This process forks a worker for every other share, then runs
    ``work(items[0::p])``.  A worker runs only ``work`` and leaves through
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

    p = _processes(len(items))
    workers = []  # (pid, reply pipe) of shares 1 .. p-1, in order, not yet reaped
    with contextlib.ExitStack() as pipes:
        try:
            for k in range(1, p):
                reply, out = (pipes.enter_context(open(fd, mode)) for fd, mode in zip(os.pipe(), ("rb", "wb")))
                pid = os.fork()
                if pid == 0:  # a worker: it leaves only through os._exit
                    status = 1
                    try:
                        code = _reply(work, items[k::p], out, carry)
                        out.flush()
                        status = code
                    finally:
                        os._exit(status)
                workers.append((pid, reply))
                out.close()  # so that reading the reply ends when the worker does
            results = [work(items[0::p])]
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


def _in_turn(fh, blocks: int, block: Callable[[int], bytes], worker: str) -> None:
    """Write ``block(0)``, ``block(1)``, ..., ``block(blocks - 1)`` into the binary file ``fh``, in
    order, each made and written by the process of :func:`_forked` whose share holds it.

    Each process makes its next block while the others write theirs, and writes it
    when its turn comes: a byte passed round a ring of pipes, pipe r from process r
    to process r + 1 mod p.  So the blocks land in order in the open file of
    ``fh``, a file or a pipe, shared by the forked workers.  A block's text is kept
    until the next one is made, so that its memory is reused rather than given
    back and faulted in again.  Each process keeps only its own two ends of the
    ring, so one that ends early leaves its neighbours an end of file where the
    turn was, or a broken pipe; they stop writing, and their neighbours in turn.
    Only the failure that began it is raised: a worker's as a ChildProcessError
    naming its cause, this process's as itself.
    """
    fh.flush()  # nothing buffered here is copied into the workers
    ring = [os.pipe() for _ in range(_processes(blocks))]
    ends = {fd for pipe in ring for fd in pipe}

    def take_turns(share: range) -> None:
        inbound, outbound = ring[share.start - 1][0], ring[share.start][1]
        for fd in ends - {inbound, outbound}:
            os.close(fd)
        ends.intersection_update((inbound, outbound))
        try:
            for i in share:
                text = block(i)  # the previous block's text is freed here
                if i and not os.read(inbound, 1):
                    return  # the process before ended without passing the turn
                fh.write(text)
                fh.flush()
                if i + 1 < blocks:
                    try:
                        os.write(outbound, b"\0")
                    except BrokenPipeError:
                        return  # the process after ended before its turn
        finally:
            while ends:
                os.close(ends.pop())

    try:
        _forked(take_turns, range(blocks), worker, carry=False)
    finally:
        while ends:
            os.close(ends.pop())


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
