"""Command line interface: analyze, transform, verify, orbit, sample.

File formats
------------
A state file is ``{"amplitudes": [[re, im], [re, im], [re, im], [re, im]]}``,
amplitudes ordered |00>, |01>, |10>, |11>; a transform file is
``{"variant": "so2xsu2" | "su2xso2", "theta": number, "a": [re, im],
"b": [re, im]}``.  The codec of :mod:`qgeo.states` and
:mod:`qgeo.local_unitary` reads and writes both, as it does a report's worst
cases; this module adds the file I/O, the norm repair (an error beyond 1e-6 of
1, renormalized by :func:`qgeo.quaternion.unit` with a warning beyond 1e-12)
and the exit codes.

Report file (JSON): the dictionary form of a DiagramReport.  Orbit output is
CSV with header ``step,u0,u1,u2,u3,u4``: row k is the 4-sphere image of the
k-th iterate of the induced Moebius map, i.e. the initial image rotated by
2*k*theta in the (u0, u4) plane with u1..u3 fixed.  The rows are computed in
closed form and streamed in blocks, so neither the error nor the memory
grows with ``--steps``; each block's lines, in ``csv.writer``'s text, are
one binary write of :func:`qgeo.batch.csv_rows`, made by one of up to one
process per CPU and written into ``--out`` in turn (see :func:`_write_orbit`).
``sample`` reads stream (seed, 0) of :mod:`qgeo.sampling`
in blocks; file k is ``haar_random_state(seed, 0, k)``.

Exit codes: 0 success or verification pass, 1 verification failure, 2 usage
or input error, 3 mathematical domain error, e.g. a state file whose squared
norm is below 2**-1022, the zero of ``unit``.  ``--tol`` alone sets
``verify``'s tolerance; ``analyze`` uses :func:`qgeo.states.is_separable`'s.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

from . import batch, sampling
from .quaternion import _NORMAL, INFINITY, squared_norm, unit
from .states import (
    TwoQubitState,
    concurrence_term,
    decode_amplitudes,
    encode_amplitudes,
    encode_pair,
    is_separable,
    quaternionify,
    schmidt_term,
    wootters_preconcurrence,
)
from .conformal import conformal_map, inverse_stereographic
from .local_unitary import LocalUnitary, SO2Element, SU2Element, Variant, _fields, apply_cb, decode_transform
from .moebius import ORBIT_CHUNK, _orbit_plane
from .diagrams import DEFAULT_SUITE_TOL, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Norm deviation tolerated in input files (renormalized with a warning).
FILE_NORM_TOL = 1e-6
# Below this deviation renormalization is skipped entirely.
_SILENT_NORM_TOL = 1e-12


class CliError(Exception):
    """Input or usage failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_json(path: str, decode: Callable):
    """``decode`` of the JSON content of ``path``; each failure is an input error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return decode(json.load(fh))
    except FileNotFoundError:
        raise CliError(EXIT_USAGE, f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            EXIT_USAGE, f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise CliError(EXIT_USAGE, f"{path}: invalid JSON: nested too deeply") from None
    except KeyError as exc:  # a field the codec reads
        raise CliError(EXIT_USAGE, f"{path}: missing field {exc.args[0]!r}") from None
    except ValueError as exc:  # the codec's, bytes that are not UTF-8, or a too long integer
        raise CliError(EXIT_USAGE, f"{path}: {exc}") from None
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{path}: {exc.strerror or exc}") from None


def load_state(path: str) -> TwoQubitState:
    values = _load_json(path, lambda doc: decode_amplitudes(*_fields(doc, ("amplitudes",)), 4))
    norm_sq = squared_norm(values)
    if norm_sq < _NORMAL:  # the zero of quaternion.unit
        raise CliError(EXIT_DOMAIN, f"{path}: state vector is zero")
    norm = math.sqrt(norm_sq)
    if abs(norm - 1.0) > FILE_NORM_TOL:
        raise CliError(EXIT_USAGE, f"{path}: amplitudes norm {norm!r} is not within 1e-06 of 1")
    if abs(norm - 1.0) > _SILENT_NORM_TOL:
        _warn(f"{path}: renormalizing amplitudes (norm deviation {abs(norm - 1.0):.3e})")
        values = unit(values)
    return TwoQubitState(*values)


def load_transform(path: str) -> LocalUnitary:
    variant, theta, a, b = _load_json(path, decode_transform)
    norm_sq = squared_norm((a, b))  # the rule of SU2Element
    if abs(norm_sq - 1.0) > FILE_NORM_TOL:
        raise CliError(EXIT_USAGE, f"{path}: |a|^2 + |b|^2 = {norm_sq!r} is not within 1e-06 of 1")
    if abs(norm_sq - 1.0) > _SILENT_NORM_TOL:
        _warn(f"{path}: renormalizing SU(2) parameters (deviation {abs(norm_sq - 1.0):.3e})")
        a, b = unit((a, b))
    return LocalUnitary(variant, SO2Element(theta), SU2Element(a, b))


def state_to_doc(psi: TwoQubitState) -> dict:
    return {"amplitudes": encode_amplitudes(psi)}


def _write_json(path: str, doc: dict) -> None:
    try:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{path}: cannot write: {exc.strerror or exc}") from None


def _sc_doc(psi: TwoQubitState) -> dict:
    return {
        "schmidt_term": encode_pair(schmidt_term(psi)),
        "concurrence_term": encode_pair(concurrence_term(psi)),
    }


def cmd_analyze(args) -> int:
    psi = load_state(args.state)
    qb = quaternionify(psi)
    image = conformal_map(qb)
    out = {
        **_sc_doc(psi),
        "wootters_preconcurrence": encode_pair(wootters_preconcurrence(psi)),
        "q1_norm_sq": qb.q1.norm_sq(),
        "q2_norm_sq": qb.q2.norm_sq(),
        "conformal_image": "inf" if image is INFINITY else list(image.as_reals()),
        "separable": is_separable(psi),
        "s4_point": [float(v) for v in inverse_stereographic(image)],
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_transform(args) -> int:
    psi = load_state(args.state)
    u = load_transform(args.transform)
    out_state = apply_cb(u, psi)
    _write_json(args.out, state_to_doc(out_state))
    print(json.dumps({"before": _sc_doc(psi), "after": _sc_doc(out_state)}, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise CliError(EXIT_USAGE, "--trials must be at least 1")
    if not math.isfinite(args.tol) or args.tol <= 0:
        raise CliError(EXIT_USAGE, "--tol must be a positive number")
    # The report file is opened before any trial is evaluated, so an
    # unwritable path fails at once.  It is opened for appending and emptied
    # only when the report is written, so a run that fails leaves it as it was.
    no_file = contextlib.nullcontext()
    try:
        with no_file if args.report is None else open(args.report, "a", encoding="utf-8") as fh:
            try:
                report = run_suite(args.trials, args.seed, args.tol)
            except OSError as exc:  # a worker that failed, or one that could not be forked
                raise CliError(EXIT_USAGE, exc.strerror or str(exc)) from None
            text = json.dumps(report.to_dict(), indent=2)
            if fh is not None:
                fh.truncate(0)
                fh.write(text + "\n")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{args.report}: cannot write: {exc.strerror or exc}") from None
    print(text)
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAIL


def cmd_orbit(args) -> int:
    if args.steps < 0:
        raise CliError(EXIT_USAGE, "--steps must be non-negative")
    psi = load_state(args.state)
    u = load_transform(args.transform)
    if u.variant is not Variant.SO2_X_SU2:
        raise CliError(
            EXIT_USAGE,
            f"{args.transform}: orbit requires variant 'so2xsu2': its closed form "
            "covers the canonical Moebius map of so2xsu2 only",
        )
    point = conformal_map(quaternionify(psi))
    # The file is opened before any step is computed, so an unwritable path
    # fails at once.
    try:
        with open(args.out, "wb") as fh:
            fh.write(b"step,u0,u1,u2,u3,u4\r\n")
            _write_orbit(fh, u, point, args.steps + 1)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{args.out}: cannot write: {exc.strerror or exc}") from None
    return EXIT_OK


def _orbit_block(u: LocalUnitary, point, n: int) -> Callable[[int], bytearray]:
    """``block(start)``: the CSV rows of steps start .. min(start + ORBIT_CHUNK, n) - 1, u1..u3 once.

    The offset table of :func:`qgeo.moebius._orbit_plane` is made here, once for
    all the blocks of a run.
    """
    fixed, columns = _orbit_plane(u, point, min(n, ORBIT_CHUNK))
    fixed = ",".join(map(repr, fixed)).encode()

    def block(start: int) -> bytearray:
        u0, u4 = columns(start, min(ORBIT_CHUNK, n - start))
        return batch.csv_rows(start, [u0, fixed, u4])

    return block


def _write_orbit(fh, u: LocalUnitary, point, n: int) -> None:
    """Write the CSV rows of steps 0 .. n - 1 to ``fh``, on up to one process per CPU.

    The ORBIT_CHUNK blocks are dealt to the processes of :func:`qgeo.batch._in_turn`,
    this one and forked workers, which inherit the offset table made here; each
    block starts from its own exact angle, so the bytes do not depend on their
    number.  Each process formats its next block while the others write, then
    writes it straight into ``fh`` (a file, pipe or device) when its turn comes.
    A worker's error is its text, raised here as OSError.
    """
    block = _orbit_block(u, point, n)
    batch._in_turn(fh, -(-n // ORBIT_CHUNK), lambda i: block(i * ORBIT_CHUNK), "an orbit worker")


def cmd_sample(args) -> int:
    if args.count < 1:
        raise CliError(EXIT_USAGE, "--count must be at least 1")
    # Block 0 is read before the directory is made, so that a seed numpy
    # rejects leaves no directory behind.
    u = sampling.uniforms(args.seed, 0, 0, min(batch.BLOCK, args.count))
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{args.out}: cannot create directory: {exc.strerror or exc}") from None
    for start in range(0, args.count, batch.BLOCK):
        if start:
            u = sampling.uniforms(args.seed, 0, start, min(start + batch.BLOCK, args.count))
        for k, amplitudes in enumerate(sampling.haar_rows(u, 4).tolist(), start):
            _write_json(str(out_dir / f"state_{k:04d}.json"), state_to_doc(TwoQubitState(*amplitudes)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgeo",
        description=(
            "Quaternionic geometry of two-qubit states: analyze conformal images, "
            "apply local unitaries, verify the intertwining identities, and trace "
            "Moebius orbits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print Schmidt/concurrence data and the conformal image")
    p.add_argument("state", help="state JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="apply a local unitary to a state file")
    p.add_argument("state", help="input state JSON file")
    p.add_argument("transform", help="transform JSON file")
    p.add_argument("out", help="output state JSON file")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="run the randomized verification suite")
    p.add_argument("--trials", type=int, default=10000, help="trials per check (default 10000)")
    p.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    p.add_argument(
        "--tol", type=float, default=DEFAULT_SUITE_TOL,
        help=f"suite tolerance (default {DEFAULT_SUITE_TOL:g})",
    )
    p.add_argument("--report", default=None, help="also write the JSON report to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "orbit",
        help="write the 4-sphere orbit of a state's conformal image: a rotation by 2*theta per step",
    )
    p.add_argument("state", help="state JSON file")
    p.add_argument("transform", help="transform JSON file (variant so2xsu2)")
    p.add_argument(
        "--steps", type=int, default=100,
        help="number of iterates (default 100); error and memory do not grow with it",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("sample", help="write uniformly random state files")
    p.add_argument("--count", type=int, default=1, help="number of states (default 1)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our convention.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
