"""Command line interface: analyze, transform, verify, orbit, sample.

File formats
------------
A state file is ``{"amplitudes": [[re, im], [re, im], [re, im], [re, im]]}``,
amplitudes ordered |00>, |01>, |10>, |11>; a transform file is
``{"variant": "so2xsu2" | "su2xso2", "theta": number, "a": [re, im],
"b": [re, im]}``.  The codec of :mod:`qgeo.states` and
:mod:`qgeo.local_unitary` reads and writes both, as it does a report's worst
cases; this module adds the file I/O, the norm repair (an error beyond 1e-6
of 1, renormalized with a warning beyond 1e-12) and the exit codes.

Report file (JSON): the dictionary form of a DiagramReport.  Orbit output is
CSV with header ``step,u0,u1,u2,u3,u4``: row k is the 4-sphere image of the
k-th iterate of the induced Moebius map, i.e. the initial image rotated by
2*k*theta in the (u0, u4) plane with u1..u3 fixed.  The rows are computed in
closed form and streamed in blocks, so neither the error nor the memory
grows with ``--steps``.

Exit codes: 0 success or verification pass, 1 verification failure, 2 usage
or input error, 3 mathematical domain error.  The environment variable
``QGEO_TOL`` overrides the default verification tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .quaternion import INFINITY, _abs2
from .states import (
    TwoQubitState,
    concurrence_term,
    decode_amplitudes,
    encode_amplitudes,
    encode_pair,
    haar_random_state,
    is_separable,
    quaternionify,
    schmidt_term,
    wootters_preconcurrence,
)
from .conformal import conformal_map, inverse_stereographic
from .local_unitary import LocalUnitary, SO2Element, SU2Element, Variant, apply_cb, decode_transform
from .moebius import orbit_s4_chunks
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
    except KeyError as exc:  # a field the codec reads
        raise CliError(EXIT_USAGE, f"{path}: missing field {exc.args[0]!r}") from None
    except ValueError as exc:  # the codec's, bytes that are not UTF-8, or a too long integer
        raise CliError(EXIT_USAGE, f"{path}: {exc}") from None
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{path}: {exc.strerror or exc}") from None


def _state_amplitudes(doc) -> list[complex]:
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ValueError("expected an object with an 'amplitudes' field")
    return decode_amplitudes(doc["amplitudes"], 4)


def load_state(path: str) -> TwoQubitState:
    values = _load_json(path, _state_amplitudes)
    n0, n1, n2, n3 = map(_abs2, values)
    norm = math.sqrt(n0 + n1 + n2 + n3)  # left to right: sum() compensates since Python 3.12
    if norm < 1e-9:
        raise CliError(EXIT_DOMAIN, f"{path}: state vector is zero")
    if abs(norm - 1.0) > FILE_NORM_TOL:
        raise CliError(EXIT_USAGE, f"{path}: amplitudes norm {norm!r} is not within 1e-06 of 1")
    if abs(norm - 1.0) > _SILENT_NORM_TOL:
        _warn(f"{path}: renormalizing amplitudes (norm deviation {abs(norm - 1.0):.3e})")
        values = [z / norm for z in values]
    return TwoQubitState(*values)


def load_transform(path: str) -> LocalUnitary:
    variant, theta, a, b = _load_json(path, decode_transform)
    norm_sq = _abs2(a) + _abs2(b)  # the rule of SU2Element
    if abs(norm_sq - 1.0) > FILE_NORM_TOL:
        raise CliError(EXIT_USAGE, f"{path}: |a|^2 + |b|^2 = {norm_sq!r} is not within 1e-06 of 1")
    if abs(norm_sq - 1.0) > _SILENT_NORM_TOL:
        _warn(f"{path}: renormalizing SU(2) parameters (deviation {abs(norm_sq - 1.0):.3e})")
        n = math.sqrt(norm_sq)
        a, b = a / n, b / n
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


def _default_tol() -> float:
    raw = os.environ.get("QGEO_TOL")
    if raw is None:
        return DEFAULT_SUITE_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise CliError(EXIT_USAGE, f"QGEO_TOL={raw!r} is not a number") from None
    if not math.isfinite(tol) or tol <= 0:
        raise CliError(EXIT_USAGE, f"QGEO_TOL={raw!r} must be a positive number")
    return tol


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
        "separable": is_separable(psi, tol=_default_tol()),
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
    tol = args.tol if args.tol is not None else _default_tol()
    if not math.isfinite(tol) or tol <= 0:
        raise CliError(EXIT_USAGE, "--tol must be a positive number")
    report = run_suite(args.trials, args.seed, tol)
    doc = report.to_dict()
    if args.report is not None:
        _write_json(args.report, doc)
    print(json.dumps(doc, indent=2))
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
    # fails at once.  Lines are written as csv.writer would write them:
    # repr floats, \r\n line ends; u1..u3 are the same in every row.
    try:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write("step,u0,u1,u2,u3,u4\r\n")
            step, fixed = 0, None
            for rows in orbit_s4_chunks(u, point, 0, args.steps + 1):
                if fixed is None:
                    fixed = ",".join(repr(v) for v in rows[0, 1:4].tolist())
                ks = range(step, step + len(rows))
                fh.write("".join(
                    f"{k},{u0!r},{fixed},{u4!r}\r\n"
                    for k, u0, u4 in zip(ks, rows[:, 0].tolist(), rows[:, 4].tolist())
                ))
                step += len(rows)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{args.out}: cannot write: {exc.strerror or exc}") from None
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.count < 1:
        raise CliError(EXIT_USAGE, "--count must be at least 1")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"{args.out}: cannot create directory: {exc.strerror or exc}") from None
    for k in range(args.count):
        psi = haar_random_state([args.seed, k])
        _write_json(str(out_dir / f"state_{k:04d}.json"), state_to_doc(psi))
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
    p.add_argument("--tol", type=float, default=None, help="suite tolerance (default 1e-10 or QGEO_TOL)")
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
