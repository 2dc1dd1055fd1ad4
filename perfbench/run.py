#!/usr/bin/env python3
"""qgeo benchmark: the verify, orbit and api workloads, each with its output checks.

    python3 perfbench/run.py --workload verify|orbit|api --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qgeo is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured for about
``--seconds``; with ``--trace 1`` one process runs a small warm-up pass and
then an untraced, a traced and another untraced pass of the workload, which
give the per-layer metrics.  Every item is checked.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 0 only when every check passed.
``--quick`` shrinks every input for the self-test.  See README.md here.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from decimal import ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import numpy as np

import speed
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One verify report holds this many pass/fail units: 10 checks, 2 witness searches.
VERIFY_UNITS = 12
# Trial loops of run_suite: the three three-way checks share one loop.
VERIFY_CHECK_LOOPS = 8
VERIFY_REPORT_KEYS = {"seed", "trials", "tolerance", "checks", "witnesses", "exploratory", "overall_pass"}
VERIFY_CHECK_KEYS = {"name", "trials", "max_deviation", "tolerance", "passed", "worst_case"}
REEVALUATE_TOL = 1e-14

ORBIT_STEPS = 100_000
ORBIT_DRIFT_TOL = 1e-10
ORBIT_HEADER = ["step", "u0", "u1", "u2", "u3", "u4"]
# Input seed of the orbit whose drift is orbit's dev_over_tol.  The drift of
# one orbit depends so much on its input (from 0.0065 to 0.09 of the
# contract over 24 seeds) that no seeded orbit gives a steady accuracy
# metric.  The first process of every run computes this orbit; the others
# compute the seeded one, and both are checked against the contract.
ACCURACY_ORBIT_SEED = 0

API_ITEMS = 10_000
# dev_over_tol on api: median over blocks of this many items of the block's worst gap.
API_BLOCK = 1_000

SETUP_SAMPLES = 9

# Sizes under --quick: passes of well under a second, yet long enough to
# hold several speed probes, so that the traced pass's overhead stands out
# of the noise.
QUICK_VERIFY_TRIALS = 600
QUICK_ORBIT_STEPS = 40_000
QUICK_API_ITEMS = 6_000

class Run:
    """Samples, checks and counts gathered by one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.rss_mb: list[float] = []
        self.rates: list[float] = []
        self.latencies_us: list[float] = []
        self.raw: dict[str, list[float]] = {"wall_s": [], "items_per_s": [], "speed": []}
        self.dev_over_tol = 0.0
        self.notes: dict = {}

    def sample(self, wall: float, result: dict | None, items: int) -> None:
        """Record one untraced workload process.

        Times become reference-probe times through the process's speed probes
        (speed.py); the raw ones are kept beside them.  A CLI process is one
        item, so its latency is its work phase.
        """
        self.raw["wall_s"].append(wall)
        if result is None or not items:
            return
        self.rss_mb.append(result["peak_rss_mb"])
        probe = result["probe"]
        phase = result["phases"][0]
        self.walls.append(normalized_interval(wall, -math.inf, math.inf, probe))
        norm_phase = normalized_interval(phase["phase_s"], phase["t0"], phase["t1"], probe)
        self.rates.append(items / norm_phase)
        self.raw["items_per_s"].append(items / phase["phase_s"])
        self.raw["speed"].append(speed.speed(probe["durations"]))
        if "latencies_us" in phase:
            self.latencies_us.extend(normalized_latencies(phase, probe))
        else:
            self.latencies_us.append(norm_phase * 1e6)

    def fail(self, units: int, why: str) -> None:
        self.failed += units
        self.problems.append(why)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QGEO_TOL", None)  # verify runs at the CLI's default tolerance
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(phases: list[dict], tmp: Path) -> tuple[float, dict | None]:
    """Run the phases in one fresh workload process.

    Returns the process wall time from spawn to exit and its result (None
    when it failed).
    """
    job, result = tmp / "job.json", tmp / "result.json"
    job.write_text(json.dumps({"phases": phases}), encoding="utf-8")
    result.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(job), str(result)],
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    rc = proc.wait()
    wall = time.perf_counter() - t0
    if rc != 0 or not result.exists():
        return wall, None
    return wall, json.loads(result.read_text(encoding="utf-8"))


def window_speed(t0: float, t1: float, probe: dict) -> tuple[float, float]:
    """Speed over the wall interval [t0, t1) and the time its probes took.

    An interval too short to hold a probe takes the speed of the whole process.
    """
    inside = [d for t, d in zip(probe["times"], probe["durations"]) if t0 <= t < t1]
    return speed.speed(inside or probe["durations"]), sum(inside)


def normalized_interval(seconds: float, t0: float, t1: float, probe: dict) -> float:
    """Reference-probe time of the wall interval [t0, t1), which took ``seconds``,
    without the time of the probes taken inside it."""
    rate, probes_s = window_speed(t0, t1, probe)
    return (seconds - probes_s) * rate


def normalized_latencies(phase: dict, probe: dict) -> list[float]:
    """Per-item latencies of an api phase, in reference-probe microseconds.

    An item interrupted by a probe loses the probe's time; every item is
    scaled by the speed over the whole phase.
    """
    lat = np.array(phase["latencies_us"]) / 1e6
    starts = np.array(phase["starts"])
    times, durations = np.array(probe["times"]), np.array(probe["durations"])
    item = np.searchsorted(starts, times, side="right") - 1
    clipped = np.maximum(item, 0)
    hit = (item >= 0) & (times < starts[clipped] + lat[clipped])
    np.subtract.at(lat, item[hit], durations[hit])
    rate, _ = window_speed(phase["t0"], phase["t1"], probe)
    return list(lat * rate * 1e6)


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the end of ``import qgeo.cli``.

    Returns reference-probe times and raw times.  Right after its import each
    interpreter runs the speed probe six times; the first run is cold, and
    the median of the other five gives the speed of the start just before.
    One unrecorded start first fills the bytecode and page caches.
    """
    code = (
        "import sys, qgeo.cli; sys.stdout.write('.'); sys.stdout.flush(); "
        f"sys.path.insert(0, {str(HERE)!r}); import speed; "
        "print(*(speed.probe() for _ in range(6)))"
    )
    times, raw = [], []
    for k in range(samples + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        mark = proc.stdout.read(1)
        elapsed = time.perf_counter() - t0
        probes = [float(d) for d in proc.stdout.read().split()]
        proc.stdout.close()
        if proc.wait() != 0 or mark != b"." or len(probes) != 6:
            raise RuntimeError("a fresh interpreter could not import qgeo.cli")
        if k:
            raw.append(elapsed)
            times.append(elapsed * speed.REFERENCE_S / statistics.median(probes[1:]))
    return times, raw


def repeat(seconds: float, min_runs: int, body) -> None:
    """Call body() in a closed loop for about ``seconds``.

    Another call starts only when the median call so far would still end
    within the budget, and at least ``min_runs`` calls are made.
    """
    t_start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if len(durations) >= min_runs and elapsed + statistics.median(durations) > seconds:
            return


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_argv(seed: int, report: Path, trials: int | None) -> list[str]:
    argv = ["verify", "--seed", str(seed), "--report", str(report)]
    return argv + ([] if trials is None else ["--trials", str(trials)])


def check_verify_report(run: Run, report_bytes: bytes) -> int:
    """Check one report; return its count of trial evaluations."""
    from qgeo.diagrams import reevaluate_check

    doc = json.loads(report_bytes)
    if set(doc) != VERIFY_REPORT_KEYS:
        run.fail(VERIFY_UNITS, f"report keys {sorted(doc)}")
        return 0
    for check in doc["checks"]:
        if set(check) != VERIFY_CHECK_KEYS:
            run.fail(1, f"check keys {sorted(check)}")
            continue
        if not check["passed"]:
            run.fail(1, f"check {check['name']} failed: {check['max_deviation']!r}")
            continue
        again = reevaluate_check(check["name"], check["worst_case"])
        if not abs(again - check["max_deviation"]) <= REEVALUATE_TOL:
            run.fail(1, f"check {check['name']} re-evaluates to {again!r}, not {check['max_deviation']!r}")
    for search in doc["witnesses"]:
        if not search["found"]:
            run.fail(1, f"witness search {search['name']} found nothing")
    if len(doc["checks"]) + len(doc["witnesses"]) != VERIFY_UNITS:
        run.fail(VERIFY_UNITS, "report does not hold 10 checks and 2 witness searches")
    elif doc["overall_pass"] is not True and not run.failed:
        run.fail(VERIFY_UNITS, "overall_pass is not true")
    run.dev_over_tol = max(c["max_deviation"] / c["tolerance"] for c in doc["checks"])
    return (
        doc["trials"] * VERIFY_CHECK_LOOPS
        + sum(w["trials"] for w in doc["witnesses"])
        + sum(e["trials"] for e in doc["exploratory"])
    )


def verify_outputs(run: Run, rc: int, report: Path, first: dict) -> int:
    """Check one verify run against the first run of the seed; return its trial count.

    The first run's report is checked in full and kept in ``first``.
    """
    run.attempted += VERIFY_UNITS
    if rc != 0 or not report.exists():
        run.fail(VERIFY_UNITS, f"qgeo verify exited with {rc}")
        return 0
    data = report.read_bytes()
    if not first:
        first.update(report=data, trials=check_verify_report(run, data))
    elif data != first["report"]:
        run.fail(VERIFY_UNITS, "report bytes differ between runs of one seed")
        return 0
    return first["trials"]


def workload_verify(run: Run, seed: int, seconds: float, quick: bool, tmp: Path, trace: bool) -> dict:
    cli_trials = QUICK_VERIFY_TRIALS if quick else None
    report = tmp / "report.json"
    first: dict = {}
    if trace:
        result = spawn_traced(
            lambda k, warm: {"kind": "cli", "argv": verify_argv(seed, tmp / f"report{k}.json", 20 if warm else cli_trials),
                             "stdout": str(tmp / f"stdout{k}.txt")},
            "verify", tmp,
        )
        trials = {k: verify_outputs(run, rc, tmp / f"report{k}.json", first) for k, rc in measured_rcs(result)}
        return traced_layers(run, result, cli_bytes_out(tmp, "report"), trials[TRACED])

    def body():
        report.unlink(missing_ok=True)
        wall, result = spawn(
            [{"kind": "cli", "argv": verify_argv(seed, report, cli_trials), "stdout": str(tmp / "stdout.txt")}], tmp
        )
        rc = -1 if result is None else result["phases"][0]["rc"]
        trials = verify_outputs(run, rc, report, first)
        run.sample(wall, result, trials)

    repeat(seconds, 2, body)
    return {}


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def write_orbit_inputs(seed: int, tmp: Path) -> tuple[Path, Path]:
    """An entangled state and an so2xsu2 transform drawn from the seed."""
    rng = np.random.default_rng([seed, 0x0B])
    while True:
        g = rng.standard_normal(8)
        amps = (g[:4] + 1j * g[4:]) / np.linalg.norm(g)
        if abs(amps[1] * amps[2] - amps[0] * amps[3]) > 0.2:
            break
    h = rng.standard_normal(4)
    h /= np.linalg.norm(h)
    state, transform = tmp / "state.json", tmp / "transform.json"
    state.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in amps]}), encoding="utf-8")
    transform.write_text(
        json.dumps({"variant": "so2xsu2", "theta": rng.uniform(0.0, 2.0 * math.pi),
                    "a": [h[0], h[1]], "b": [h[2], h[3]]}),
        encoding="utf-8",
    )
    return state, transform


_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def rotation_angle(theta: float, n: int) -> float:
    """n * theta reduced into [0, 2*pi), exact to double precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(theta) * n
        two_pi = 2 * _PI
        return float(x - two_pi * (x / two_pi).to_integral_value(rounding=ROUND_FLOOR))


def orbit_reference(state: Path, transform: Path, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Row 0 and the closed-form last row: the map for rotation steps * theta."""
    from qgeo import conformal_map, inverse_stereographic, quaternionify
    from qgeo.cli import load_state, load_transform
    from qgeo.local_unitary import LocalUnitary, SO2Element
    from qgeo.moebius import apply_moebius_q, moebius_from_local_unitary

    x0 = conformal_map(quaternionify(load_state(str(state))))
    u = load_transform(str(transform))
    u_n = LocalUnitary(u.variant, SO2Element(rotation_angle(u.rot.theta, steps)), u.su2)
    last = apply_moebius_q(moebius_from_local_unitary(u_n), x0)
    return inverse_stereographic(x0), inverse_stereographic(last)


class Orbit:
    """One orbit input: its files, its reference rows and the first CSV it produced."""

    def __init__(self, seed: int, directory: Path, steps: int):
        directory.mkdir()
        self.steps = steps
        self.state, self.transform = write_orbit_inputs(seed, directory)
        self.reference = orbit_reference(self.state, self.transform, steps)
        self.first: bytes | None = None
        self.drift = math.nan

    def argv(self, out: Path, steps: int | None = None) -> list[str]:
        n = self.steps if steps is None else steps
        return ["orbit", str(self.state), str(self.transform), "--steps", str(n), "--out", str(out)]


def orbit_outputs(run: Run, rc: int, out: Path, orbit: Orbit) -> None:
    run.attempted += 1
    if rc != 0 or not out.exists():
        run.fail(1, f"qgeo orbit exited with {rc}")
        return
    data = out.read_bytes()
    if orbit.first is not None:
        if data != orbit.first:
            run.fail(1, "orbit CSV differs between runs of one input")
        return
    orbit.first = data
    steps = orbit.steps
    rows = csv.reader(io.StringIO(data.decode("utf-8")))
    header, first_row = next(rows, None), next(rows, None)
    count, last_row = 1, first_row
    for last_row in rows:
        count += 1
    if header != ORBIT_HEADER or first_row is None or count != steps + 1:
        run.fail(1, f"orbit CSV does not hold the header and {steps + 1} rows")
        return
    if first_row[0] != "0" or last_row[0] != str(steps):
        run.fail(1, "orbit CSV step column is not 0..steps")
        return
    row0, last = (np.array([float(v) for v in row[1:]]) for row in (first_row, last_row))
    if not np.linalg.norm(row0 - orbit.reference[0]) <= REEVALUATE_TOL:
        run.fail(1, f"orbit row 0 {row0} is not the initial image {orbit.reference[0]}")
    orbit.drift = float(np.linalg.norm(last - orbit.reference[1]))
    if not orbit.drift <= ORBIT_DRIFT_TOL:
        run.fail(1, f"orbit drift {orbit.drift!r} exceeds {ORBIT_DRIFT_TOL}")


def workload_orbit(run: Run, seed: int, seconds: float, quick: bool, tmp: Path, trace: bool) -> dict:
    steps = QUICK_ORBIT_STEPS if quick else ORBIT_STEPS
    seeded = Orbit(seed, tmp / "seeded", steps)

    if trace:
        result = spawn_traced(
            lambda k, warm: {"kind": "cli", "argv": seeded.argv(tmp / f"orbit{k}.csv", 100 if warm else None),
                             "stdout": str(tmp / f"stdout{k}.txt")},
            "orbit", tmp,
        )
        for k, rc in measured_rcs(result):
            orbit_outputs(run, rc, tmp / f"orbit{k}.csv", seeded)
        return traced_layers(run, result, cli_bytes_out(tmp, "orbit"), 0)

    accuracy = Orbit(ACCURACY_ORBIT_SEED, tmp / "accuracy", steps)
    out = tmp / "orbit.csv"
    done = []

    def body():
        orbit = seeded if done else accuracy
        out.unlink(missing_ok=True)
        wall, result = spawn([{"kind": "cli", "argv": orbit.argv(out), "stdout": str(tmp / "stdout.txt")}], tmp)
        orbit_outputs(run, -1 if result is None else result["phases"][0]["rc"], out, orbit)
        run.sample(wall, result, steps)
        done.append(orbit)

    repeat(seconds, 2, body)
    run.dev_over_tol = accuracy.drift / ORBIT_DRIFT_TOL
    run.notes["seeded_drift"] = seeded.drift
    return {}


# ---------------------------------------------------------------------------
# api
# ---------------------------------------------------------------------------


def api_outputs(run: Run, phase: dict | None, n_items: int) -> None:
    run.attempted += n_items
    if phase is None:
        run.fail(n_items, "api workload process failed")
        return
    for failure in phase["failures"]:
        run.fail(1, f"api item {failure}")
    run.dev_over_tol = phase["dev_over_tol"]
    run.notes["worst_gap"] = phase["worst_gap"]
    run.notes["worst_cgap"] = phase["worst_cgap"]


def workload_api(run: Run, seed: int, seconds: float, quick: bool, tmp: Path, trace: bool) -> dict:
    n_items = QUICK_API_ITEMS if quick else API_ITEMS
    phase = {"kind": "api", "seed": seed, "items": n_items, "block": min(API_BLOCK, n_items)}
    if trace:
        result = spawn_traced(
            lambda k, warm: dict(phase, items=200, block=200) if warm else dict(phase), "api", tmp
        )
        for k in MEASURED:
            api_outputs(run, None if result is None else result["phases"][k], n_items)
        return traced_layers(run, result, 0, 0)

    def body():
        wall, result = spawn([phase], tmp)
        out = None if result is None else result["phases"][0]
        api_outputs(run, out, n_items)
        run.sample(wall, result, n_items)

    repeat(seconds, 2, body)
    return {}


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


# Passes of a traced run, in order.  The warm-up pass is small and only
# fills caches; the two untraced passes bracket the traced one in time, so
# that a slow spell of the machine biases the overhead less.
PASSES = ("warm-up", "untraced", "traced", "untraced")
TRACED = PASSES.index("traced")
MEASURED = tuple(k for k, kind in enumerate(PASSES) if kind != "warm-up")


def spawn_traced(phase_for, name: str, tmp: Path) -> dict | None:
    """Run the passes of a traced run in one process; phase_for(k, warm) builds pass k."""
    phases = [phase_for(k, kind == "warm-up") for k, kind in enumerate(PASSES)]
    phases[TRACED].update(trace=True, spans=str(OUT / f"spans-{name}.npz"))
    _, result = spawn(phases, tmp)
    return result


def measured_rcs(result: dict | None) -> list[tuple[int, int]]:
    """(pass index, exit code) of the full-size CLI passes of a traced run."""
    return [(k, -1 if result is None else result["phases"][k]["rc"]) for k in MEASURED]


def cli_bytes_out(tmp: Path, stem: str) -> int:
    """Bytes the traced CLI pass wrote: its standard output and its output file."""
    written = [tmp / f"stdout{TRACED}.txt", *tmp.glob(f"{stem}{TRACED}.*")]
    return sum(p.stat().st_size for p in written)


def traced_layers(run: Run, result: dict | None, bytes_out: int, trials: int) -> dict:
    """Per-layer metrics from the traced pass, and the overhead over the untraced ones.

    Times are reference-probe times, like the end-to-end ones.
    """
    if result is None:
        return {}
    probe = result["probe"]

    def normalized(phase: dict) -> float:
        return normalized_interval(phase["phase_s"], phase["t0"], phase["t1"], probe)

    traced = result["phases"][TRACED]
    untraced_s = statistics.mean(normalized(result["phases"][k]) for k in MEASURED if k != TRACED)
    summary = traced["trace"]
    calls, counts = summary["calls"], summary["counts"]
    wall = normalized(traced)
    rate, _ = window_speed(traced["t0"], traced["t1"], probe)
    layer_self = {layer: own * rate for layer, own in summary["layer_self_s"].items()}
    draws = summary["rejection_draws"]

    def n(name: str) -> tuple[int, str]:
        return calls.get(name, 0), "count"

    metrics = {
        "states.haar_random_state.calls": n("states.haar_random_state"),
        "states.default_rng.calls": (counts["states.default_rng"], "count"),
        "local_unitary.random_local_unitary.calls": n("local_unitary.random_local_unitary"),
        "local_unitary.apply_cb.calls": n("local_unitary.apply_cb"),
        "local_unitary.spinor.calls": (
            n("local_unitary.apply_B_quaterbit")[0] + n("local_unitary.apply_Bprime_quaterbit")[0],
            "count",
        ),
        "quaternion.mul.calls": (counts["quaternion.mul"], "count"),
        "quaternion.inverse.calls": (counts["quaternion.inverse"], "count"),
        "quaternion.chordal_distance.calls": n("quaternion.chordal_distance"),
        "conformal.conformal_map.calls": n("conformal.conformal_map"),
        "conformal.inverse_stereographic.calls": n("conformal.inverse_stereographic"),
        "moebius.moebius_from_local_unitary.calls": n("moebius.moebius_from_local_unitary"),
        "moebius.apply_moebius_q.calls": n("moebius.apply_moebius_q"),
        "diagrams.trials": (trials, "count"),
        "diagrams.accept_ratio": (summary["rejection_accepted"] / draws if draws else 0.0, "ratio"),
        "cli.bytes_out": (bytes_out, "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.share"] = (layer_self[layer] / wall, "ratio")
    metrics["trace.overhead_s"] = (wall - untraced_s, "s")
    run.notes.update(
        traced_wall_s=wall,
        untraced_wall_s=untraced_s,
        layer_self_sum_s=sum(layer_self.values()),
        spans=summary["spans"],
    )
    return metrics


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def env_stamp() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, check=True)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(run: Run, setup: list[float]) -> dict:
    """The end-to-end metrics of a run: medians over its processes, in reference-probe time."""
    def med(values):
        return statistics.median(values) if values else 0.0

    lat = run.latencies_us
    return {
        "wall_s": (med(run.walls), "s"),
        "setup_s": (med(setup), "s"),
        "items_per_s": (med(run.rates), "1/s"),
        "item_p50_us": (percentile(lat, 50) if lat else 0.0, "us"),
        "item_p99_us": (percentile(lat, 99) if lat else 0.0, "us"),
        "peak_rss_mb": (med(run.rss_mb), "MB"),
        "ok_frac": (1.0 - run.failed / run.attempted if run.attempted else 0.0, "ratio"),
        "dev_over_tol": (run.dev_over_tol, "ratio"),
    }


# Each runs one benchmark run into ``run`` and returns the per-layer metrics
# when traced, else an empty dict.
WORKLOADS = {"verify": workload_verify, "orbit": workload_orbit, "api": workload_api}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "qgeo" / "__init__.py").is_file():
        print(f"error: no qgeo sources under {SRC}; run from a qgeo source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stamp = env_stamp()
    print("env " + json.dumps(stamp))

    run = Run()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup, run.raw["setup_s"] = ([], []) if args.trace else measure_setup(2 if args.quick else SETUP_SAMPLES)
        per_layer = WORKLOADS[args.workload](run, args.seed, args.seconds, args.quick, Path(tmp), bool(args.trace))
    metrics = per_layer if args.trace else end_to_end(run, setup)
    correct = run.attempted > 0 and run.failed == 0 and bool(metrics)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':44s} {run.failed / max(run.attempted, 1):>16.6g} ratio"
          f"  ({run.failed} of {run.attempted})")
    if run.raw["speed"]:
        print(f"  machine speed over reference: median {statistics.median(run.raw['speed']):.3f}; raw medians: "
              + ", ".join(f"{k} {statistics.median(v):.6g}" for k, v in run.raw.items() if v and k != "speed"))
    print(f"  samples: {len(run.walls)} processes, {len(run.latencies_us)} item latencies, "
          f"{len(setup)} set-ups")
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    print("raw " + json.dumps(run.raw))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "env": stamp,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {
            "wall_s": run.walls,
            "setup_s": setup,
            "items_per_s": run.rates,
            "peak_rss_mb": run.rss_mb,
        },
        "raw_samples": run.raw,
        "notes": run.notes,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
