"""Workload process of the benchmark: runs one job's phases and writes a JSON result.

    python3 perfbench/child.py JOB.json RESULT.json

A job is a list of phases run one after another in this process.  A ``cli``
phase calls ``qgeo.cli.main(argv)`` with standard output sent to a file; an
``api`` phase runs the library loop of ``api.py`` on the items of a seed.  A
phase with ``trace`` set runs under the tracer of ``tracer.py``; its spans go
to ``spans`` when the phase ends.  Each phase reports its own start and end,
so interpreter start and imports are left out of the work phase.  The speed
probe of ``speed.py`` runs from the start of ``main`` to the end, and its
samples go into the result.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def run_phase(phase: dict, items_cache: dict, probe: SpeedProbe) -> dict:
    # Imported here, after main has started the speed probe.
    import qgeo.cli

    import api
    from tracer import Tracer

    if phase["kind"] == "api":
        key = (phase["seed"], phase["items"])
        if key not in items_cache:
            items_cache[key] = api.make_items(*key)
        items = items_cache[key]

    tracer = Tracer() if phase.get("trace") else None
    begin_item = None
    if tracer is not None:
        tracer.install()
        probe.hook = tracer.probe_hit

        def begin_item(i):
            tracer.run_id = i

    clock = time.perf_counter
    try:
        if phase["kind"] == "cli":
            with open(phase["stdout"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                t0 = clock()
                rc = qgeo.cli.main(phase["argv"])
                t1 = clock()
            result = {"rc": rc, "t0": t0, "t1": t1, "phase_s": t1 - t0}
        else:
            result = api.run(items, phase["block"], begin_item)
    finally:
        if tracer is not None:
            probe.hook = None
            tracer.uninstall()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(phase["spans"])
    return result


def peak_rss_mb() -> float:
    """Peak resident set size of this process (VmHWM).

    Not ru_maxrss: Linux carries the spawning process's peak over into it.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib / 1024.0


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    probe = SpeedProbe()
    probe.start()
    # qgeo is imported after the probe starts, so that its import is covered.
    import qgeo

    src = (ROOT / "src").resolve()
    if src not in Path(qgeo.__file__).resolve().parents:
        print(f"qgeo imported from {qgeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    items_cache: dict = {}
    try:
        results = [run_phase(phase, items_cache, probe) for phase in job["phases"]]
    finally:
        probe.stop()
    doc = {
        "phases": results,
        "probe": {"times": probe.times, "durations": probe.durations},
        "peak_rss_mb": peak_rss_mb(),
    }
    Path(result_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
