#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that:
- every metric named in BENCHMARK.json is emitted with its unit, on every workload;
- two traced runs of one seed give identical counts;
- ``states.default_rng.calls`` is 0 on api and orbit, so the layers are separated;
- the layer self times sum to the traced wall time, within ``trace.overhead_s``;
- in a directory holding only BENCHMARK.json and the benchmark, the command
  exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = bench(workload, trace)
            result = result_of(out)
            check(rc == 0 and result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: exit 0, correct, nothing failed")
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == expected, f"{workload} trace {trace}: every {kind} metric with its unit")
            if trace == 0:
                continue

            metrics = result["metrics"]
            record = HERE / "out" / f"{workload}-seed5-trace1-quick.json"
            notes = json.loads(record.read_text(encoding="utf-8"))["notes"]
            overhead = metrics["trace.overhead_s"]["value"]
            gap = notes["traced_wall_s"] - sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
            check(0 <= gap <= overhead,
                  f"{workload}: traced wall minus layer self times ({gap:.3g} s) within "
                  f"trace.overhead_s ({overhead:.3g} s)")
            if workload != "verify":
                check(metrics["states.default_rng.calls"]["value"] == 0,
                      f"{workload}: states.default_rng.calls is 0")
            _, again = bench(workload, 1)
            counts = {n: m["value"] for n, m in metrics.items() if m["unit"] in COUNT_UNITS}
            counts_again = {n: m["value"] for n, m in result_of(again)["metrics"].items() if m["unit"] in COUNT_UNITS}
            check(counts == counts_again, f"{workload}: two traced runs give identical counts")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, out = bench("api", 0, cwd=bare)
        lines = out.strip().splitlines()
        check(rc != 0 and not (lines and lines[-1].startswith("{")),
              "without the qgeo sources: nonzero exit and no result line")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
