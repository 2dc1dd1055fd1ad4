#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1]

Workloads run interleaved (seed 1 of every workload, then seed 2, ...) and
the workload order rotates from one seed to the next, so that a slow spell
of the machine falls on all workloads alike.  For each end-to-end metric the
spread is (q3 - q1) / median over the seeds, with quartiles from
``statistics.quantiles(values, n=4)``; it is compared with the metric's
bound in BENCHMARK.json.  Every workload of BENCHMARK.json runs for its
``run_seconds``; the runs, with the raw times each printed, go to
``perfbench/out/sweep-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads[i % len(workloads):] + workloads[: i % len(workloads)]
        for workload in order:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
            raw = next((json.loads(ln[4:]) for ln in lines if ln.startswith("raw ")), None)
            results[workload].append({"seed": seed, "rc": proc.returncode, "env": env, "raw": raw, "result": last})
            status = "ok" if proc.returncode == 0 and last and last["correct"] else "FAILED"
            print(f"seed {seed:3d} {workload:8s} {status}", flush=True)
            if status != "ok":
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    print(f"\n{'workload':8s} {'metric':42s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for workload in workloads:
        summary[workload] = {}
        runs = [r["result"] for r in results[workload] if r["result"]]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary[workload][name] = {
                "values": values, "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            }
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
            print(f"{workload:8s} {name:42s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")

    out = HERE / "out" / f"sweep-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "seeds": seeds,
        "seconds": spec["run_seconds"],
        "trace": args.trace,
        "runs": results,
        "summary": summary,
        "all_correct": all(r["rc"] == 0 and r["result"] and r["result"]["correct"]
                           for w in workloads for r in results[w]),
    }, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
