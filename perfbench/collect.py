"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out summary.json

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for every metric its median, its quartiles and its spread (the
distance between the quartiles as a share of the median) beside the
bound that BENCHMARK.json gives it. Without --workloads it runs every
workload, so one command prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the runs and summaries as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, "run_wall_s": wall, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} in {wall:.1f} s", file=sys.stderr, flush=True)
        summary = {}
        print(f"\n{workload} ({len(runs)} runs, trace {args.trace})")
        for name, first in runs[0]["metrics"].items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            summary[name] = {**s, "unit": first["unit"]}
            bound = bounds.get(name)
            note = f"  bound {bound}  spread/bound {s['spread'] / bound:.2f}" if bound else ""
            print(f"  {name:40s} {s['median']:12.6g} {first['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}{note}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
