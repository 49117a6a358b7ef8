"""Run the benchmark on several seeds and report how far each metric spreads.

    python3 benchmarks/spread.py --runs 10 --first-seed 1 [--workload NAME]...
                                 [--trace-runs 2] > spread.json

Run from the root of a checkout, like ``run.py``.  For each workload it makes
``--runs`` untraced runs, one seed each, and reports every end-to-end
metric's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the distance between the quartiles as a share of the median, next to
the metric's bound in BENCHMARK.json.  It then makes ``--trace-runs`` traced
runs and lists the per-layer counters (every metric that is not a time or a
byte count) that did not repeat exactly.  A table goes to standard error,
JSON to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    report = {}
    for workload in workloads:
        runs = [bench(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"seeds": list(seeds),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": bound, "values": values}
            print(f"{workload:12s} {name:12s} median {med:10.4f} "
                  f"spread {(q3 - q1) / med:6.3f} (bound {bound})",
                  file=sys.stderr)
        traced = [bench(workload, args.first_seed + i, spec["run_seconds"], 1)
                  for i in range(args.trace_runs)]
        if traced:
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] not in ("s", "ms", "us", "bytes")}
                      for t in traced]
            entry["unsteady_counters"] = sorted(
                k for k in counts[0] if any(c[k] != counts[0][k]
                                            for c in counts))
            entry["traced"] = [{k: v["value"] for k, v in t["metrics"].items()}
                               for t in traced]
            entry["failed"] += sum(t["failed"] for t in traced)
            entry["attempted"] += sum(t["attempted"] for t in traced)
            print(f"{workload:12s} counters that did not repeat: "
                  f"{entry['unsteady_counters']}", file=sys.stderr)
        report[workload] = entry
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
