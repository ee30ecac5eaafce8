"""Run every workload with several seeds and write the spread of each
end-to-end metric to baseline.json.

Usage, from the root of a checkout (about 6 minutes per workload):
    python3 perfbench/baseline.py

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  A metric's bound in BENCHMARK.json should be at least
three times its spread.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    report = {"machine": run.machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in spec["workloads"]:
        values: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload["name"],
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            summary[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "values": series,
            }
            print(f"{workload['name']} {name} median={median:.6g} spread={(q3 - q1) / median:.4f}")
        report["workloads"][workload["name"]] = summary
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
