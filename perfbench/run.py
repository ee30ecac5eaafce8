"""Benchmark of the hurwitzdiv command line, end to end and per layer.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is one of verify-sweep, emit-large-k, externals-slope (see
workloads.py and README.md).  The program is used from ``src/`` of the
checkout; nothing is installed.  Load model: closed loop, one client,
one process, one thread.  This script measures the set-up time in fresh
interpreters, starts ``worker.py`` in another fresh interpreter for the
measured run, takes its peak resident memory from the kernel's rusage
for that child, checks every operation's output, and prints a report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced rerun of the
same operations.  Exit code 0 when a result was printed (an operation
that failed the correctness gate shows as ``"correct": false``), 2 when
the benchmark could not run, for example without ``src/hurwitzdiv``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_SAMPLES = 15
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

# Set-up: a fresh interpreter imports the package, and the CLI builds its
# parser and dispatches a trivial command (the first operation proper
# starts after this).
SETUP_CODE = (
    "import sys, io, contextlib\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hurwitzdiv.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = hurwitzdiv.cli.main(['m0n', '--b', '4', 'count'])\n"
    "sys.exit(code)\n"
)


def _python(*args: str) -> list[str]:
    return [sys.executable, "-I", "-X", f"pycache_prefix={os.path.join(BUILD, 'pycache')}", *args]


def measure_setup() -> list[float]:
    """Set-up times, each scaled by the calibration around it like the
    operations' times (see worker.py)."""
    command = _python("-c", SETUP_CODE, SRC)
    # the first start writes the bytecode cache; it is not timed
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    samples = []
    before = worker.calibrate()
    for _ in range(SETUP_SAMPLES):
        # no timeout: with one, waiting polls in steps of up to 50 ms
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = worker.calibrate()
        samples.append(elapsed * 2 * worker.REFERENCE_S / (before + after))
        before = after
    return samples


def run_worker(args, workdir: str) -> tuple[dict, float]:
    """Run the worker; return its result and its peak RSS in MB."""
    command = _python(
        os.path.join(HERE, "worker.py"),
        "--src", SRC,
        "--workdir", workdir,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans-out", os.path.join(BUILD, "spans", f"{args.workload}.jsonl"),
    ) + (["--smoke"] if args.smoke else [])
    child = subprocess.Popen(command, stdout=subprocess.PIPE)
    try:
        text = child.stdout.read().decode("utf-8")
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"worker exited with code {child.returncode}")
    return json.loads(text.splitlines()[-1]), usage.ru_maxrss / 1024.0


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f'cpu="{cpu}" nproc={os.cpu_count()} python={platform.python_version()}'


def run_workload(args, why: str) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {why}")
    print(f"machine: {machine()}")
    setup = [] if args.trace else measure_setup()
    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        result, rss_mb = run_worker(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_lat = result["latencies"]
    lat = [t * f for t, f in zip(wall_lat, result["speed_factors"])]
    n = len(lat)
    attempted = result["attempted"]
    failed = len(result["failures"])
    print(
        f"passes={result['passes']} ops_per_pass={result['ops_per_pass']} "
        f"ops={n} wall_s={result['wall_s']:.3f}"
    )
    print(
        f"speed: calibration median {statistics.median(result['calibrations']) * 1e3:.4f} ms, "
        f"range {min(result['calibrations']) * 1e3:.4f}..{max(result['calibrations']) * 1e3:.4f} ms; "
        f"times below are scaled to the reference {worker.REFERENCE_S * 1e3:g} ms"
    )
    print(
        f"unscaled: ops_per_s {n / sum(wall_lat):.6g} 1/s, "
        f"op_p50_ms {statistics.median(wall_lat) * 1e3:.6g} ms"
    )
    metrics = {}
    if args.trace:
        print(f"spans={result['spans']}; per-layer values are per pass over {result['passes']} passes")
        for name, (value, unit) in result["per_layer"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} {value:.6g} {unit} n={result['passes']}")
    else:
        p = workload.tail_percentile
        tail_s, beyond = tail(lat, p)
        rows = [
            ("ops_per_s", n / sum(lat), "1/s", f"n={n}"),
            ("op_p50_ms", statistics.median(lat) * 1e3, "ms", f"n={n}"),
            ("op_tail_ms", tail_s * 1e3, "ms", f"n={n} percentile={p:g} beyond={beyond}"),
            ("peak_rss_mb", rss_mb, "MB", "n=1"),
            ("setup_s", statistics.median(setup), "s", f"n={len(setup)}"),
        ]
        for name, value, unit, count in rows:
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} {value:.6g} {unit} {count}")
        # zero on a correct run, so it is reported here and in the
        # attempted/failed fields rather than as a regression metric
        print(f"metric failed_ops_ratio {failed / attempted:.6g} ratio n={attempted} failed={failed}")
    for name, stats in result["caches"].items():
        if stats["calls"]:
            print(f"cache {name} hits={stats['hits']} calls={stats['calls']} entries={stats['entries']}")
    for reason in result["failures"][:10]:
        print(f"FAILED {reason}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for perfbench/selftest.py"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hurwitzdiv", "cli.py")):
        print(f"error: no program source at {SRC}/hurwitzdiv", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        why = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            summary = run_workload(args, why[name])
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
