"""Self-test of the benchmark: the correctness gate trips on corrupted
output, every workload runs at smoke size and prints every metric named
in BENCHMARK.json with its unit and sample count, and the benchmark
refuses to run without the program's source.

Usage, from the root of a checkout (takes about half a minute):
    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
sys.path.insert(0, os.path.join(ROOT, "src"))

from hurwitzdiv import cli  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402

METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)")


def check(condition: bool, message) -> None:
    if not condition:
        raise AssertionError(message)


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _corrupt(text: str) -> str:
    # the last character before the final newline, so that gates which
    # look only at the summary line see it too
    i = len(text) - 2
    return text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1 :]


def test_gate_trips_on_corrupted_output(workdir: str) -> None:
    golden = workloads.load_golden()
    size = workloads.SMOKE
    ops = [
        workloads.verify_sweep(1, size, golden, workdir)[0],
        workloads.emit_large_k(1, size, golden, workdir)[0],
    ] + workloads.externals_slope(1, size, golden, workdir)[:4]
    for op in ops:
        code, out = _run_cli(op.argv)
        check(op.check(code, out) is None, f"{op.argv} fails on its real output")
        check(op.check(code, _corrupt(out)) is not None, f"{op.argv} passes corrupted output")
        check(op.check(code + 1, out) is not None, f"{op.argv} passes a wrong exit code")


def test_corrupted_run_counts_every_operation_failed(workdir: str) -> None:
    def corrupting_main(argv):
        code = cli.main(argv)
        sys.stdout.write(" ")
        return code

    ops = workloads.emit_large_k(2, workloads.SMOKE, workloads.load_golden(), workdir)
    runner = worker.Runner(corrupting_main, tracer.find_caches())
    runner.passes(ops, 0, count=1)
    check(
        runner.attempted == len(ops) and len(runner.failures) == len(ops),
        f"{len(runner.failures)} of {runner.attempted} corrupted operations failed",
    )


def test_closed_form_slopes_match_spot_values() -> None:
    # the spot value the program's own slope check pins
    check(workloads.closed_form_slope(3, "trace", Fraction(12)) == Fraction(489, 59), "trace slope")
    check(workloads.closed_form_slope(1, "kappa", None) == Fraction(21, 2), "kappa slope")


def test_smoke_runs_print_every_metric() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=170, check=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            where = f"{workload['name']} trace={trace}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where)
            printed = {}
            for line in lines:
                match = METRIC_LINE.match(line)
                if match:
                    printed[match.group(1)] = (match.group(3), int(match.group(4)))
            for metric in declared:
                name, unit = metric["name"], metric["unit"]
                check(name in printed and printed[name][0] == unit, f"{where}: {name} {unit}")
                check(printed[name][1] >= 1, f"{where}: {name} sample count")
                check(result["metrics"][name]["unit"] == unit, f"{where}: {name} JSON unit")
            check(set(result["metrics"]) == {m["name"] for m in declared}, f"{where}: JSON metrics")
            if trace == 0:
                check("failed_ops_ratio" in printed, f"{where}: failed_ops_ratio")


def test_refuses_to_run_without_the_program(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode != 0 and "correct" not in proc.stdout, "ran without src/")


def main() -> int:
    os.makedirs(BUILD, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as workdir:
        test_gate_trips_on_corrupted_output(workdir)
        test_corrupted_run_counts_every_operation_failed(workdir)
        test_closed_form_slopes_match_spot_values()
        test_refuses_to_run_without_the_program(workdir)
    test_smoke_runs_print_every_metric()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
