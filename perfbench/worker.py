"""Runs one workload inside a fresh interpreter and prints one JSON line
of raw results on stdout, for ``run.py``.

Usage (normally started by run.py):
    python3 -I perfbench/worker.py --src SRC --workdir DIR --workload NAME
        --seed N --seconds S --trace 0|1 [--smoke] [--spans-out PATH]

Every operation is one ``hurwitzdiv.cli.main(argv)`` call with stdout
and stderr captured.  Before each one every ``lru_cache`` of the package
is cleared and the garbage collector run, outside the timed region, so
each operation pays the cold cost a fresh ``hurwitzdiv`` command pays.

Speed normalization: on a shared virtual machine the speed of a CPU
changes by 1.5x, at times 3x, for seconds at a time (measured on the
2-CPU host this benchmark was defined on), far more than the regressions
the benchmark must resolve.  So a fixed calibration loop, owned by the
benchmark and independent of the program, is timed between operations,
and each operation's time is scaled by REFERENCE_S over the mean of the
calibrations just before and just after it.  Times are thus reported at
the speed where the calibration loop takes REFERENCE_S.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# the calibration loop's time on the defining host when it ran at full speed
REFERENCE_S = 0.0006


def _calibration_work() -> int:
    # rational arithmetic on growing integers, dict updates keyed by
    # generator-like strings and integer formatting: the program's mix
    acc: dict[str, Fraction] = {}
    x = Fraction(1)
    for i in range(1, 120):
        x = x * Fraction(i + 3, i + 1) + Fraction(1, i)
        key = f"E_{i % 17}_{i % 5}"
        acc[key] = acc.get(key, 0) + x
    return len(str(x.numerator)) + len(acc)


def calibrate() -> float:
    """Seconds the calibration loop takes now (best of three, without
    garbage collection)."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _calibration_work()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class Runner:
    def __init__(self, main, caches: dict):
        self.main = main
        self.caches = caches
        self.latencies: list[float] = []
        # calibration times; calibrations[i] and [i + 1] surround operation i
        self.calibrations: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.bytes_out = 0
        # builder -> [hits, calls, most entries held after one operation]
        self.cache_stats = {name: [0, 0, 0] for name in caches}

    def run(self, op, on_start=None) -> None:
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()
        self.calibrations.append(calibrate())
        if on_start is not None:
            on_start()
        out, err = io.StringIO(), io.StringIO()
        crash = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed operation
                crash = f"raised {exc!r}"
            latency = time.perf_counter() - start
        for name, cache in self.caches.items():
            info = cache.cache_info()
            stats = self.cache_stats[name]
            stats[0] += info.hits
            stats[1] += info.hits + info.misses
            stats[2] = max(stats[2], info.currsize)
        text = out.getvalue()
        self.attempted += 1
        self.latencies.append(latency)
        self.bytes_out += len(text.encode("utf-8"))
        reason = crash or op.check(code, text)
        if reason is not None:
            self.failures.append(f"{' '.join(op.argv)}: {reason}")

    def passes(self, ops, budget: float, count: int | None = None, on_start=None):
        """Run whole passes over ``ops``: exactly ``count`` of them, or
        while another pass is expected to end within ``budget`` seconds
        (at least one).  Returns the number of passes."""
        start = time.perf_counter()
        done = 0
        while True:
            for op in ops:
                self.run(op, on_start)
            done += 1
            wall = time.perf_counter() - start
            if (done >= count) if count is not None else (wall + wall / done > budget):
                self.calibrations.append(calibrate())
                return done

    def speed_factors(self) -> list[float]:
        """Per operation: REFERENCE_S over the calibration around it."""
        c = self.calibrations
        return [2 * REFERENCE_S / (c[i] + c[i + 1]) for i in range(len(self.latencies))]


# the checks that do measurable work; genus and small-k-cases do not
CHECKS_TIMED = (
    "closed-forms",
    "hygiene",
    "bounds",
    "slopes",
    "hodge-closed-forms",
    "grr-assembly",
    "catalan",
    "m0n",
    "delta-j-checks",
)


def _per_layer(tracer_mod, tracer, passes: int, traced: Runner, untraced: Runner) -> dict:
    index = tracer_mod.SpanIndex(tracer.spans, traced.speed_factors(), passes)

    def per_pass(n: float) -> float:
        return n / passes

    def builders(layer: str) -> set[str]:
        return {name for name in traced.caches if name.startswith(layer + ".")}

    def normalized_total(runner: Runner) -> float:
        return sum(t * f for t, f in zip(runner.latencies, runner.speed_factors()))

    metrics = {
        "core.affine_built": (per_pass(tracer.counts["core.affine_built"]), "count"),
        "core.substitute_s": (index.outermost_time({"core.substitute"}), "s"),
        "bases.classes_built": (per_pass(tracer.counts["bases.classes_built"]), "count"),
        "bases.apply_calls": (per_pass(index.calls["bases.apply"]), "count"),
        "bases.apply_s": (index.outermost_time({"bases.apply"}), "s"),
        "bases.compose_s": (index.outermost_time({"bases.compose"}), "s"),
        "trace.builders_s": (index.outermost_time(builders("trace")), "s"),
        "pushforward.p_push_s": (index.outermost_time({"pushforward.p_push"}), "s"),
        "pushforward.builders_s": (index.outermost_time(builders("pushforward")), "s"),
        "pushforward.convert_normalization_s": (
            index.outermost_time({"pushforward.convert_normalization"}),
            "s",
        ),
    }
    for layer in ("trace", "pushforward", "m0b"):
        stats = [v for name, v in traced.cache_stats.items() if name.startswith(layer + ".")]
        hits = sum(s[0] for s in stats)
        calls = sum(s[1] for s in stats)
        metrics[f"{layer}.cache_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
        metrics[f"{layer}.cache_hits"] = (per_pass(hits), "count")
        metrics[f"{layer}.cache_calls"] = (per_pass(calls), "count")
        metrics[f"{layer}.cache_entries"] = (sum(s[2] for s in stats), "count")
    for check in CHECKS_TIMED:
        metrics[f"checks.{check.replace('-', '_')}_s"] = (
            index.outermost_time({f"checks.{check}"}),
            "s",
        )
    slopes_calls = sum(n for label, n in index.calls.items() if label.startswith("slopes."))
    metrics.update(
        {
            "slopes.self_s": (index.self_time("slopes"), "s"),
            "slopes.calls": (per_pass(slopes_calls), "count"),
            "serialize.load_externals_s": (
                index.outermost_time({"serialize.load_externals"}),
                "s",
            ),
            "serialize.self_s": (index.self_time("serialize"), "s"),
            "serialize.bytes_out": (per_pass(traced.bytes_out), "B"),
            "cli.self_s": (index.self_time("cli"), "s"),
            "m0b.self_s": (index.self_time("m0b"), "s"),
            "trace_overhead_s": (
                per_pass(normalized_total(traced) - normalized_total(untraced)),
                "s",
            ),
        }
    )
    return metrics


def _write_spans(path: str, spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import hurwitzdiv.cli
    import tracer as tracer_mod
    import workloads

    if not os.path.abspath(hurwitzdiv.cli.__file__).startswith(src + os.sep):
        print(f"error: hurwitzdiv imported from {hurwitzdiv.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SMOKE if args.smoke else workloads.FULL
    ops = workload.build(args.seed, size, workloads.load_golden(), args.workdir)
    start = time.perf_counter()
    runner = Runner(hurwitzdiv.cli.main, tracer_mod.find_caches())
    result = {"ops_per_pass": len(ops)}
    if not args.trace:
        passes = runner.passes(ops, args.seconds)
    else:
        # the untraced pass count sets the traced one, so both time the same ops
        passes = runner.passes(ops, args.seconds / 3)
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
        traced = Runner(tracer.span("cli.main", hurwitzdiv.cli.main), runner.caches)

        def next_op():
            tracer.op += 1

        traced.passes(ops, 0, count=passes, on_start=next_op)
        result["per_layer"] = _per_layer(tracer_mod, tracer, passes, traced, runner)
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            _write_spans(args.spans_out, tracer.spans)
        # the gate covers both phases
        traced.failures = runner.failures + traced.failures
        traced.attempted += runner.attempted
        runner = traced
    result.update(
        passes=passes,
        wall_s=time.perf_counter() - start,
        attempted=runner.attempted,
        failures=runner.failures,
        latencies=runner.latencies,
        speed_factors=runner.speed_factors(),
        calibrations=runner.calibrations,
        caches={name: dict(zip(("hits", "calls", "entries"), v)) for name, v in runner.cache_stats.items()},
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
