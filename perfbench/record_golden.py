"""Write golden.json: the expected output of every verify-sweep,
emit-large-k operation at both benchmark sizes, taken from the program
in ``src/``.  Also checks that the external tables of externals-slope
give the outcome their construction predicts over the full k range.

Usage, from the root of a checkout:
    python3 perfbench/record_golden.py

Run it only when a change is meant to alter the output bytes, and say so
where the change is described: the benchmark gate trusts this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hurwitzdiv import cli  # noqa: E402


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_external_tables(size: workloads.Size, build: str) -> None:
    """Every seeded table either passes or violates, as constructed."""
    for seed in range(3):
        with tempfile.TemporaryDirectory(dir=build) as workdir:
            for op in workloads.externals_slope(seed, size, {}, workdir):
                code, out = run(op.argv)
                reason = op.check(code, out)
                if reason is not None:
                    raise SystemExit(f"{' '.join(op.argv)}: {reason}")


def main() -> int:
    golden = {"verify": {}, "digests": {}}
    for size in (workloads.FULL, workloads.SMOKE):
        for k in range(1, size.verify_k_max + 1):
            code, out = run(workloads.verify_argv(k))
            last = out.splitlines()[-1]
            if code != 0 or " 0 failed" not in last:
                raise SystemExit(f"verify k={k} fails at this commit: {last}")
            golden["verify"][str(k)] = last
        for argv in workloads.emit_universe(size):
            code, out = run(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exits {code}")
            golden["digests"][" ".join(argv)] = workloads.output_digest(out)
        build = os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        check_external_tables(size, build)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden['verify'])} verify summaries and {len(golden['digests'])} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
