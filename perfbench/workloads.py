"""Seeded operation lists for the benchmark workloads, and the expected
result of every operation (the correctness gate).

An operation is one ``hurwitzdiv`` command line.  A workload is a fixed
list of operations built from the seed; the runner repeats the list in
whole passes.  Every seeded choice is balanced inside a pass (mirrored
k offsets, paired holding/violating tables), so the work in a pass
barely depends on the seed and runs with different seeds are comparable.

Expected results come from two sources:

* ``golden.json`` holds what cannot be derived here: the summary line of
  each per-k ``verify`` run and the sha256 digest of every ``class`` and
  ``table`` output the workloads can produce.  ``record_golden.py``
  writes it from the program.
* ``slope`` lines and the ``verify --externals`` outcome are derived in
  this file: the slope from the paper's closed forms, the validity and
  the PASS/FAIL from how the external table was constructed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

HURWITZ_CLASSES = (
    "delta-tau",
    "omega-tau-sq",
    "delta-s",
    "s-omega-sq",
    "phi-lambda",
    "phihat-lambda",
    "prym-hodge",
    "prym-boundary",
)
PUSHED_CLASSES = ("p-phi-lambda", "p-phihat-lambda", "p-q-kappa", "eh-divisor")
TABLE_CLASS = "p-phi-lambda"
S_PRIME_GRID = ("23/2", "12", "13", "20")


@dataclass(frozen=True)
class Size:
    verify_k_max: int
    emit_center: int
    emit_max_offset: int
    table_center: int
    table_width: int
    externals_k_max: int


FULL = Size(
    verify_k_max=51,
    emit_center=88,
    emit_max_offset=2,
    table_center=32,
    table_width=6,
    externals_k_max=40,
)
SMOKE = Size(
    verify_k_max=5,
    emit_center=6,
    emit_max_offset=1,
    table_center=4,
    table_width=1,
    externals_k_max=6,
)


@dataclass(frozen=True)
class Op:
    """One command line and what its run must produce."""

    argv: tuple[str, ...]
    exit_code: int
    # exact stdout, or the last stdout line, or the sha256 of stdout
    stdout: str | None = None
    last_line: str | None = None
    digest: str | None = None

    def check(self, code: int, out: str) -> str | None:
        """Return None when the output passes the gate, else the reason."""
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        if self.stdout is not None and out != self.stdout:
            return f"stdout {out!r}, expected {self.stdout!r}"
        if self.last_line is not None:
            lines = out.splitlines()
            got = lines[-1] if lines else ""
            if got != self.last_line:
                return f"last line {got!r}, expected {self.last_line!r}"
        if self.digest is not None and output_digest(out) != self.digest:
            return "output bytes differ from the recorded digest"
        return None


def output_digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()[:32]


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------- verify-sweep


def verify_argv(k: int) -> tuple[str, ...]:
    return ("verify", "--k-min", str(k), "--k-max", str(k))


def verify_sweep(seed: int, size: Size, golden: dict, workdir: str) -> list[Op]:
    """Every named check for every k in 1..K, one cold ``verify`` per k,
    in seeded order.  K is odd, so that the median falls inside the
    cluster of one k's repeats rather than in the gap between two."""
    ks = list(range(1, size.verify_k_max + 1))
    _rng("verify-sweep", seed).shuffle(ks)
    expected = golden["verify"]
    return [Op(verify_argv(k), 0, last_line=expected[str(k)]) for k in ks]


# ---------------------------------------------------------------- emit-large-k


def class_argv(name: str, k: int, fmt: str, normalized: bool) -> tuple[str, ...]:
    argv = ("class", name, "--k", str(k), "--format", fmt)
    return argv + ("--normalized",) if normalized else argv


def table_argv(k_min: int, k_max: int, fmt: str, normalized: bool) -> tuple[str, ...]:
    argv = (
        "table",
        "--quantity",
        f"coefficients:{TABLE_CLASS}",
        "--k-min",
        str(k_min),
        "--k-max",
        str(k_max),
        "--format",
        fmt,
    )
    return argv + ("--normalized",) if normalized else argv


def _class_variants(name: str) -> list[tuple[str, bool]]:
    if name in PUSHED_CLASSES:
        return [("json", False), ("json", True), ("csv", False), ("csv", True)]
    return [("json", False), ("csv", False)]


def _emit_argvs(size: Size, d: int) -> list[tuple[str, ...]]:
    c = size.emit_center
    argvs = [
        class_argv(name, k, fmt, normalized)
        for name in HURWITZ_CLASSES + PUSHED_CLASSES
        for fmt, normalized in _class_variants(name)
        for k in (c - d, c + d)
    ]
    m, w = size.table_center, size.table_width
    return argvs + [table_argv(m - w + d, m + w + d, "json", False)]


def emit_universe(size: Size) -> list[tuple[str, ...]]:
    """Every class/table command line emit-large-k can issue at this size."""
    return list(
        dict.fromkeys(
            argv for d in range(size.emit_max_offset + 1) for argv in _emit_argvs(size, d)
        )
    )


def emit_large_k(seed: int, size: Size, golden: dict, workdir: str) -> list[Op]:
    """Each class in each of its formats at k = c - d and at k = c + d for
    one seeded d, and one coefficient table over a k window shifted by d,
    in seeded order.  The work of a mirrored pair is even in d, so d moves
    the work of a pass only to second order.  A pass holds an odd number
    of operations, so the median falls inside the cluster of one
    operation's repeats rather than in the gap between two."""
    rng = _rng("emit-large-k", seed)
    argvs = _emit_argvs(size, rng.randint(0, size.emit_max_offset))
    rng.shuffle(argvs)
    digests = golden["digests"]
    return [Op(argv, 0, digest=digests[" ".join(argv)]) for argv in argvs]


# ------------------------------------------------------------- externals-slope


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def external_table(k: int, violating: bool, rng: random.Random) -> dict:
    """An external-coefficient table for one k.

    Every b_j is a large positive rational, which makes each delta_j
    coefficient of the pushed classes dominate the delta_0 one, so the
    slope proviso holds.  A violating table negates one b_j, which makes
    that coefficient the minimum, so the proviso fails.  The scale grows
    with k because the delta_j coefficients grow like the pencil count
    N(k); ``record_golden.py`` checks both outcomes over the full k range.
    """
    scale = 10 ** (3 + k // 3)
    c = {j: Fraction(rng.randint(-100, 100), rng.randint(1, 9)) for j in range(1, k + 1)}
    b = {j: Fraction(rng.randint(scale, 2 * scale), rng.randint(1, 3)) for j in range(1, k + 1)}
    if violating:
        j = rng.randint(1, k)
        b[j] = -b[j]
    return {
        "schema": "external-coeffs/1",
        "k": k,
        "c": {str(j): _fmt(v) for j, v in c.items()},
        "b": {str(j): _fmt(v) for j, v in b.items()},
    }


def closed_form_slope(k: int, variant: str, s: Fraction | None) -> Fraction:
    """The paper's closed forms: the kappa slope 3(2k+5)/(k+1), and the
    induced slopes of the trace and reduced-trace correspondences as
    Moebius maps of the source slope s'."""
    if variant == "kappa":
        return Fraction(3 * (2 * k + 5), k + 1)
    if variant == "trace":
        n1 = 18 * k**3 + 31 * k * k - 69 * k + 11
        n0 = -72 * k**3 - 96 * k * k + 306 * k - 48
        q1 = 3 * k**3 - 5 * k + 1
        q0 = -12 * k**3 + 6 * k * k + 20 * k - 4
    else:
        n1 = 18 * k**3 + 19 * k * k - 117 * k + 20
        n0 = -72 * k**3 - 60 * k * k + 444 * k - 72
        q1 = 3 * k**3 - 2 * k * k - 9 * k + 2
        q0 = -12 * k**3 + 12 * k * k + 30 * k - 6
    return (n1 * s + n0) / (q1 * s + q0)


def slope_line(value: Fraction, holds: bool) -> str:
    """The exact ``slope`` output: p/q, a 6-place decimal rounded half to
    even, and the proviso status."""
    scaled = round(abs(value) * 10**6)
    whole, frac = divmod(scaled, 10**6)
    sign = "-" if value < 0 else ""
    validity = "holds" if holds else "fails"
    return f"{_fmt(value)} ≈ {sign}{whole}.{frac:06d} validity={validity}\n"


def externals_slope(seed: int, size: Size, golden: dict, workdir: str) -> list[Op]:
    """For every k in 3..K: one seeded external table (written to
    ``workdir``), a ``verify --checks delta-j-checks`` over k-1..k+1 and
    the three ``slope`` variants against it.  In each pair of
    consecutive k exactly one table violates the proviso; its verify
    must FAIL with exit code 1 and its slopes must report ``fails``."""
    rng = _rng("externals-slope", seed)
    ks = list(range(3, size.externals_k_max + 1))
    violating = set()
    for i in range(0, len(ks), 2):
        violating.add(rng.choice(ks[i : i + 2]))
    ops = []
    for k in ks:
        bad = k in violating
        path = os.path.join(workdir, f"externals-k{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(external_table(k, bad, rng), handle)
        summary = f"summary: {0 if bad else 1} passed, {1 if bad else 0} failed, 2 skipped"
        ops.append(
            Op(
                ("verify", "--k-min", str(k - 1), "--k-max", str(k + 1),
                 "--checks", "delta-j-checks", "--externals", path),
                1 if bad else 0,
                last_line=summary,
            )
        )
        for variant in ("trace", "reduced"):
            s = rng.choice(S_PRIME_GRID)
            value = closed_form_slope(k, variant, Fraction(s))
            ops.append(
                Op(
                    ("slope", "--k", str(k), "--s-prime", s, "--variant", variant,
                     "--externals", path),
                    0,
                    stdout=slope_line(value, not bad),
                )
            )
        ops.append(
            Op(
                ("slope", "--k", str(k), "--variant", "kappa", "--externals", path),
                0,
                stdout=slope_line(closed_form_slope(k, "kappa", None), not bad),
            )
        )
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    build: object
    # the highest percentile that keeps >= 10 samples beyond it in a
    # full-size run at this commit; fixed so that runs stay comparable
    tail_percentile: float


# why each workload exists is stated in BENCHMARK.json
WORKLOADS = {
    "verify-sweep": Workload(verify_sweep, 95.0),
    "emit-large-k": Workload(emit_large_k, 95.0),
    "externals-slope": Workload(externals_slope, 98.0),
}
