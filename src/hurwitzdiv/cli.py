"""Command-line front end.

Subcommands, each one entry of the command table ``_COMMANDS`` (handler,
help, description, arguments).  ``main`` reads a plain command line (a
command, then exact flags with ordinary values and one run of
positionals; see ``_parse_plain``) straight from that table, without
argparse.  Every other line, and so all help, usage and error text, goes
through the full argparse tree built from the same table:

* ``class``: emit one divisor class in json, csv or md.  Every class
  name is one entry of the class table ``_CLASSES`` (builder, indexed,
  pushed), which also lists the names in the help text.  A pushed class
  is built per factorial b; raw output renders it with scale (6k)!.
* ``verify``: run the named identity checks over a range of k.
* ``slope``: induced and ample-class slopes with validity status; the
  variant goes to ``slopes.induced_slope``/``slope_target`` as it is.
* ``m0n``: boundary combinatorics of pointed rational curves, for at
  most ``MAX_MARKED_POINTS`` points.
* ``table``: per-k tables swept by ``core.each_k``; the table registry
  ``_TABLES`` (columns, first k, row of one k) also writes the help.
  An indexed class's coefficients table skips each k without that
  class, and no such k at all is an error.

Each handler returns (text, exit code); ``main`` writes the text once,
to stdout or ``--out``, so an error writes no file.

Exit codes: 0 on success, 1 when a verification check fails, 2 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from fractions import Fraction

from . import checks as checks_mod
from . import m0b, pushforward, serialize, slopes, trace
from .bases import DivisorClass, IndexRangeError, T2, T3j, UnknownGeneratorError
from .core import INDEX_GRAMMAR, each_k, format_rational, is_index_literal
from .core import parse_ratio, parse_rational
from .pushforward import PER_FACTORIAL_B, RAW
from .slopes import VerificationError

# name -> (builder, indexed, pushed), in the order the class help lists
# them.  An indexed name is spelled <name>:<j> and its builder takes
# (k, j); a pushed builder returns its class per factorial b.
_CLASSES = {
    "delta-tau": (trace.delta_tau, False, False),
    "omega-tau-sq": (trace.omega_tau_sq, False, False),
    "delta-s": (trace.delta_s, False, False),
    "s-omega-sq": (trace.s_omega_sq, False, False),
    "phi-lambda": (trace.phi_pull_lambda, False, False),
    "phihat-lambda": (trace.phihat_pull_lambda, False, False),
    "phi-delta": (trace.phi_pull_boundary, True, False),
    "phihat-delta": (trace.phihat_pull_boundary, True, False),
    "q-T2": (lambda k: trace.q_pullback(k).row(T2), False, False),
    "q-T3j": (lambda k, j: trace.q_pullback(k).row(T3j(j)), True, False),
    "p-phi-lambda": (pushforward.p_phi_lambda, False, True),
    "p-phihat-lambda": (pushforward.p_phihat_lambda, False, True),
    "p-q-kappa": (pushforward.p_q_kappa, False, True),
    "eh-divisor": (pushforward.eh_divisor, False, True),
    "prym-hodge": (pushforward.prym_hodge_class, False, False),
    "prym-boundary": (pushforward.prym_boundary_class, False, False),
}

# m0n refuses --b above this before any work starts: up to it the
# boundary count 2^(b-1) - b - 1 has at most 3010 digits, within Python's
# default limit of 4300 for int text, and normalize/intersect build sets
# of at most this many points
MAX_MARKED_POINTS = 10_000


class UsageError(ValueError):
    """Bad input that should exit with code 2."""


def _resolve_class(name: str, k: int, normalized: bool) -> tuple[DivisorClass, str, int]:
    """Return the requested class, the normalization label to emit and
    the int scale to emit the class times.  A push-forward class is
    always built per-factorial-b; raw output is that class with scale
    (6k)!, which the writers render without building the scaled class."""
    base, colon, arg = name.partition(":")
    builder, indexed, pushed = _CLASSES.get(base, (None, False, False))
    if builder is None or (colon and not indexed):
        raise UsageError(f"unknown class name {name!r}")
    if normalized and not pushed:
        raise UsageError(
            f"--normalized only applies to push-forward classes, not {name!r}"
        )
    if not indexed:
        d = builder(k)
    elif is_index_literal(arg):
        d = builder(k, int(arg))
    else:
        raise UsageError(
            f"class {name!r} needs an index after ':' of the form "
            f"{INDEX_GRAMMAR} (ASCII digits, no sign or leading zero)"
        )
    if not pushed:
        return d, RAW, 1
    if normalized:
        return d, PER_FACTORIAL_B, 1
    return d, RAW, pushforward.factorial_b(k)


def _cmd_class(args) -> tuple[str, int]:
    d, mode, scale = _resolve_class(args.name, args.k, args.normalized)
    if args.format == "json":
        return serialize.class_to_json(d, mode, scale), 0
    if args.format == "csv":
        return serialize.class_to_csv(d, scale), 0
    return serialize.class_to_md(d, scale), 0


def _cmd_verify(args) -> tuple[str, int]:
    externals = serialize.load_externals(args.externals) if args.externals else None
    names = None if args.checks is None else [n.strip() for n in args.checks.split(",")]
    results = checks_mod.run_checks(args.k_min, args.k_max, names, externals)
    lines = []
    for r in results:
        line = f"k={r.k:<3d} {r.check:<20s} {r.status}"
        if r.detail:
            line += f"  {r.detail}"
        lines.append(line)
    passed = sum(1 for r in results if r.status == checks_mod.PASS)
    failed = sum(1 for r in results if r.status == checks_mod.FAIL)
    skipped = sum(1 for r in results if r.status == checks_mod.SKIP)
    lines.append(f"summary: {passed} passed, {failed} failed, {skipped} skipped")
    return "\n".join(lines) + "\n", 1 if failed else 0


def _cmd_slope(args) -> tuple[str, int]:
    externals = serialize.load_externals(args.externals) if args.externals else None
    k = args.k
    if externals is not None and externals.k != k:
        raise UsageError(f"external table is for k={externals.k}, not k={k}")
    induced = None
    if args.variant == "kappa":
        if args.s_prime is not None:
            raise UsageError("--s-prime does not apply to variant 'kappa'")
        target = pushforward.p_q_kappa(k)
        slopes.kappa_slope_bound(k)
    else:
        if args.s_prime is None:
            raise UsageError(f"--s-prime is required for variant {args.variant!r}")
        s = parse_rational(args.s_prime)
        # first, so that k < 3 is refused before the target is built
        induced = slopes.induced_slope(k, s, args.variant)
        target = slopes.slope_target(k, s, args.variant)
    if externals is not None:
        target = externals.apply(target)
    report = slopes.slope_of(target)
    if induced is not None and report.slope != induced:
        raise VerificationError(
            f"slope {report.slope} differs from the induced-slope value {induced}"
        )
    return (
        f"{format_rational(report.slope)} "
        f"≈ {serialize.decimal_approx(report.slope)} "
        f"validity={report.valid.lower()}\n"
    ), 0


def _parse_set(text: str) -> set[int]:
    # each comma-separated member is an index literal; an empty one is not
    pieces = text.split(",")
    if not all(map(is_index_literal, pieces)):
        raise UsageError(f"malformed marked set {text!r}")
    return set(map(int, pieces))


def integer(text: str) -> int:
    """The ``type`` of the integer options, the numerator grammar of
    ``core.parse_ratio``; argparse names it: ``invalid integer value``."""
    if "/" in text:
        raise ValueError(f"not an integer literal: {text!r}")
    return parse_ratio(text)[0]


def _cmd_m0n(args) -> tuple[str, int]:
    b = args.b
    if b > MAX_MARKED_POINTS:
        raise UsageError(f"--b is capped at {MAX_MARKED_POINTS} marked points, got {b}")
    op = args.op
    sets = args.sets
    if op == "count":
        if sets:
            raise UsageError("count takes no set arguments")
        return f"{m0b.count_boundary(b)}\n", 0
    if op == "normalize":
        if len(sets) != 1:
            raise UsageError("normalize takes exactly one set argument")
        return f"{m0b.normalize(b, _parse_set(sets[0]))}\n", 0
    if len(sets) != 2:
        raise UsageError("intersect takes exactly two set arguments")
    first = m0b.normalize(b, _parse_set(sets[0]))
    second = m0b.normalize(b, _parse_set(sets[1]))
    return ("nonempty" if m0b.intersect_nonempty(first, second) else "empty") + "\n", 0


# quantity -> (columns, first k, row of one k), in the order the table
# help lists them; a range with no k from the first is refused.  The
# coefficients of a class, several rows per k, are the one other quantity.
_TABLES = {
    "genus": (
        tuple(field.name for field in fields(trace.GenusData)),
        1,
        lambda k: [str(v) for v in astuple(trace.genus_data(k))],
    ),
    "kappa-slope": (
        ("k", "slope"),
        1,
        lambda k: [str(k), format_rational(slopes.kappa_slope_bound(k))],
    ),
    "slope-bound": (
        ("k", "trace_slope_s11", "reduced_slope_s11", "bound_6_20_g"),
        3,
        lambda k: [
            str(k),
            format_rational(slopes.induced_slope(k, Fraction(11), slopes.TRACE)),
            format_rational(slopes.induced_slope(k, Fraction(11), slopes.REDUCED)),
            format_rational(6 + Fraction(20, 2 * k)),
        ],
    ),
}
_COEFFICIENTS = "coefficients:"


def _coefficients_table(args) -> str:
    """The coefficients table of one class over the range: each k's rows
    written whole by ``serialize.coefficient_lines``.  An indexed class
    that exists at no k of the range is refused with the last k's error:
    the index range of a boundary class grows with k, so that error
    names the widest one."""
    name = args.quantity[len(_COEFFICIENTS):]
    lines, missing = [], []
    for k in each_k(args.k_min, args.k_max):
        try:
            d, _, scale = _resolve_class(name, k, args.normalized)
        except (IndexRangeError, UnknownGeneratorError) as exc:
            missing.append(exc)  # the indexed class does not exist at this k
            continue
        lines += serialize.coefficient_lines(d, k, args.format, scale)
    if len(missing) == args.k_max - args.k_min + 1:
        raise missing[-1]
    return serialize.coefficient_table(lines, args.format)


def _table_rows(args) -> tuple[tuple[str, ...], list[list[str]]]:
    quantity = args.quantity
    ks = each_k(args.k_min, args.k_max)
    if quantity not in _TABLES:
        raise UsageError(f"unknown table quantity {quantity!r}")
    columns, first, row = _TABLES[quantity]
    if args.k_max < first:
        raise UsageError(
            f"{quantity} rows start at k={first}; the range {args.k_min}..{args.k_max} has none"
        )
    return columns, [row(k) for k in ks if k >= first]


def _cmd_table(args) -> tuple[str, int]:
    if args.quantity.startswith(_COEFFICIENTS):
        return _coefficients_table(args), 0
    if args.normalized:
        raise UsageError("--normalized only applies to coefficients tables")
    columns, rows = _table_rows(args)
    if args.format == "json":
        return serialize.table_to_json(columns, rows), 0
    if args.format == "csv":
        return serialize.table_to_csv(columns, rows), 0
    return serialize.table_to_md(columns, rows), 0


_PROG = "hurwitzdiv"
_FORMAT = ("--format", {"choices": ("json", "csv", "md"), "default": "json"})
_NORMALIZED = ("--normalized", {"action": "store_true"})
_OUT = ("--out", {"default": None})

# name -> (handler, help, description, arguments); each argument is
# (name or flag, add_argument keywords), in the order of the usage line,
# and every command ends with --out
_COMMANDS = {
    "class": (
        _cmd_class,
        "emit one divisor class",
        "Emit one divisor class.  Names: "
        + ", ".join(name + ":<j>" * indexed for name, (_, indexed, _) in _CLASSES.items())
        + ".  Push-forward classes are emitted raw (carrying "
        "the (6k)! labelling factor) unless --normalized is given.  CSV "
        "rows are generator,coefficient in natural basis order without a "
        "header; JSON objects are key-sorted.",
        (
            ("name", {}),
            ("--k", {"type": integer, "required": True}),
            _FORMAT,
            _NORMALIZED,
            _OUT,
        ),
    ),
    "verify": (
        _cmd_verify,
        "run identity checks over a range of k",
        "Run the named checks for every k in the range.  Check names: "
        + ", ".join(checks_mod.CHECKS)
        + f", or {checks_mod.ALL!r}.  Checks needing the external "
        "coefficient table are SKIPped unless --externals is given.  Exit "
        "code 1 when any check fails.",
        (
            ("--k-min", {"type": integer, "required": True}),
            ("--k-max", {"type": integer, "required": True}),
            ("--checks", {"default": None, "help": "comma-separated list"}),
            ("--externals", {"default": None}),
            _OUT,
        ),
    ),
    "slope": (
        _cmd_slope,
        "induced and ample-class slopes",
        "Print the exact slope, a 6-place decimal approximation, and the "
        "validity of the proviso that delta_0 realizes the minimal "
        "boundary coefficient (unknown while the delta_j coefficients "
        "stay symbolic).",
        (
            ("--k", {"type": integer, "required": True}),
            ("--s-prime", {"default": None, "help": 'source slope "p/q"'}),
            ("--variant", {"choices": ("trace", "reduced", "kappa"), "required": True}),
            ("--externals", {"default": None}),
            _OUT,
        ),
    ),
    "m0n": (
        _cmd_m0n,
        "boundary combinatorics of pointed rational curves",
        "Operations: count; normalize SET; intersect SET SET.  Sets are "
        "comma-separated integers, e.g. 4,5.",
        (
            ("--b", {"type": integer, "required": True}),
            ("op", {"choices": ("count", "normalize", "intersect")}),
            ("sets", {"nargs": "*"}),
            _OUT,
        ),
    ),
    "table": (
        _cmd_table,
        "per-k tables",
        "Quantities: "
        + "".join(
            f"{quantity} (columns {','.join(columns)}"
            + f"; rows start at k={first}" * (first > 1)
            + "); "
            for quantity, (columns, first, _) in _TABLES.items()
        )
        + f"{_COEFFICIENTS}<class-name> (columns {','.join(serialize.COEFFICIENT_COLUMNS)}).  "
        "Rows are ordered by k, then by natural generator order.",
        (
            ("--quantity", {"required": True}),
            ("--k-min", {"type": integer, "required": True}),
            ("--k-max", {"type": integer, "required": True}),
            _FORMAT,
            _NORMALIZED,
            _OUT,
        ),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: the root parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description=(
            "Exact divisor-class calculus for the correspondences that trace "
            "curves of pencils induce between Hurwitz spaces and moduli of "
            "curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, description, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, description=description)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(func=handler, command=name)
    return parser


def _parse_plain(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace ``_build_parser().parse_args([name, *tokens])``
    gives, read from the arguments of ``name`` in ``_COMMANDS``, or None
    when the line is not plain.

    A line is plain when every option is an exact flag of the command,
    at most once, whose value (if it takes one) is the next token and
    does not start with "-"; every value passes argparse's checks in
    argparse's order, ``type`` then ``choices``; every required option
    is given; and the positionals are one contiguous run, of which a
    ``nargs="*"`` argument takes the rest.  Help, errors and every other
    shape (abbreviations, ``--flag=value``, ``--``, a value or positional
    starting with "-", positionals split by options) are left to
    argparse."""
    handler, _, _, arguments = _COMMANDS[name]
    by_flag = dict(arguments)
    given: dict[str, str | bool] = {}
    run: list[str] = []  # the positional tokens
    run_end = 0  # the index just past the last positional token
    index = 0
    while index < len(tokens):
        token = tokens[index]
        index += 1
        if not token.startswith("-"):
            if run and run_end != index - 1:
                return None
            run.append(token)
            run_end = index
        elif token not in by_flag or token in given:
            return None
        elif by_flag[token].get("action") == "store_true":
            given[token] = True
        elif index < len(tokens) and not tokens[index].startswith("-"):
            given[token] = tokens[index]
            index += 1
        else:
            return None
    namespace = argparse.Namespace(func=handler, command=name)
    for flag, keywords in arguments:
        if keywords.get("action") == "store_true":
            value = flag in given
        elif keywords.get("nargs") == "*":
            value, run = run, []
        elif flag.startswith("-") and flag not in given:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        else:
            if flag.startswith("-"):
                text = given[flag]
            elif run:
                text, *run = run
            else:
                return None
            try:
                value = keywords.get("type", str)(text)
            except (TypeError, ValueError):
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        setattr(namespace, flag.lstrip("-").replace("-", "_"), value)
    return None if run else namespace


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``: a plain line (see
    ``_parse_plain``) is read straight from ``_COMMANDS``, and every
    other line goes through the full argparse tree, so argparse alone
    writes help, usage and error text.  The one exception is a first
    token that is no command and no option, or a ``--`` with tokens
    after it: it is refused here, with the quoted invalid-choice text of
    argparse up to 3.12, where 3.13 lists the choices unquoted or skips
    the ``--``."""
    if argv and argv[0] in _COMMANDS:
        args = _parse_plain(argv[0], argv[1:])
        if args is not None:
            return args
    elif argv and (not argv[0].startswith("-") or (argv[0] == "--" and len(argv) > 1)):
        choices = ", ".join(map(repr, _COMMANDS))
        _build_parser().error(
            f"argument command: invalid choice: {argv[0]!r} (choose from {choices})"
        )
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    try:
        text, code = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        return code
    # every input error of the package (UsageError, ClassGroupError,
    # MarkedSetError, SlopeError, json.JSONDecodeError) is a ValueError
    except (VerificationError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationError) else 2


if __name__ == "__main__":
    sys.exit(main())
