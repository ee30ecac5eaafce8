import decimal
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitzdiv import pushforward, serialize
from hurwitzdiv.checks import run_checks
from hurwitzdiv.cli import _CLASSES, main
from hurwitzdiv.pushforward import RAW, factorial_b
from hurwitzdiv.serialize import dumps_canonical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_json_delta_tau(capsys):
    code, out, _ = run(capsys, "class", "delta-tau", "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"] == {"E0": {"const": "2/1"}, "E_1_0": {"const": "1/1"}}
    assert obj["normalization"] == "raw"


def test_class_json_phi_lambda(capsys):
    code, out, _ = run(capsys, "class", "phi-lambda", "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"] == {"E0": {"const": "1/5"}, "E_1_0": {"const": "1/5"}}


def test_class_csv_phi_delta(capsys):
    code, out, _ = run(capsys, "class", "phi-delta:1", "--k", "3", "--format", "csv")
    assert code == 0
    assert out == "E_1_0,5/1\n"


def test_class_json_round_trip_bytes(capsys):
    code, out, _ = run(capsys, "class", "p-q-kappa", "--k", "2", "--normalized")
    assert code == 0
    obj = json.loads(out)
    assert obj["normalization"] == "per-factorial-b"
    assert dumps_canonical(obj) == out


@pytest.mark.parametrize(
    "argv",
    [
        ("class", "p-q-kappa", "--k", "255"),
        ("table", "--quantity", "coefficients:p-q-kappa", "--k-min", "255",
         "--k-max", "255", "--format", "csv"),
    ],
)
def test_numerators_past_the_int_text_limit_are_emitted(capsys, argv):
    # the raw numerators at k = 255 are longer than the 4300 digits that
    # Python converts to text by default; the limit is back afterwards
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "error:" not in err
    assert max(len(piece) for piece in out.replace("/", ",").split(",")) > 4300
    assert sys.get_int_max_str_digits() == before


def test_class_unknown_name(capsys):
    code, _, err = run(capsys, "class", "no-such-class", "--k", "1")
    assert code == 2
    assert "unknown class" in err


def test_class_range_error(capsys):
    code, _, err = run(capsys, "class", "phi-delta:99", "--k", "2")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize(
    "name",
    ["phi-delta:\u0661", "phi-delta:01", "phi-delta:\u00b2", "phihat-delta:-1",
     "q-T3j:", "q-T3j:+2"],
)
def test_class_index_grammar(capsys, name):
    # one ASCII spelling per index: no Arabic-Indic or superscript digit,
    # no leading zero, no sign
    code, out, err = run(capsys, "class", name, "--k", "3")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "0|[1-9][0-9]*" in lines[0]
    assert "invalid literal" not in err


def test_class_normalized_rejected_for_pullbacks(capsys):
    code, _, err = run(capsys, "class", "delta-tau", "--k", "1", "--normalized")
    assert code == 2
    assert "--normalized" in err


def test_class_q_rows(capsys):
    code, out, _ = run(capsys, "class", "q-T3j:2", "--k", "3", "--format", "csv")
    assert code == 0
    assert out == "E_2_0,3/1\nE_2_1,1/1\n"
    code, out, _ = run(capsys, "class", "q-T2", "--k", "1", "--format", "csv")
    assert code == 0
    assert out == "E0,1/1\n"


def test_verify_small_range_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k-min", "1", "--k-max", "2")
    assert code == 0
    assert "0 failed" in out
    assert "SKIP" in out  # delta-j-checks without externals


def test_verify_selected_checks(capsys):
    code, out, _ = run(
        capsys, "verify", "--k-min", "3", "--k-max", "4", "--checks", "closed-forms"
    )
    assert code == 0
    assert "closed-forms" in out
    assert "FAIL" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run(
        capsys, "verify", "--k-min", "1", "--k-max", "1", "--checks", "bogus"
    )
    assert code == 2
    assert "unknown check" in err


def test_verify_all_may_appear_anywhere_among_the_checks(capsys):
    # all runs every check once, in registry order; other names are still
    # validated
    argv = ("verify", "--k-min", "1", "--k-max", "4")
    every = run(capsys, *argv, "--checks", "all")
    assert every[0] == 0
    assert run(capsys, *argv, "--checks", "all,genus") == every
    assert run(capsys, *argv, "--checks", "genus,all") == every
    code, out, err = run(capsys, *argv, "--checks", "all,nope")
    assert (code, out) == (2, "")
    assert "unknown check 'nope'" in err
    assert run_checks(1, 1, ["all"]) == run_checks(1, 1)


@pytest.mark.parametrize("checks", ["", "genus,,catalan"])
def test_verify_empty_check_name_is_refused(capsys, checks):
    code, out, err = run(
        capsys, "verify", "--k-min", "1", "--k-max", "1", "--checks", checks
    )
    assert (code, out) == (2, "")
    assert "unknown check ''" in err


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--k-min", "3", "--k-max", "2")
    assert code == 2


def test_verify_with_externals_runs_delta_j(tmp_path, capsys):
    path = tmp_path / "ext.json"
    path.write_text(
        json.dumps(
            {
                "schema": "external-coeffs/1",
                "k": 1,
                "c": {"1": "-20"},
                "b": {"1": "0"},
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "verify",
        "--k-min",
        "1",
        "--k-max",
        "1",
        "--checks",
        "delta-j-checks",
        "--externals",
        str(path),
    )
    assert code == 0
    assert "PASS" in out and "SKIP" not in out


def test_verify_externals_violation_fails(tmp_path, capsys):
    path = tmp_path / "ext.json"
    path.write_text(
        json.dumps(
            {
                "schema": "external-coeffs/1",
                "k": 1,
                "c": {"1": "0"},
                "b": {"1": "0"},
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "verify",
        "--k-min",
        "1",
        "--k-max",
        "1",
        "--checks",
        "delta-j-checks",
        "--externals",
        str(path),
    )
    assert code == 1
    # the witnesses read as named values: b_j is minus the delta_j coefficient
    assert out.splitlines()[0] == (
        "k=1   delta-j-checks       FAIL  "
        "kappa slope proviso fails at k=1: b_0 = 6/1 exceeds b_1 = -8/5"
    )


def test_verify_malformed_externals(tmp_path, capsys):
    path = tmp_path / "ext.json"
    path.write_text('{"schema": "external-coeffs/1", "k": 2, "c": {"1": "0"}}')
    code, _, err = run(
        capsys, "verify", "--k-min", "1", "--k-max", "1", "--externals", str(path)
    )
    assert code == 2


def test_slope_trace(capsys):
    code, out, _ = run(
        capsys, "slope", "--k", "3", "--s-prime", "12", "--variant", "trace"
    )
    assert code == 0
    assert out == "489/59 ≈ 8.288136 validity=unknown\n"


def test_slope_kappa(capsys):
    code, out, _ = run(capsys, "slope", "--k", "3", "--variant", "kappa")
    assert code == 0
    assert out.startswith("33/4 ≈ 8.250000")
    code, out, _ = run(capsys, "slope", "--k", "1", "--variant", "kappa")
    assert code == 0
    assert out.startswith("21/2 ≈ 10.500000")


def test_slope_reduced(capsys):
    code, out, _ = run(
        capsys, "slope", "--k", "3", "--s-prime", "12", "--variant", "reduced"
    )
    assert code == 0
    assert out.startswith("224/27 ≈ 8.296296")


def test_slope_pole_exit_code(capsys):
    code, _, err = run(
        capsys, "slope", "--k", "3", "--s-prime", "214/67", "--variant", "trace"
    )
    assert code == 2


@pytest.mark.parametrize("variant", ["trace", "reduced"])
@pytest.mark.parametrize("k", [1, 2])
def test_slope_refuses_k_below_3(capsys, k, variant):
    # the genus-0 reduced trace curve at k = 1 has no delta'_1; the
    # induced slope refuses k < 3 before the target is built
    code, out, err = run(
        capsys, "slope", "--k", str(k), "--s-prime", "12", "--variant", variant
    )
    assert code == 2
    assert out == ""
    assert err == f"error: induced slopes are stated for k >= 3, got k={k}\n"


def test_slope_missing_s_prime(capsys):
    code, _, err = run(capsys, "slope", "--k", "3", "--variant", "trace")
    assert code == 2
    assert "--s-prime" in err


def test_slope_kappa_refuses_s_prime(capsys):
    # the ample-class slope takes no source slope; a given one is refused,
    # not ignored
    code, out, err = run(
        capsys, "slope", "--k", "3", "--s-prime", "12", "--variant", "kappa"
    )
    assert (code, out) == (2, "")
    assert err == "error: --s-prime does not apply to variant 'kappa'\n"


def test_slope_bad_rational(capsys):
    code, _, err = run(
        capsys, "slope", "--k", "3", "--s-prime", "twelve", "--variant", "trace"
    )
    assert code == 2


@pytest.mark.parametrize("s_prime", ["1e400", "0.5", "1_000"])
def test_slope_rejects_lenient_rationals(capsys, s_prime):
    code, out, err = run(
        capsys, "slope", "--k", "3", "--s-prime", s_prime, "--variant", "trace"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: not a rational literal: {s_prime!r}\n"


def test_slope_accepts_signed_and_integer_rationals(capsys):
    for s_prime in ("-7/2", "5"):
        code, out, err = run(
            capsys, "slope", "--k", "3", f"--s-prime={s_prime}", "--variant", "trace"
        )
        assert code == 0 and err == ""
        assert "validity=unknown" in out


# one command line per use of an integer option; "V" is the value
_INTEGER_OPTION_LINES = [
    ("class", "delta-tau", "--k", "V"),
    ("slope", "--k", "V", "--variant", "kappa"),
    ("verify", "--k-min", "V", "--k-max", "3"),
    ("verify", "--k-min", "1", "--k-max", "V"),
    ("table", "--quantity", "genus", "--k-min", "V", "--k-max", "3"),
    ("table", "--quantity", "genus", "--k-min", "1", "--k-max", "V"),
    ("m0n", "--b", "V", "count"),
]


@pytest.mark.parametrize(
    "value", ["\u0663", "\uff13", "\u00b3", "1_0", " 3", "3 ", "3/1", "3.0", "", "0x3"]
)
@pytest.mark.parametrize("line", _INTEGER_OPTION_LINES, ids=lambda line: " ".join(line))
def test_integer_options_refuse_what_rationals_refuse(capsys, line, value):
    # the numerator grammar of a rational, [+-]?[0-9]+: no non-ASCII
    # digit, underscore, space or "/"; argparse's one usage error
    argv = [value if arg == "V" else arg for arg in line]
    flag = line[line.index("V") - 1]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    errors = [text for text in captured.err.splitlines() if "error:" in text]
    assert errors == [
        f"hurwitzdiv {line[0]}: error: argument {flag}: invalid integer value: {value!r}"
    ]


@pytest.mark.parametrize("value", ["+3", "0003"])
def test_integer_options_keep_a_sign_and_leading_zeros(capsys, value):
    for line in _INTEGER_OPTION_LINES:
        plain = run(capsys, *["3" if arg == "V" else arg for arg in line])
        assert run(capsys, *[value if arg == "V" else arg for arg in line]) == plain
    # a negative value reaches the library's range text
    assert run(capsys, "m0n", "--b", "-2", "count") == (2, "", "error: need b >= 4, got -2\n")


@pytest.mark.parametrize("name", _CLASSES)
def test_class_refuses_k_zero_with_one_text(capsys, name):
    # the bases and the builders refuse k < 1 alike, and an indexed
    # class checks k before its index: at k = 0 the boundary classes have
    # no index 1 to check against
    indexed = _CLASSES[name][1]
    for index in ("0", "1", "2")[: 3 if indexed else 1]:
        code, out, err = run(capsys, "class", name + f":{index}" * indexed, "--k", "0")
        assert (code, out, err) == (2, "", "error: k must be >= 1, got 0\n")
    if indexed:
        code, out, err = run(capsys, "class", f"{name}:1", "--k", "-2")
        assert (code, out, err) == (2, "", "error: k must be >= 1, got -2\n")


def test_m0n_count(capsys):
    code, out, _ = run(capsys, "m0n", "--b", "6", "count")
    assert (code, out) == (0, "25\n")


def test_m0n_normalize(capsys):
    code, out, _ = run(capsys, "m0n", "--b", "6", "normalize", "1,2")
    assert (code, out) == (0, "{3,4,5,6}\n")


def test_m0n_intersect(capsys):
    code, out, _ = run(capsys, "m0n", "--b", "8", "intersect", "4,5", "6,7")
    assert (code, out) == (0, "nonempty\n")
    code, out, _ = run(capsys, "m0n", "--b", "8", "intersect", "4,5", "5,6")
    assert (code, out) == (0, "empty\n")


def test_m0n_refuses_b_above_the_cap_before_any_work(capsys, monkeypatch):
    from hurwitzdiv import cli, m0b

    def no_work(*args):
        raise AssertionError("m0b was called for an oversize b")

    for name in ("count_boundary", "normalize", "intersect_nonempty"):
        monkeypatch.setattr(m0b, name, no_work)
    b = str(cli.MAX_MARKED_POINTS + 1)
    for argv in (
        ("m0n", "--b", b, "count"),
        ("m0n", "--b", b, "normalize", "1,2"),
        ("m0n", "--b", b, "intersect", "1,2", "2,3"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --b is capped at {cli.MAX_MARKED_POINTS} marked points, got {b}\n"


@pytest.mark.parametrize("b", ["3", "0", "-2"])
def test_m0n_refuses_a_b_below_four_with_one_text_for_every_op(capsys, b):
    # normalize checks b before the label size, so each op refuses b < 4
    # with the text of count
    for argv in (
        ("m0n", "--b", b, "count"),
        ("m0n", "--b", b, "normalize", "1,2"),
        ("m0n", "--b", b, "intersect", "1,2", "2,3"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: need b >= 4, got {b}\n")


def test_m0n_count_at_the_cap_fits_the_default_int_text_limit(capsys):
    from hurwitzdiv import cli

    b = cli.MAX_MARKED_POINTS
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "m0n", "--b", str(b), "count")
    assert (code, err) == (0, "")
    assert out == f"{2 ** (b - 1) - b - 1}\n"
    assert len(out) - 1 <= before
    assert sys.get_int_max_str_digits() == before
    code, out, _ = run(capsys, "m0n", "--b", str(b), "normalize", "1,2")
    assert code == 0 and out.startswith("{3,4,5,")


def test_m0n_malformed_set(capsys):
    code, _, err = run(capsys, "m0n", "--b", "6", "normalize", "1,x")
    assert code == 2
    code, _, err = run(capsys, "m0n", "--b", "6", "normalize", "1")
    assert code == 2
    code, _, err = run(capsys, "m0n", "--b", "6", "intersect", "1,2")
    assert code == 2
    # each member is an index literal, 0|[1-9][0-9]*, and none is empty
    for b, text in (
        ("12", "\u0663,4"),
        ("12", " 3,4"),
        ("12", "+3,4"),
        ("12", "03,4"),
        ("12", "3,4,"),
        ("12", "1_0,4"),
        ("6", "1,,2"),
        ("6", ""),
    ):
        code, out, err = run(capsys, "m0n", "--b", b, "normalize", text)
        assert (code, out) == (2, "")
        assert err == f"error: malformed marked set {text!r}\n"
    code, out, _ = run(capsys, "m0n", "--b", "12", "normalize", "3,4")
    assert (code, out) == (0, "{3,4}\n")


def test_table_genus_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--quantity", "genus", "--k-min", "1", "--k-max", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,g,d,b,g_prime,g_hat,prym_dim"
    assert "2,4,3,12,13,4,9" in lines


def test_table_kappa_slope_md(capsys):
    code, out, _ = run(
        capsys, "table", "--quantity", "kappa-slope", "--k-min", "1", "--k-max", "5",
        "--format", "md",
    )
    assert code == 0
    for k in range(1, 6):
        expected = Fraction(3 * (2 * k + 5), k + 1)
        assert f"| {expected.numerator}/{expected.denominator} |" in out


def test_table_coefficients_json(capsys):
    code, out, _ = run(
        capsys, "table", "--quantity", "coefficients:delta-tau", "--k-min", "3",
        "--k-max", "5",
    )
    assert code == 0
    rows = json.loads(out)
    assert {"k": "3", "generator": "E3", "coefficient": "4/1"} in rows


@pytest.mark.parametrize("name", ["phi-delta:1", "phihat-delta:1", "q-T3j:1"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_indexed_coefficient_table_rows_are_the_class_rows(capsys, name, k):
    # no golden digest covers the indexed class names in a table: each
    # row of the table is "k," and one row of the class's csv, and an
    # index out of range at this k is refused the same way by both
    table = run(
        capsys, "table", "--quantity", f"coefficients:{name}", "--k-min", str(k),
        "--k-max", str(k), "--format", "csv",
    )
    one = run(capsys, "class", name, "--k", str(k), "--format", "csv")
    assert (table[0], table[2]) == (one[0], one[2])
    if one[0] != 0:
        assert (one[0], one[1], table[1]) == (2, "", "")
        return
    header, *rows = table[1].splitlines()
    assert header == "k,generator,coefficient"
    assert rows == [f"{k},{line}" for line in one[1].splitlines()]


@pytest.mark.parametrize(
    "name, k_max, covered",
    [("phihat-delta:1", 3, [2, 3]), ("q-T3j:3", 4, [3, 4])],
)
def test_indexed_coefficient_table_skips_the_uncovered_k(capsys, name, k_max, covered):
    # the rows of a range are the rows of the single-k tables at the k
    # where the indexed class exists; the other k are left out
    code, out, err = run(
        capsys, "table", "--quantity", f"coefficients:{name}", "--k-min", "1",
        "--k-max", str(k_max), "--format", "csv",
    )
    assert (code, err) == (0, "")
    expected = ["k,generator,coefficient"]
    for k in covered:
        one = run(
            capsys, "table", "--quantity", f"coefficients:{name}", "--k-min", str(k),
            "--k-max", str(k), "--format", "csv",
        )
        assert one[0] == 0
        expected.extend(one[1].splitlines()[1:])
    assert out.splitlines() == expected
    assert sorted({int(row.split(",")[0]) for row in expected[1:]}) == covered


def test_indexed_coefficient_table_with_no_covered_k_is_refused(capsys):
    # no k of the range has the class: exit 2 with the lowest k's error
    table = run(
        capsys, "table", "--quantity", "coefficients:phihat-delta:4", "--k-min", "1",
        "--k-max", "2",
    )
    one = run(capsys, "class", "phihat-delta:4", "--k", "1")
    assert table == (2, "", one[2])
    assert one[2].startswith("error: ") and one[2].count("\n") == 1


def test_table_slope_bound(capsys):
    code, out, _ = run(
        capsys, "table", "--quantity", "slope-bound", "--k-min", "1", "--k-max", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,trace_slope_s11,reduced_slope_s11,bound_6_20_g"
    assert all(not line.startswith(("1,", "2,")) for line in lines[1:])
    assert any(line.startswith("3,") for line in lines)


def test_slope_bound_table_with_no_k_from_3_is_refused(capsys):
    # rows start at k = 3: a range below it is bad input, not an empty table
    for k_max in ("1", "2"):
        code, out, err = run(
            capsys, "table", "--quantity", "slope-bound", "--k-min", "1", "--k-max", k_max
        )
        assert (code, out) == (2, "")
        assert err == f"error: slope-bound rows start at k=3; the range 1..{k_max} has none\n"
    code, out, _ = run(
        capsys, "table", "--quantity", "slope-bound", "--k-min", "1", "--k-max", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["3,4321/523,1181/143,28/3"]


@pytest.mark.parametrize(
    "quantity",
    ["genus", "kappa-slope", "slope-bound", "coefficients:p-q-kappa", "coefficients:phi-delta:2"],
)
def test_a_table_keeps_only_the_last_k_in_the_caches(capsys, quantity):
    # like a verify sweep, a table empties the builder caches between two
    # values of k: after 1..6 they hold what 6..6 alone leaves, with the
    # same rows for k = 6
    from hurwitzdiv.core import builder_caches, clear_caches

    def table(k_min):
        clear_caches()
        code, out, _ = run(
            capsys, "table", "--quantity", quantity, "--k-min", k_min, "--k-max", "6",
            "--format", "csv",
        )
        assert code == 0
        return out.splitlines(), [c.cache_info().currsize for c in builder_caches()]

    swept, swept_sizes = table("1")
    single, single_sizes = table("6")
    assert swept_sizes == single_sizes
    assert sum(single_sizes) > 0
    assert swept[-(len(single) - 1):] == single[1:]
    clear_caches()


@pytest.mark.parametrize("quantity", ["genus", "slope-bound", "coefficients:delta-tau"])
@pytest.mark.parametrize("k_min, k_max", [("3", "1"), ("-2", "3"), ("0", "0")])
def test_table_refuses_an_invalid_range(capsys, quantity, k_min, k_max):
    # like verify: an empty or non-positive range is bad input, not an
    # empty table
    code, out, err = run(
        capsys, "table", "--quantity", quantity, "--k-min", k_min, "--k-max", k_max
    )
    assert (code, out) == (2, "")
    assert err == f"error: invalid range 1 <= {k_min} <= {k_max}\n"


def test_table_unknown_quantity(capsys):
    code, _, err = run(
        capsys, "table", "--quantity", "bogus", "--k-min", "1", "--k-max", "2"
    )
    assert code == 2


def test_table_normalized_misuse(capsys):
    code, _, err = run(
        capsys, "table", "--quantity", "genus", "--k-min", "1", "--k-max", "2",
        "--normalized",
    )
    assert code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "class", "delta-tau", "--k", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text(encoding="utf-8"))
    assert obj["k"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("class", "bogus", "--k", "3"),
        ("verify", "--k-min", "3", "--k-max", "1"),
        ("slope", "--k", "3", "--variant", "kappa", "--s-prime", "1"),
        ("m0n", "--b", "6", "count", "1,2"),
        ("table", "--quantity", "bogus", "--k-min", "1", "--k-max", "2"),
        ("table", "--quantity", "coefficients:phihat-delta:4", "--k-min", "1", "--k-max", "2"),
    ],
    ids=" ".join,
)
def test_an_input_error_writes_no_out_file(tmp_path, capsys, argv):
    # the text is written only once the command has made all of it
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_a_failing_verify_writes_its_report_to_out(tmp_path, capsys):
    table = tmp_path / "ext3.json"
    table.write_text(
        json.dumps(
            {
                "schema": "external-coeffs/1",
                "k": 3,
                "c": {"1": "1", "2": "2", "3": "3"},
                "b": {"1": "40", "2": "41", "3": "42"},
            }
        ),
        encoding="utf-8",
    )
    target = tmp_path / "report.txt"
    code, out, err = run(
        capsys, "verify", "--k-min", "3", "--k-max", "3", "--checks", "delta-j-checks",
        "--externals", str(table), "--out", str(target),
    )
    assert (code, out, err) == (1, "", "")
    report = target.read_text(encoding="utf-8").splitlines()
    assert report[0].startswith("k=3   delta-j-checks       FAIL  ")
    assert report[-1] == "summary: 0 passed, 1 failed, 0 skipped"


def _write_json(tmp_path, obj):
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_verify_externals_json_list_is_an_input_error(tmp_path, capsys):
    path = _write_json(tmp_path, [{"schema": "external-coeffs/1", "k": 1}])
    code, out, err = run(
        capsys, "verify", "--k-min", "1", "--k-max", "1", "--externals", path
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "JSON object" in err


def test_verify_externals_numeric_rational_is_an_input_error(tmp_path, capsys):
    path = _write_json(
        tmp_path,
        {"schema": "external-coeffs/1", "k": 1, "c": {"1": 1}, "b": {"1": "0"}},
    )
    code, out, err = run(
        capsys, "verify", "--k-min", "1", "--k-max", "1", "--externals", path
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "c_1" in err and "p/q" in err


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000 + "]" * 100000,
        '{"schema": "external-coeffs/1", "k": 1, "c": {"1": '
        + "[" * 100000 + "]" * 100000 + '}, "b": {"1": "0"}}',
    ],
    ids=["bare", "in-a-table"],
)
@pytest.mark.parametrize(
    "command",
    [("slope", "--k", "1", "--variant", "kappa"), ("verify", "--k-min", "1", "--k-max", "1")],
    ids=["slope", "verify"],
)
def test_deeply_nested_externals_json_is_an_input_error(tmp_path, capsys, text, command):
    # the JSON decoder's RecursionError is one error line and exit 2
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *command, "--externals", str(path))
    assert (code, out, err) == (2, "", "error: externals JSON is nested too deeply\n")


def test_slope_rejects_externals_for_another_k(tmp_path, capsys):
    path = _write_json(
        tmp_path,
        {
            "schema": "external-coeffs/1",
            "k": 2,
            "c": {"1": "0", "2": "1"},
            "b": {"1": "0", "2": "3"},
        },
    )
    code, out, err = run(
        capsys, "slope", "--k", "3", "--variant", "kappa", "--externals", path
    )
    assert code == 2
    assert out == ""
    assert err == "error: external table is for k=2, not k=3\n"
    # verify over a range still skips the k that the table does not match
    code, out, _ = run(
        capsys,
        "verify",
        "--k-min", "1",
        "--k-max", "3",
        "--checks", "delta-j-checks",
        "--externals", path,
    )
    statuses = [line.split()[2] for line in out.splitlines()[:3]]
    assert statuses == ["SKIP", "FAIL", "SKIP"]


@pytest.mark.parametrize(
    "b_1, validity, got",
    [
        # c_1 = 0, b_1 = 16/27 make the delta_1 coefficient exactly 0,
        # so b_1 = 0 < b_0 = 6; it used to read as "holds" and PASS
        ("16/27", "fails", "0/1"),
        ("16000001/27000000", "fails", "1/10000000"),
        # b_1 = 76/27 makes it -6, so b_1 = b_0: the proviso holds
        ("76/27", "holds", None),
    ],
)
def test_a_zero_delta_j_coefficient_fails_the_proviso(tmp_path, capsys, b_1, validity, got):
    path = _write_json(
        tmp_path, {"schema": "external-coeffs/1", "k": 1, "c": {"1": "0"}, "b": {"1": b_1}}
    )
    code, out, _ = run(capsys, "slope", "--k", "1", "--variant", "kappa", "--externals", path)
    assert (code, out) == (0, f"21/2 ≈ 10.500000 validity={validity}\n")
    code, out, _ = run(
        capsys,
        "verify", "--k-min", "1", "--k-max", "1",
        "--checks", "delta-j-checks",
        "--externals", path,
    )
    if got is None:
        assert (code, out.splitlines()[0]) == (0, "k=1   delta-j-checks       PASS")
    else:
        assert code == 1
        assert out.splitlines()[0] == (
            "k=1   delta-j-checks       FAIL  "
            f"kappa slope proviso fails at k=1: b_0 = 6/1 exceeds b_1 = {got}"
        )


def test_verify_refuses_an_externals_table_outside_the_range(tmp_path, capsys):
    k30 = {
        "schema": "external-coeffs/1",
        "k": 30,
        "c": {str(j): "1" for j in range(1, 31)},
        "b": {str(j): "10/3" for j in range(1, 31)},
    }
    path = _write_json(tmp_path, k30)
    code, out, err = run(
        capsys,
        "verify", "--k-min", "1", "--k-max", "3",
        "--checks", "delta-j-checks",
        "--externals", path,
    )
    assert (code, out, err) == (2, "", "error: external table is for k=30, not k=1..3\n")
    # a table inside the range keeps its lines: SKIP for the other k
    k3 = {
        "schema": "external-coeffs/1",
        "k": 3,
        "c": {"1": "1", "2": "2", "3": "3"},
        "b": {"1": "4000", "2": "4100", "3": "4200"},
    }
    code, out, err = run(
        capsys,
        "verify", "--k-min", "2", "--k-max", "4",
        "--checks", "delta-j-checks",
        "--externals", _write_json(tmp_path, k3),
    )
    assert (code, err) == (0, "")
    assert out == (
        "k=2   delta-j-checks       SKIP  external coefficient table not supplied for this k\n"
        "k=3   delta-j-checks       PASS\n"
        "k=4   delta-j-checks       SKIP  external coefficient table not supplied for this k\n"
        "summary: 1 passed, 0 failed, 2 skipped\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        # an Arabic-Indic digit one was read as index 1
        '{"schema": "external-coeffs/1", "k": 1, "c": {"\\u0661": "1"}, "b": {"1": "0"}}',
        # "1" and "01" were both index 1, and the later value won
        '{"schema": "external-coeffs/1", "k": 1, "c": {"1": "1", "01": "5"}, "b": {"1": "0"}}',
        # a repeated key, where json keeps the later value
        '{"schema": "external-coeffs/1", "k": 1, "c": {"1": "1", "1": "5"}, "b": {"1": "0"}}',
    ],
    ids=["non-ascii-digit", "leading-zero", "repeated-key"],
)
def test_verify_externals_index_spellings_are_input_errors(tmp_path, capsys, text):
    path = tmp_path / "ext.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys,
        "verify", "--k-min", "1", "--k-max", "1",
        "--checks", "delta-j-checks",
        "--externals", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


PUSHED = {
    "p-phi-lambda": pushforward.p_phi_lambda,
    "p-phihat-lambda": pushforward.p_phihat_lambda,
    "p-q-kappa": pushforward.p_q_kappa,
    "eh-divisor": pushforward.eh_divisor,
}


@pytest.mark.parametrize("k", [1, 2, 3, 9, 88, 255])
@pytest.mark.parametrize("name", sorted(PUSHED))
def test_raw_emission_matches_the_materialized_raw_class(capsys, name, k):
    # raw output is rendered from the per-factorial-b class scaled by
    # (6k)!; it must be the bytes of the class converted to raw, and
    # leave the decimal context and the int text limit as they were
    context = decimal.getcontext()
    saved = (context.prec, context.Emax, dict(context.traps), dict(context.flags))
    limit = sys.get_int_max_str_digits()
    outputs = {}
    for fmt in ("json", "csv", "md"):
        outputs["class", fmt] = run(capsys, "class", name, "--k", str(k), "--format", fmt)
        outputs["table", fmt] = run(
            capsys, "table", "--quantity", f"coefficients:{name}", "--k-min", str(k),
            "--k-max", str(k), "--format", fmt,
        )
    assert decimal.getcontext() is context
    assert (context.prec, context.Emax, dict(context.traps), dict(context.flags)) == saved
    assert sys.get_int_max_str_digits() == limit

    raw = PUSHED[name](k) * factorial_b(k)
    # the reference converts the (6k)!-sized ints one by one, which passes
    # the default limit at k = 255
    sys.set_int_max_str_digits(0)
    try:
        rows = [[str(k), g, text] for g, text in serialize.coefficient_texts(raw)]
        columns = ["k", "generator", "coefficient"]
        expected = {
            ("class", "json"): serialize.class_to_json(raw, RAW),
            ("class", "csv"): serialize.class_to_csv(raw),
            ("class", "md"): serialize.class_to_md(raw),
            ("table", "json"): serialize.table_to_json(columns, rows),
            ("table", "csv"): serialize.table_to_csv(columns, rows),
            ("table", "md"): serialize.table_to_md(columns, rows),
        }
    finally:
        sys.set_int_max_str_digits(limit)
    for key, (code, out, err) in outputs.items():
        assert (code, err) == (0, ""), key
        assert out == expected[key], key


# The command list that CI runs under `python -O` and plain `python`
# (tests/cli_commands.txt): each command, run in-process in a directory
# that holds the listed externals tables, exits 1 exactly when it prints
# a FAIL line of verify, and 0 otherwise; the listed input errors exit 2
# and print nothing on stdout.

_COMMAND_LIST = Path(__file__).with_name("cli_commands.txt")


def _command_list():
    tables, commands = {}, []
    for line in _COMMAND_LIST.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("> "):
            name, text = line[2:].split(" ", 1)
            tables[name] = text
        else:
            commands.append(line.split(" "))
    return tables, commands


_TABLES, _COMMANDS = _command_list()
_INPUT_ERRORS = {
    "class delta-tau --k \u0663",
    "m0n --b 1_0 count",
    "class phi-lambda --k 0",
    "class phi-delta:1 --k 0",
    "class phihat-delta:1 --k 0",
    "slope --k 3 --s-prime 214/67 --variant trace",
    "slope --k 3 --s-prime 66/19 --variant reduced",
    "table --quantity slope-bound --k-min 1 --k-max 2",
    "table --quantity bogus --k-min 1 --k-max 2",
    "table --quantity genus --k-min 1 --k-max 2 --normalized",
    "table --quantity genus --k-min 3 --k-max 1",
    "verify --k-min 3 --k-max 1",
    "verify --k-min 3 --k-max 3 --checks delta-j-checks --externals extkeys.json",
}


def test_command_list_is_whole():
    # every command of the CI list, every table valid JSON and read by
    # some command
    assert len(_COMMANDS) == 61
    assert _INPUT_ERRORS <= {" ".join(argv) for argv in _COMMANDS}
    named = {arg for argv in _COMMANDS for arg in argv}
    assert set(_TABLES) <= named
    for text in _TABLES.values():
        json.loads(text)


@pytest.mark.parametrize("argv", _COMMANDS, ids=[" ".join(argv) for argv in _COMMANDS])
def test_listed_command_exits_one_only_on_fail(argv, tmp_path, monkeypatch, capsys):
    for name, text in _TABLES.items():
        (tmp_path / name).write_text(text + "\n")
    monkeypatch.chdir(tmp_path)
    try:
        got = main(list(argv))
    except SystemExit as exc:  # --help
        got = exc.code
    out = capsys.readouterr().out
    if " ".join(argv) in _INPUT_ERRORS:
        assert (got, out) == (2, "")
        return
    failed = re.search(r"^k=\d+ +\S+ +FAIL\b", out, re.MULTILINE)
    assert got == (1 if failed else 0)
    assert out
