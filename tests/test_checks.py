import json
from fractions import Fraction

import pytest

from hurwitzdiv.checks import CHECKS, FAIL, PASS, SKIP, run_checks
from hurwitzdiv.pushforward import ExternalCoeffs


def test_registry_names():
    assert set(CHECKS) == {
        "genus",
        "catalan",
        "small-k-cases",
        "grr-assembly",
        "hodge-closed-forms",
        "closed-forms",
        "slopes",
        "bounds",
        "m0n",
        "hygiene",
        "delta-j-checks",
    }


# The lines verify prints per k, in order: (check, first k, last k or
# None), one row per line.  E3 exists from k = 2, E2 and the induced
# slopes from k = 3, and closed-forms prints its composite rows from
# k = 2 and the pushed closed forms from k = 3.
_LAYOUT = (
    ("genus", 1, None),
    ("catalan", 1, None),
    ("small-k-cases", 1, 2),
    ("grr-assembly", 1, None),
    ("hodge-closed-forms", 1, None),
    ("closed-forms", 2, None),
    ("closed-forms", 3, None),
    ("slopes", 3, None),
    ("bounds", 1, None),
    ("m0n", 1, None),
    ("hygiene", 1, None),
    ("delta-j-checks", 1, None),
)


def test_check_layout_by_k():
    expected = [
        (name, k)
        for k in range(1, 13)
        for name, first, last in _LAYOUT
        if first <= k and (last is None or k <= last)
    ]
    assert [(r.check, r.k) for r in run_checks(1, 12)] == expected


def test_run_checks_small_range():
    results = run_checks(1, 3)
    assert all(r.status in (PASS, SKIP) for r in results)
    skipped = [r for r in results if r.status == SKIP]
    assert {r.check for r in skipped} == {"delta-j-checks"}


def test_a_repeated_check_name_runs_once(capsys):
    # each named check runs once, in the order it was first named; a
    # repeat is validated like any name
    named = run_checks(1, 2, ["catalan", "genus", "catalan", "genus"])
    assert [(r.check, r.k) for r in named] == [
        ("catalan", 1), ("genus", 1), ("catalan", 2), ("genus", 2)
    ]
    assert run_checks(1, 1, ["genus", "all", "genus"]) == run_checks(1, 1)
    with pytest.raises(ValueError, match="unknown check 'nope'"):
        run_checks(1, 1, ["genus", "genus", "nope"])
    from hurwitzdiv.cli import main

    assert main(["verify", "--k-min", "1", "--k-max", "1", "--checks", "genus,genus"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["k=1", "genus", "PASS"], ["summary:", "1", "passed,", "0", "failed,", "0", "skipped"]
    ]


def test_run_checks_validates_input():
    with pytest.raises(ValueError):
        run_checks(0, 3)
    with pytest.raises(ValueError):
        run_checks(3, 2)
    with pytest.raises(ValueError):
        run_checks(1, 1, ["nope"])
    # a table for a k outside the range is refused, not left unused
    ext = ExternalCoeffs(5, {j: 1 for j in range(1, 6)}, {j: 0 for j in range(1, 6)})
    for k_min, k_max in ((1, 4), (6, 9)):
        with pytest.raises(ValueError, match=rf"^external table is for k=5, not k={k_min}\.\.{k_max}$"):
            run_checks(k_min, k_max, ["genus"], ext)


def test_a_bound_that_is_not_an_int_is_refused_before_any_check_runs(monkeypatch):
    # a float bound is no k at all, and a bool one is refused by every
    # builder (bases.require_k, the typed per_k_cache), so the sweep
    # refuses both at the call, with the one range text
    from hurwitzdiv import trace
    from hurwitzdiv.core import each_k

    real, calls = trace.genus_data, []
    monkeypatch.setattr(trace, "genus_data", lambda k: calls.append(k) or real(k))
    for sweep, k_min, k_max in ((run_checks, 1, 2.5), (each_k, 1.0, 2), (run_checks, True, 2)):
        with pytest.raises(ValueError, match=rf"^invalid range 1 <= {k_min} <= {k_max}$"):
            sweep(k_min, k_max)
    assert calls == []
    # the patched builder is the one the genus check calls
    assert [r.status for r in run_checks(1, 2, ["genus"])] == [PASS, PASS]
    assert calls == [1, 2]


def test_delta_j_checks_with_matching_externals():
    ext = ExternalCoeffs(1, {1: Fraction(-20)}, {1: Fraction(0)})
    results = run_checks(1, 2, ["delta-j-checks"], ext)
    by_k = {r.k: r.status for r in results}
    assert by_k[1] == PASS
    assert by_k[2] == SKIP  # table is for k = 1 only


def test_delta_j_checks_detects_proviso_violation():
    ext = ExternalCoeffs(1, {1: Fraction(0)}, {1: Fraction(0)})
    results = run_checks(1, 1, ["delta-j-checks"], ext)
    assert results[0].status == FAIL


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_a_cold_delta_j_check_substitutes_each_pushed_class_once(monkeypatch, k):
    # six pushed classes, six substitutions: the kappa proviso and the
    # Hodge slope are read from the substituted classes
    from hurwitzdiv import bases
    from hurwitzdiv.core import clear_caches

    real = bases.DivisorClass._substituted
    calls = []

    def counted(self, c, b, den):
        calls.append(self)
        return real(self, c, b, den)

    monkeypatch.setattr(bases.DivisorClass, "_substituted", counted)
    ext = ExternalCoeffs(
        k,
        {j: Fraction(-j, 3) for j in range(1, k + 1)},
        {j: Fraction(10**6 * j, 7) for j in range(1, k + 1)},
    )
    clear_caches()
    assert [r.status for r in run_checks(k, k, ["delta-j-checks"], ext)] == [PASS]
    assert len(calls) == 6
    assert len(set(map(id, calls))) == 6
    clear_caches()


def test_m0n_fails_when_one_intersection_pair_is_flipped(monkeypatch):
    from hurwitzdiv import m0b

    assert run_checks(1, 1, ["m0n"])[0].status == PASS
    real = m0b.intersect_nonempty
    flipped = (m0b.normalize(8, {4, 5}), m0b.normalize(8, {5, 6}))

    def mutant(x, y):
        return real(x, y) != ((x, y) == flipped)

    monkeypatch.setattr(m0b, "intersect_nonempty", mutant)
    [result] = run_checks(1, 1, ["m0n"])
    assert result.status == FAIL
    assert "b=8" in result.detail


def _package_caches():
    # every module-level lru_cache of the package, found by hand
    import importlib
    import pkgutil

    import hurwitzdiv

    found = []
    for info in pkgutil.iter_modules(hurwitzdiv.__path__):
        module = importlib.import_module(f"hurwitzdiv.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                found.append(value)
    return found


def test_every_builder_cache_is_registered():
    from hurwitzdiv.core import builder_caches

    registered = builder_caches()
    assert len(set(map(id, registered))) == len(registered)
    assert {id(c) for c in _package_caches()} == set(map(id, registered))


def test_a_sweep_keeps_only_the_last_k_in_the_caches(monkeypatch):
    from hurwitzdiv import core, trace
    from hurwitzdiv.core import builder_caches, clear_caches

    def sizes():
        return [c.cache_info().currsize for c in builder_caches()]

    clear_caches()
    swept = run_checks(1, 6)
    swept_sizes = sizes()
    clear_caches()
    single = run_checks(6, 6)
    assert swept_sizes == sizes()
    assert swept[-len(single):] == single
    # after the sweep, k = 6 is a hit and k = 5 a miss
    clear_caches()
    run_checks(1, 6)
    before = trace.delta_tau.cache_info()
    trace.delta_tau(6)
    trace.delta_tau(5)
    after = trace.delta_tau.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    # the same results with nothing cleared, which holds every k
    monkeypatch.setattr(core, "clear_caches", lambda: None)
    clear_caches()
    assert run_checks(1, 6) == swept
    assert sum(sizes()) > sum(swept_sizes)
    clear_caches()


def test_only_check_level_failures_become_fail(monkeypatch):
    from hurwitzdiv import trace
    from hurwitzdiv.cli import main
    from hurwitzdiv.bases import IndexRangeError
    from hurwitzdiv.slopes import SlopeError, VerificationError

    def raising(error):
        def builder(k):
            raise error("patched builder")

        return builder

    # a failed identity, and a class the package built that has no
    # slope shape, are FAILs
    for error in (VerificationError, SlopeError):
        monkeypatch.setattr(trace, "grr_pieces", raising(error))
        [result] = run_checks(3, 3, ["grr-assembly"])
        assert (result.status, result.detail) == (FAIL, "patched builder")
    monkeypatch.setattr(trace, "grr_pieces", raising(TypeError))
    with pytest.raises(TypeError, match="patched builder"):
        run_checks(3, 3, ["grr-assembly"])
    # a known error class still reaches the command line as exit code 2
    monkeypatch.setattr(trace, "grr_pieces", raising(IndexRangeError))
    assert main(["verify", "--k-min", "3", "--k-max", "3", "--checks", "grr-assembly"]) == 2


_CLOSED_FORM_DETAILS = {
    "p_phi_lambda_closed_coeffs": "pushed trace Hodge class differs from closed form",
    "p_phihat_lambda_closed_coeffs": "pushed reduced Hodge class differs from closed form",
    "p_phi_delta0_closed_coeffs": "pushed boundary class differs from closed form",
    "p_phihat_delta0_closed_coeffs": "pushed reduced boundary class differs from closed form",
    "eh_closed_coeffs": "branch divisor differs from closed form",
    "p_q_kappa_closed_coeffs": "pushed ample class differs from closed form",
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_DETAILS))
def test_closed_forms_fail_names_the_pushed_class(monkeypatch, name):
    # each closed (lambda, delta_0) pair, off by one in lambda, FAILs the
    # second closed-forms result with the text that names its class
    from hurwitzdiv import pushforward

    real = getattr(pushforward, name)

    def off_by_one(k):
        lam, d0 = real(k)
        return lam + 1, d0

    monkeypatch.setattr(pushforward, name, off_by_one)
    results = run_checks(4, 4, ["closed-forms"])
    assert [(r.status, r.detail) for r in results] == [
        (PASS, ""),
        (FAIL, _CLOSED_FORM_DETAILS[name]),
    ]


@pytest.mark.parametrize("family, what", [("t", "trace"), ("u", "reduced")])
def test_closed_forms_fail_names_the_delta_j_generator(monkeypatch, family, what):
    # the e.t (or e.u) row of delta_2 off by one FAILs the second
    # closed-forms result with the text that names delta_2 and the class
    from hurwitzdiv import pushforward

    from hurwitzdiv.bases import ejc_offsets

    real = pushforward.jc_family

    def off_by_one(k, fam):
        flat = real(k, fam)
        if fam != family:
            return flat
        # the entry (2, 0), the first of row 2
        at = ejc_offsets(k)[2]
        return flat[:at] + (flat[at] + 1,) + flat[at + 1 :]

    assert [(r.status, r.detail) for r in run_checks(4, 4, ["closed-forms"])] == [
        (PASS, ""),
        (PASS, ""),
    ]
    monkeypatch.setattr(pushforward, "jc_family", off_by_one)
    results = run_checks(4, 4, ["closed-forms"])
    assert [(r.status, r.detail) for r in results] == [
        (PASS, ""),
        (FAIL, f"delta_2 coefficient of the pushed {what} Hodge class"),
    ]


def test_closed_forms_reads_a_fixed_number_of_coefficients(monkeypatch):
    # the Hodge classes are compared whole, so only the lambda/delta_0
    # reads of the six pushed classes call coefficient, at every k
    from hurwitzdiv import bases

    real = bases.DivisorClass.coefficient
    calls = []

    def counted(self, name):
        calls.append(name)
        return real(self, name)

    monkeypatch.setattr(bases.DivisorClass, "coefficient", counted)
    counts = []
    for k in (10, 40):
        calls.clear()
        assert {r.status for r in run_checks(k, k, ["closed-forms"])} == {PASS}
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_a_cold_verify_reads_each_mobius_pair_once(monkeypatch):
    # the Moebius pair of each variant is read from the lambda_delta0 of
    # its two pushed classes once per k: one read per (k, variant), 2 x 2
    # reads, beside the 6 + 6 lambda_delta0 reads of closed-forms and
    # hygiene and the 1 of bounds; each of them reads the numerators once
    from hurwitzdiv import checks as checks_mod
    from hurwitzdiv import slopes
    from hurwitzdiv.core import clear_caches

    real_pair, real_nums = slopes.lambda_delta0, slopes._mg_numerators
    pairs, nums = [], []

    def counted_pair(d):
        pairs.append(d)
        return real_pair(d)

    def counted_nums(d):
        nums.append(d)
        return real_nums(d)

    monkeypatch.setattr(slopes, "lambda_delta0", counted_pair)
    monkeypatch.setattr(checks_mod, "lambda_delta0", counted_pair)
    monkeypatch.setattr(slopes, "_mg_numerators", counted_nums)
    for k, expected in ((1, 7), (2, 9), (3, 13), (4, 13), (10, 13)):
        clear_caches()
        pairs.clear()
        nums.clear()
        assert FAIL not in {r.status for r in run_checks(k, k)}
        variants = 2 if k >= 3 else 0
        assert slopes._mobius_substitution.cache_info().misses == variants, k
        assert len(pairs) == expected + 2 * variants, k
        assert len(nums) == len(pairs), k
    clear_caches()


def test_catalan_fail_names_the_row(monkeypatch):
    from hurwitzdiv import trace

    # catalan reads the integer alpha table that p_q_map shares
    real = trace.alpha_table
    monkeypatch.setattr(
        trace, "alpha_table", lambda k: tuple(a + (j == 1) for j, a in enumerate(real(k)))
    )
    [result] = run_checks(4, 4, ["catalan"])
    assert (result.status, result.detail) == (
        FAIL,
        "pushed T3j_1 differs from alpha(k, j) delta_1",
    )


def test_bounds_fails_on_a_mobius_mutant(monkeypatch):
    # a wrong closed-form Moebius map is a FAIL of bounds, not an exception
    from hurwitzdiv import slopes

    real = slopes._mobius_closed

    def negated_denominator(k, variant):
        numerator, (q1, q0) = real(k, variant)
        return numerator, (-q1, -q0)

    monkeypatch.setattr(slopes, "_mobius_closed", negated_denominator)
    [result] = run_checks(4, 4, ["bounds"])
    assert (result.status, result.detail) == (
        FAIL,
        "trace-slope denominator at the ample boundary is not positive",
    )


def test_catalan_reads_the_cached_composite(monkeypatch):
    # catalan compares the rows of p_push o q_pullback and applies no map;
    # closed-forms at the same k reuses that composite
    from hurwitzdiv import bases, pushforward
    from hurwitzdiv.core import clear_caches

    calls = []
    real_apply = bases.ClassMap.apply

    def counted(self, d):
        calls.append(d)
        return real_apply(self, d)

    monkeypatch.setattr(bases.ClassMap, "apply", counted)
    for k in (1, 2, 5):
        clear_caches()
        calls.clear()
        assert [r.status for r in run_checks(k, k, ["catalan"])] == [PASS]
        assert calls == []
        run_checks(k, k, ["closed-forms"])
        info = pushforward.p_q_composed.cache_info()
        assert (info.misses, info.hits) == (1, 1 if k >= 2 else 0)
    clear_caches()


def test_a_symbol_in_lambda_is_refused_before_hygiene():
    # the store holds symbols only on delta_j, j >= 1, so a c_1 term on
    # lambda is refused where the class is built and never reaches a
    # check; hygiene still reads lambda and delta_0 of each pushed class
    from hurwitzdiv.bases import ClassGroupError, DivisorClass, LAMBDA, mg_basis
    from hurwitzdiv.core import AffineExpr, c_sym

    with pytest.raises(ClassGroupError, match="^generator 'lambda' of Mg\\(k=1\\) breaks"):
        DivisorClass(mg_basis(1), {LAMBDA: AffineExpr(0, {c_sym(1): 1})})
    assert [r.status for r in run_checks(1, 1, ["hygiene"])] == [PASS]


def test_a_symbol_in_lambda_cannot_reach_a_full_verify(capsys):
    # the leak that closed-forms and hygiene used to FAIL on cannot be
    # built, and the full verify passes
    from hurwitzdiv.bases import ClassGroupError, DivisorClass, LAMBDA, mg_basis
    from hurwitzdiv.cli import main
    from hurwitzdiv.core import AffineExpr, c_sym

    with pytest.raises(ClassGroupError, match="^generator 'lambda' of Mg\\(k=3\\) breaks"):
        DivisorClass(mg_basis(3), {LAMBDA: AffineExpr(0, {c_sym(1): 1})})
    assert main(["verify", "--k-min", "3", "--k-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == "k=3   closed-forms         PASS"
    assert lines[9] == "k=3   hygiene              PASS"
    assert lines[-1] == "summary: 10 passed, 0 failed, 1 skipped"


@pytest.fixture
def cold_caches():
    # the builders sit behind lru_cache; start and end cold so a patched
    # value neither hides behind nor leaks into the cache
    from hurwitzdiv.core import clear_caches

    clear_caches()
    yield
    clear_caches()


def _verify_fails(capsys, check, detail):
    from hurwitzdiv.cli import main

    argv = ["verify", "--k-min", "3", "--k-max", "3", "--checks", check]
    assert main(argv) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line == f"k=3   {check:<20s} FAIL  {detail}"


@pytest.mark.parametrize(
    "patched, detail",
    [
        ("genus_trace", "trace genus mismatch"),
        ("genus_reduced_trace", "Prym dimension closed form"),
    ],
)
def test_a_genus_mutant_fails_genus(monkeypatch, capsys, cold_caches, patched, detail):
    # genus_data takes each genus from its one builder; the check holds
    # g' to (g - 1)(2d - 3) + (d - 1)^2 and the Prym dimension to its
    # closed form
    from hurwitzdiv import trace

    monkeypatch.setattr(trace, patched, lambda k: 0)
    _verify_fails(capsys, "genus", detail)


def test_a_catalan_mutant_fails_catalan(monkeypatch, capsys, cold_caches):
    # catalan_number is C(2k, k) // (k + 1); the check holds k N(k) to
    # C(2k, k + 1).  The mutant adds k + 1 to C(2k, k), so that N(k)
    # grows by one: a smaller change could vanish in the floor division
    from hurwitzdiv import trace

    real = trace.comb
    monkeypatch.setattr(
        trace, "comb", lambda n, m: real(n, m) + (m + 1 if 2 * m == n else 0)
    )
    _verify_fails(capsys, "catalan", "the two Catalan expressions disagree")


def test_hygiene_fails_when_raw_output_is_not_integral(monkeypatch):
    # 7 does not divide 6! = 720, so a coefficient 1/7 at k = 1 leaves a
    # fraction in the raw class; p_phi_lambda(1) is delta_0/10 + delta_1/5
    from hurwitzdiv import pushforward
    from hurwitzdiv.bases import DivisorClass, delta, mg_basis

    real = pushforward.p_phi_lambda
    seventh = DivisorClass(mg_basis(1), {delta(1): Fraction(1, 7)})
    monkeypatch.setattr(pushforward, "p_phi_lambda", lambda k: real(k) + seventh)
    [result] = run_checks(1, 1, ["hygiene"])
    assert (result.status, result.detail) == (
        FAIL,
        "denominator 70 of the pushed trace Hodge class does not divide (6k)!",
    )


@pytest.mark.parametrize("patched", ["omega_tau_sq", "delta_tau"])
def test_a_hodge_summand_mutant_fails_hodge_closed_forms(
    monkeypatch, capsys, cold_caches, patched
):
    # phi_pull_lambda is (omega^2 + delta)/12 by construction, so a wrong
    # summand shows in its comparison with the closed form
    from hurwitzdiv import trace
    from hurwitzdiv.bases import DivisorClass, E0, hurwitz_basis

    real = getattr(trace, patched)
    monkeypatch.setattr(
        trace, patched, lambda k: real(k) + DivisorClass(hurwitz_basis(k), {E0: 1})
    )
    detail = "trace Hodge pullback differs from its closed form"
    _verify_fails(capsys, "hodge-closed-forms", detail)


def _externals_k7(directory):
    # every b_j far above b_0, so the slope proviso holds
    table = {
        "schema": "external-coeffs/1",
        "k": 7,
        "c": {str(j): "-3/2" for j in range(1, 8)},
        "b": {str(j): "1000000" for j in range(1, 8)},
    }
    (directory / "externals-k7.json").write_text(json.dumps(table), encoding="utf-8")


def _argvs_of_the_workloads():
    from test_cli_parser import WORKLOAD_LINES

    return (("verify", "--k-min", "30", "--k-max", "30"), *WORKLOAD_LINES)


@pytest.mark.parametrize("argv", _argvs_of_the_workloads(), ids=" ".join)
def test_a_cold_command_builds_no_class_through_the_validating_constructor(
    monkeypatch, tmp_path, capsys, cold_caches, argv
):
    # every builder on these paths writes its integers into the stored
    # form; DivisorClass.__init__ re-checks names a builder made itself
    from hurwitzdiv import bases
    from hurwitzdiv.cli import main

    _externals_k7(tmp_path)
    monkeypatch.chdir(tmp_path)
    calls = []
    real = bases.DivisorClass.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(bases.DivisorClass, "__init__", counting_init)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert out and "FAIL" not in out
    assert calls == []
