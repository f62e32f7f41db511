import json
import subprocess
import sys
import time

import pytest

from ffyb import polyfq, verify
from ffyb.cli import main
from ffyb.errors import BudgetExceededError
from ffyb.gf import Field


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


def test_count_both_methods_agree(capsys):
    rep = run_json(capsys, "count", "--p", "2", "--n", "3", "--a", "1",
                   "--method", "both")
    assert rep["schema"] == 1
    assert rep["total"] == "58"
    assert rep["closed_form"] == rep["brute_force"] == "58"
    assert rep["agree"] is True


def test_count_closed_only(capsys):
    rep = run_json(capsys, "count", "--p", "3", "--s", "2", "--n", "4", "--a", "5")
    assert rep["q"] == 9
    assert rep["method"] == "closed_form"
    q = 9
    assert rep["total"] == str(q**3 * (q * q + 1) * (q**3 + q * q + 3 * q + 2) + 2)


def test_count_a_zero_routes_to_full_space(capsys):
    rep = run_json(capsys, "count", "--p", "3", "--n", "2", "--a", "0")
    assert rep["method"] == "a_zero"
    assert rep["total"] == "81"


def test_count_rand_nonzero_records_seed(capsys):
    rep1 = run_json(capsys, "count", "--p", "5", "--n", "2",
                    "--a", "rand-nonzero", "--seed", "7")
    rep2 = run_json(capsys, "count", "--p", "5", "--n", "2",
                    "--a", "rand-nonzero", "--seed", "7")
    assert rep1 == rep2
    assert rep1["a_source"] == "rand-nonzero"
    assert rep1["seed"] == 7
    assert 1 <= rep1["a"] <= 4


def test_orbits_report(capsys):
    rep = run_json(capsys, "orbits", "--p", "3", "--n", "2", "--a", "1")
    assert len(rep["orbits"]) == 3
    sizes = [o["orbit_size"] for o in rep["orbits"]]
    assert sizes == ["1", "12", "1"]
    assert rep["total"] == "14"


def test_classify_command(capsys):
    rep = run_json(capsys, "classify", "--p", "2", "--n", "3", "--a", "1",
                   "--matrix", "0,0,0;0,0,1;0,0,1")
    assert rep["label"] == "Mixed{k=1,b=0}"
    assert rep["rank"] == 1
    assert rep["stabilizer_order"] == "6"
    assert rep["orbit_size"] == "28"


def test_classify_rejects_non_solution(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "2", "--n", "2", "--a", "1",
                           "--matrix", "1,1;0,1")
    assert code == 1
    assert "not a solution" in err


def test_smith_command(capsys):
    rep = run_json(capsys, "smith", "--p", "5", "--n", "2", "--a", "1",
                   "--matrix", "0,1;0,1")
    assert rep["invariant_factors"] == ["1", "0,4,1"]
    assert rep["elementary_divisors"] == ["0,1", "4,1"]
    assert rep["rational_canonical_form"] == "0,1;0,1"


@pytest.mark.parametrize("n, matrix", [("3", "1,0;0,1"), ("2", "1,0,0;0,1,0;0,0,1"),
                                       ("2", "1,0,0;0,1,0")])
def test_smith_rejects_a_matrix_that_is_not_n_by_n(capsys, n, matrix):
    code, out, err = run_cli(capsys, "smith", "--p", "2", "--n", n, "--matrix", matrix)
    assert code == 1 and out == ""
    assert f"error: expected a {n}x{n} matrix" in err


def test_smith_command_computes_the_invariant_factors_once(monkeypatch, capsys):
    calls = []
    real = polyfq.invariant_factors

    def counted(X):
        calls.append(X)
        return real(X)
    monkeypatch.setattr(polyfq, "invariant_factors", counted)
    rep = run_json(capsys, "smith", "--p", "3", "--n", "3", "--a", "1",
                   "--matrix", "1,0,0;0,1,0;0,0,2")
    assert len(calls) == 1
    assert rep["invariant_factors"] == ["1", "2,1", "2,0,1"]
    assert rep["elementary_divisors"] == ["1,1", "2,1", "2,1"]
    assert rep["rational_canonical_form"] == "1,0,0;0,0,1;0,1,0"


def block_companion(p, *tails):
    """The matrix text, over GF(p), of the direct sum of the companion
    matrices of the monic polynomials x^d + tail, constant term first."""
    n = sum(len(t) for t in tails)
    rows = [[0] * n for _ in range(n)]
    o = 0
    for tail in tails:
        d = len(tail)
        for i in range(1, d):
            rows[o + i][o + i - 1] = 1
        for i, c in enumerate(tail):
            rows[o + i][o + d - 1] = -c % p
        o += d
    return ";".join(",".join(map(str, r)) for r in rows)


def test_smith_refuses_to_factor_beyond_the_budget(capsys, monkeypatch):
    # x^3 + x + 1 and x^3 + x + 3 are irreducible over GF(101)
    argv = ("smith", "--p", "101", "--n", "6", "--matrix",
            block_companion(101, (1, 1, 0), (3, 1, 0)))
    need = polyfq.factor_cost(101, 6)
    code, out, err = run_cli(capsys, *argv, "--budget", str(need - 1))
    assert code == 2 and out == ""
    assert f"needs {need} field multiplications, budget is {need - 1}" in err
    monkeypatch.setenv("FFYB_BUDGET", str(need - 1))
    assert run_cli(capsys, *argv)[0] == 2


def test_smith_runs_when_the_budget_covers_the_factoring_cost(capsys):
    # x^2 + x + 1 and x^2 + 2 are irreducible over GF(5); with k = 5 and
    # L = 3, factor_cost is (18 L + 29) 4 k^2 + 27 k^3 + 2 L k = 11705
    argv = ("smith", "--p", "5", "--n", "4", "--matrix", block_companion(5, (1, 1), (2, 0)))
    code, out, err = run_cli(capsys, *argv, "--budget", "11704")
    assert code == 2 and out == ""
    assert "needs 11705 field multiplications, budget is 11704" in err
    rep = run_json(capsys, *argv, "--budget", "11705")
    assert rep["invariant_factors"] == ["1", "1", "1", "2,2,3,1,1"]
    assert rep["elementary_divisors"] == ["1,1,1", "2,0,1"]


@pytest.mark.parametrize("argv, divisors", [
    # the last two irreducible cubics over GF(101) in scan order
    (("--p", "101", "--n", "6", "--matrix", "0,1,0,0,0,0;0,0,1,0,0,0;0,0,0,1,0,0;"
      "0,0,0,0,1,0;0,0,0,0,0,1;100,99,82,85,71,18"), ["100,100,85,1", "100,100,99,1"]),
    (("--p", "1048573", "--n", "2", "--matrix", "1048571,0;0,1048570"), ["2,1", "3,1"]),
])
def test_smith_factors_the_former_worst_cases_at_the_default_budget(capsys, argv, divisors):
    start = time.perf_counter()
    rep = run_json(capsys, "smith", *argv)
    assert time.perf_counter() - start < 1
    assert rep["elementary_divisors"] == divisors


def test_enumerate_with_list(capsys):
    rep = run_json(capsys, "enumerate", "--p", "2", "--n", "2", "--a", "1", "--list")
    assert rep["total"] == "8"
    assert len(rep["solutions"]) == 8
    assert "0,0;0,0" in rep["solutions"]


def test_enumerate_list_is_capped_by_solutions_not_search_space(capsys):
    # 3^16 matrices are searched, but only the 12692 solutions are listed
    closed = run_json(capsys, "count", "--p", "3", "--n", "4", "--a", "1")["total"]
    rep = run_json(capsys, "enumerate", "--p", "3", "--n", "4", "--a", "1", "--list")
    assert rep["total"] == closed == "12692"
    assert len(set(rep["solutions"])) == 12692


def test_enumerate_list_refused_above_list_limit(monkeypatch, capsys):
    monkeypatch.setattr("ffyb.solutions.LIST_LIMIT", 10)
    code, out, err = run_cli(capsys, "enumerate", "--p", "3", "--n", "2", "--a", "1",
                             "--list")
    assert code == 2
    assert out == ""
    assert "solution list" in err


def test_ideal_report_refused_before_it_is_built(capsys):
    # C(127, 2) * 126 = 1,008,126 exponent entries exceed LIST_LIMIT; n = 125
    # has 984,375
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ideal", "--p", "2", "--n", "126")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "generator report needs 1008126 exponent entries" in err


def test_invariants_command(capsys):
    rep = run_json(capsys, "invariants", "--p", "2", "--n", "3", "--a", "1",
                   "--minimal-subsets")
    assert rep["image_points"] == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]]
    assert rep["full_set_separates"] is True
    assert rep["trace_alone_separates"] is False
    assert rep["minimal_separating_subsets"] == [[1, 2]]


@pytest.mark.parametrize("n", [1000, 10**9])
def test_invariants_report_refused_before_it_is_built(capsys, monkeypatch, n):
    # (n+1)*n coordinate entries: 1,001,000 at n = 1000 exceed LIST_LIMIT,
    # n = 999 has 999,000
    import ffyb.invariants

    def build(inst):
        raise AssertionError("image points built")

    monkeypatch.setattr(ffyb.invariants, "_image_encodings", build)
    code, out, err = run_cli(capsys, "invariants", "--p", "2", "--n", str(n))
    assert code == 2
    assert out == ""
    assert f"image point report needs {(n + 1) * n} coordinate entries" in err


@pytest.mark.parametrize("extra", [[], ["--minimal-subsets"]])
def test_invariants_builds_the_image_points_once(capsys, monkeypatch, extra):
    import ffyb.invariants

    calls = []
    build = ffyb.invariants._image_encodings
    monkeypatch.setattr(ffyb.invariants, "_image_encodings",
                        lambda inst: calls.append(inst) or build(inst))
    rep = run_json(capsys, "invariants", "--p", "2", "--n", "3", *extra)
    assert rep["image_points"] == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]]
    assert len(calls) == 1


def test_ideal_verify(capsys):
    rep = run_json(capsys, "ideal", "--p", "2", "--s", "2", "--n", "3", "--a", "2",
                   "--verify")
    assert rep["generator_count"] == 6
    assert rep["verdict"] is True
    assert len(rep["variety"]) == 4


def test_ideal_verify_scans_the_variety_once(capsys, monkeypatch):
    import ffyb.ideal

    calls = []
    scan = ffyb.ideal._common_zeros
    monkeypatch.setattr(ffyb.ideal, "_common_zeros",
                        lambda *a, **k: calls.append(a) or scan(*a, **k))
    rep = run_json(capsys, "ideal", "--p", "3", "--n", "3", "--a", "2", "--verify")
    assert rep["verdict"] is True
    assert len(rep["variety"]) == 4
    assert len(calls) == 1


def test_verify_all_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--only", "separation",
                           "--output", "table")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 1
    assert lines[0].startswith("PASS  separation")


def test_verify_all_count_oracle_reaches_the_default_scan_budget(capsys):
    rep = run_json(capsys, "verify-all", "--only", "count-oracle")
    [check] = rep["checks"]
    assert check["ok"] is True
    assert "(n=4,q=3):12692" in check["detail"]
    assert "(n=5,q=2):20834" in check["detail"]


def test_verify_all_json_mode_keeps_stdout_parseable(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--only", "separation")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] is True
    assert [c["name"] for c in rep["checks"]] == ["separation"]
    assert "PASS  separation" in err  # progress lines go to stderr in json mode


def test_verify_all_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--only", "nonsense")
    assert code == 1
    assert "unknown checks" in err


@pytest.mark.parametrize("check,scan,smallest", [("count-oracle", "matrix enumeration", 16),
                                                  ("variety", "variety scan", 4)])
def test_verify_all_refuses_a_budget_below_every_case(capsys, check, scan, smallest):
    # the smallest case is n = 2 over GF(2): 2^4 matrices, 2^2 points
    code, out, err = run_cli(capsys, "verify-all", "--only", check, "--budget", "3")
    assert code == 2
    message = f"{scan} needs {smallest} steps, budget is 3"
    assert json.loads(out) == {"schema": 1, "command": "verify-all", "all_ok": False,
                               "checks": [{"name": check, "ok": False,
                                           "detail": f"refused: {message}"}]}
    assert err == f"REFUSED  {check}: {message}\n"
    with pytest.raises(BudgetExceededError) as info:
        verify.CHECKS[check](3)
    assert (info.value.required, info.value.budget) == (smallest, 3)


def test_verify_all_count_oracle_runs_the_cases_within_the_budget(capsys):
    rep = run_json(capsys, "verify-all", "--only", "count-oracle", "--budget", "20")
    assert rep["all_ok"] is True
    assert rep["checks"][0]["detail"] == "(n=2,q=2):8"


def test_verify_all_runs_every_check_past_a_refusal(capsys, monkeypatch):
    # at --budget 20, orbit-census and stabilizers refuse GF(3), n = 2
    code, out, err = run_cli(capsys, "verify-all", "--budget", "20", "--output", "table")
    assert code == 2
    assert [l.split()[0] for l in out.splitlines()] \
        == ["PASS", "REFUSED", "REFUSED", "PASS", "PASS", "PASS"]
    assert "REFUSED  orbit-census: matrix enumeration needs 81 steps, budget is 20" in out
    # a failed check outranks a refused one
    monkeypatch.setitem(verify.CHECKS, "separation", lambda budget: (False, "broken"))
    code, out, _ = run_cli(capsys, "verify-all", "--budget", "20")
    assert code == 1
    assert json.loads(out)["checks"][4] == {"name": "separation", "ok": False,
                                            "detail": "broken"}


def test_import_ffyb_loads_neither_the_cli_nor_the_sweep():
    code = "import sys, ffyb; print(sorted({'ffyb.cli', 'ffyb.verify'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_exit_code_input_error(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "4", "--n", "2", "--a", "1")
    assert code == 1
    assert "not prime" in err
    code, _, err = run_cli(capsys, "classify", "--p", "2", "--n", "2", "--a", "1",
                           "--matrix", "0,zebra;0,0")
    assert code == 1


def test_exit_code_budget_refusal(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "5", "--n", "4", "--a", "1",
                           "--method", "brute", "--budget", "1000")
    assert code == 2
    assert "refused" in err


def test_exit_code_table_budget_refusal(capsys):
    code, out, err = run_cli(capsys, "count", "--p", "1048573", "--n", "1",
                             "--method", "brute")
    assert code == 2
    assert out == ""
    assert "arithmetic tables" in err


@pytest.mark.parametrize("argv", [("count",), ("orbits",), ("count", "--a", "0")])
def test_results_too_long_to_print_are_refused_before_the_work(capsys, argv):
    # str() of an int with more than sys.get_int_max_str_digits() digits
    # fails; the digit bound is checked before any GL order is computed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--p", "2", "--n", "2000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "decimal digits" in err


def test_search_spaces_too_long_to_print_are_still_refused(capsys):
    code, out, err = run_cli(capsys, "count", "--p", "2", "--n", "200",
                             "--method", "brute")
    assert code == 2
    assert out == ""
    assert "matrix enumeration needs at least 2^40000 steps" in err


@pytest.mark.parametrize("argv,want", [
    # is_prime trial-divides up to sqrt(p), so the order cap comes first
    (("count", "--p", "2305843009213693951", "--n", "2"), 1),
    (("count", "--p", "1000000000000000000000000000057", "--n", "2"), 1),
    # p**s has 1.6*10^8 bits
    (("count", "--p", "3", "--s", "100000000", "--n", "2"), 1),
    # q**width is 3^(9*10^8)
    (("enumerate", "--p", "3", "--n", "30000"), 2),
    (("count", "--method", "brute", "--p", "3", "--n", "30000"), 2),
])
def test_huge_inputs_are_refused_before_any_big_integer_work(argv, want):
    # a big-integer pow cannot be interrupted in-process, so each runs in a
    # child that is killed if it outlives the timeout
    proc = subprocess.run([sys.executable, "-m", "ffyb", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == want, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("ideal", "--n", "3"), ("ideal", "--n", "126"), ("ideal", "--n", "3", "--verify"),
    ("invariants", "--n", "3"), ("invariants", "--n", "1000"),
    ("invariants", "--n", "1000000000", "--minimal-subsets"),
])
def test_a_zero_is_an_input_error_at_every_n(capsys, argv):
    # a is checked before the report-size refusal, so the exit code does not
    # depend on n
    code, out, err = run_cli(capsys, *argv, "--p", "2", "--a", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: a = 0")


def test_long_counts_below_the_digit_limit_still_print(capsys):
    rep = run_json(capsys, "count", "--p", "2", "--n", "100")
    assert len(rep["total"]) == 1506
    assert rep["total"].startswith("73747715368427338797")
    assert rep["total"].endswith("10275025418772807682")


def test_exit_code_internal_invariant_failure(monkeypatch, capsys):
    # with every field product read as 0 all n+1 image points collapse onto
    # the origin, which _image_encodings must report as a bug, not as bad input
    monkeypatch.setattr(Field, "_mul", lambda self, x, y: 0)
    code, out, err = run_cli(capsys, "invariants", "--p", "5", "--n", "3", "--a", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")


def test_exit_code_bad_flags(capsys):
    assert main(["count", "--nonsense"]) == 1
    assert main(["--help"]) == 0


def test_json_reports_are_deterministic(capsys):
    args = ("orbits", "--p", "2", "--s", "2", "--n", "4", "--a", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ffyb", "count", "--p", "2", "--n", "2", "--a", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == "8"


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv("FFYB_BUDGET", "100")
    code, _, err = run_cli(capsys, "count", "--p", "2", "--n", "3", "--a", "1",
                           "--method", "brute")
    assert code == 2


def test_budget_env_set_after_a_first_call_is_honoured(monkeypatch, capsys):
    monkeypatch.delenv("FFYB_BUDGET", raising=False)
    argv = ("count", "--p", "2", "--n", "3", "--a", "1", "--method", "brute")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("FFYB_BUDGET", "100")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "budget is 100" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_bad_budget_env_is_an_input_error(monkeypatch, capsys, value):
    monkeypatch.setenv("FFYB_BUDGET", value)
    code, out, err = run_cli(capsys, "count", "--p", "2", "--n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: FFYB_BUDGET must be a positive integer")


@pytest.mark.parametrize("argv", [
    ("count", "--p", "2", "--n", "2", "--method", "brute"),
    ("ideal", "--p", "3", "--n", "2", "--verify"),
    ("verify-all", "--only", "variety"),
])
def test_budget_flag_zero_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--budget", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --budget must be a positive integer")


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import ffyb.cli

    built = []
    build = ffyb.cli.build_parser
    monkeypatch.setattr(ffyb.cli, "_parser", None)
    monkeypatch.setattr(ffyb.cli, "build_parser", lambda: built.append(1) or build())
    assert run_json(capsys, "count", "--p", "2", "--n", "2")["total"] == "8"
    assert run_json(capsys, "count", "--p", "3", "--n", "2")["total"] == "14"
    assert len(built) == 1
