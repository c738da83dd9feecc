import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smoothgap.cli import (
    EXIT_BUDGET,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    parse_tuple_line,
    parse_tuple_text,
    run,
)
from smoothgap.errors import TupleParseError
from smoothgap.tuples import construct_consecutive_prime_tuple


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_tuple_text():
    parsed = parse_tuple_text("# comment\n0,2,6\n\n0, 4, 10\n")
    assert [t.elements for t in parsed] == [(0, 2, 6), (0, 4, 10)]


def test_parse_tuple_text_errors():
    with pytest.raises(TupleParseError) as exc:
        parse_tuple_text("0,2\n0,x,6\n")
    assert exc.value.line == 2
    assert exc.value.column == 3
    with pytest.raises(TupleParseError):
        parse_tuple_text("# only comments\n")
    # columns count in the line as written, before stripping
    with pytest.raises(TupleParseError) as exc:
        parse_tuple_text("# indented below\n  (0, 2, y)\n")
    assert (exc.value.line, exc.value.column) == (2, 10)
    for literal in ("(0,x)", "0, x"):
        with pytest.raises(TupleParseError) as exc:
            parse_tuple_line(literal)
        assert exc.value.column == 4
    with pytest.raises(TupleParseError):
        parse_tuple_text("3,2,1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{dir}", "--admissible"],
        ["scan", "tuple-translates", "100", "--tuple-file", "{dir}"],
        ["constants", "--singular-series", "{dir}"],
        ["construct", "primorial", "5", "--sidecar", "{dir}"],
    ],
)
def test_unreadable_paths_are_usage_errors(capsys, tmp_path, argv):
    # a directory where a file is expected: one error line, nothing on stdout
    code, out, err = invoke(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_construct_primorial(capsys):
    code, out, _ = invoke(capsys, "construct", "primorial", "5")
    assert code == EXIT_OK
    assert out.strip() == "0,30,60,90,120"
    code, out, _ = invoke(capsys, "construct", "primorial", "2")
    assert out.strip() == "0,2"


def test_construct_sidecar(capsys, tmp_path):
    sidecar = tmp_path / "meta.json"
    code, out, _ = invoke(
        capsys, "construct", "consecutive-prime", "50", "--sidecar", str(sidecar)
    )
    assert code == EXIT_OK
    assert len(out.strip().split(",")) == 50
    meta = json.loads(sidecar.read_text())
    assert meta["diameter"] == 260
    assert meta["omega"] is None
    sidecar2 = tmp_path / "meta2.json"
    invoke(capsys, "construct", "primorial", "5", "--sidecar", str(sidecar2))
    meta2 = json.loads(sidecar2.read_text())
    assert meta2["omega"] == 30
    assert meta2["smooth_bound"] == 5


def test_construct_bad_k(capsys):
    code, _, err = invoke(capsys, "construct", "primorial", "0")
    assert code == EXIT_USAGE
    assert err


def test_verify_obstruction(capsys):
    code, out, _ = invoke(capsys, "verify", "0,2,4", "--admissible")
    assert code == EXIT_NEGATIVE
    payload = json.loads(out)
    assert payload["results"][0]["obstruction"] == 3


def test_verify_integers_past_the_str_digit_cap(capsys):
    if hasattr(sys, "set_int_max_str_digits"):  # restore the cap any earlier run() lifted
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    big = "2" + "0" * 4999  # even, 5,000 digits: past CPython's default cap of 4,300
    code, out, _ = invoke(capsys, "verify", f"0,{big}", "--admissible")
    assert code == EXIT_OK
    assert out == (
        '{"results": [{"admissible": true, "obstruction": null, "tuple": [0, '
        + big
        + ']}], "schema": "smoothgap/1"}\n'
    )


def test_verify_smooth_ok(capsys):
    code, out, _ = invoke(capsys, "verify", "0,30,60,90,120", "--diff-smooth", "5")
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["difference_smooth"] is True


def test_verify_smooth_witness_pair(capsys):
    code, out, _ = invoke(capsys, "verify", "0,2,6", "--diff-smooth", "2")
    assert code == EXIT_NEGATIVE
    entry = json.loads(out)["results"][0]
    assert entry["witness_pair"] == [0, 2]
    assert entry["rough_cofactor"] == 3


def test_verify_pigeonhole(capsys):
    code, out, _ = invoke(capsys, "verify", "0,2", "--witness")
    assert code == EXIT_OK
    entry = json.loads(out)["results"][0]
    assert entry["pigeonhole_pair"] == [0, 1]
    assert entry["pigeonhole_prime"] == 2


def test_verify_witness_needs_admissible(capsys):
    code, out, _ = invoke(capsys, "verify", "0,1,2", "--witness")
    assert code == EXIT_NEGATIVE
    assert json.loads(out)["results"][0]["pigeonhole_pair"] is None


def test_verify_checks_admissibility_once(capsys, monkeypatch):
    from smoothgap import tuples

    calls = []
    is_admissible = tuples.is_admissible
    monkeypatch.setattr(tuples, "is_admissible", lambda H: calls.append(H) or is_admissible(H))
    code, out, _ = invoke(capsys, "verify", "0,2,6,8,12", "--admissible", "--witness")
    assert code == EXIT_OK
    result = json.loads(out)["results"][0]
    assert result["admissible"] is True
    assert (result["pigeonhole_pair"], result["pigeonhole_prime"]) == ([1, 4], 5)  # 12 - 2 = 10
    assert len(calls) == 1


def test_verify_file_and_parse_error(capsys, tmp_path):
    good = tmp_path / "tuples.txt"
    good.write_text("# twin\n0,2\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "verify", str(good), "--admissible")
    assert code == EXIT_OK
    bad = tmp_path / "bad.txt"
    bad.write_text("0,two\n", encoding="utf-8")
    code, _, err = invoke(capsys, "verify", str(bad), "--admissible")
    assert code == EXIT_USAGE
    assert "line 1" in err


def test_verify_no_predicate(capsys):
    code, _, _ = invoke(capsys, "verify", "0,2")
    assert code == EXIT_USAGE


def test_verify_diff_smooth_large_y(capsys):
    p = 10**29 + 319  # a prime: trial division to its square root would not finish
    for H, y in (("0,2", "10000000000"), (f"0,{p}", str(p))):
        code, out, _ = invoke(capsys, "verify", H, "--diff-smooth", y)
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["difference_smooth"] is True
    # a prime difference above y = y_6: trial division to y would take minutes
    q = 10**30 + 57
    code, out, _ = invoke(capsys, "verify", f"0,{q}", "--diff-smooth", "3340375637")
    assert code == EXIT_NEGATIVE
    result = json.loads(out)["results"][0]
    assert result["difference_smooth"] is False
    assert result["rough_cofactor"] == q


def test_search_smooth(capsys):
    code, out, _ = invoke(capsys, "search", "3", "--smooth", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["diameter"] == 6
    assert payload["proven_minimal"] is True
    code, out, _ = invoke(capsys, "search", "3", "--smooth", "10000000000")
    assert code == EXIT_OK
    assert json.loads(out)["tuple"] == [0, 2, 6]


def test_search_certified_impossible(capsys):
    code, out, _ = invoke(capsys, "search", "3", "--smooth", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["certified_impossible"] is True
    assert payload["tuple"] is None
    assert "3" in payload["impossible_reason"]


def test_search_budget_exit(capsys):
    code, out, _ = invoke(capsys, "search", "12", "--budget", "40")
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert payload["budget_exhausted"] is True


def test_search_coverage_words_over_budget_exit_3(capsys, monkeypatch):
    # k = 3000: the incumbent's sieve to 65,248 takes 32,624 bytes, the
    # table's three 594,253-bit coverage words 222,846
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(5 * 10**4))
    code, out, err = invoke(capsys, "search", "3000", "--budget", "1")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "capacity: coverage words of 594253 bits need 222846 bytes, over budget 50000\n"


def test_search_position_words_over_budget_exit_3(capsys, monkeypatch):
    # k = 3000: 500,000 bytes hold the three coverage words and three
    # position words of 74,282 bytes each; the search reads a fourth
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(5 * 10**5))
    code, out, err = invoke(capsys, "search", "3000", "--budget", "100000")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "capacity: 4 position words and 3 coverage words of 594253 bits need 519974 bytes, "
        "over budget 500000\n"
    )


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("smooth", [(), ("--smooth", "11")])
def test_search_rejects_budget_below_one(capsys, budget, smooth):
    code, out, err = invoke(capsys, "search", "10", *smooth, "--budget", budget)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_search_k2(capsys):
    code, out, _ = invoke(capsys, "search", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tuple"] == [0, 2]
    assert payload["proven_minimal"] is True


def test_scan_pairs_json(capsys):
    code, out, _ = invoke(capsys, "scan", "pairs", "10", "--y", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "smoothgap/1"
    assert payload["records"][0]["count"] == 4


def test_scan_csv(capsys):
    code, out, _ = invoke(
        capsys, "scan", "pairs", "100", "--y", "2", "--checkpoints", "10,100",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "checkpoint",
        "count",
        "hl_ratio_prediction",
        "hl_integral_prediction",
        "ratio",
        "at_least_m_count",
    ]
    assert rows[1][:2] == ["10", "4"]
    assert rows[1][5] == ""


def test_scan_csv_at_least(capsys):
    args = ("scan", "tuple-translates", "100", "--tuple-file", "(0,2,6)", "--at-least", "2")
    code, out, _ = invoke(capsys, *args, "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    _, out, _ = invoke(capsys, *args)
    records = json.loads(out)["records"]
    assert [row["at_least_m_count"] for row in rows] == [
        str(r["at_least_m_count"]) for r in records
    ]
    assert rows[0]["count"] == str(records[0]["count"])


def test_scan_translates_inline_tuple(capsys):
    code, out, _ = invoke(
        capsys, "scan", "tuple-translates", "1000", "--tuple-file", "(0,2)"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["records"][0]["count"] == 35
    assert payload["records"][0]["hl_integral_prediction"] > 0


@pytest.mark.parametrize("mode", ["pairs", "consecutive-pairs"])
def test_scan_large_y(capsys, mode):
    # every gap below 1000 is 997-smooth
    code, out, _ = invoke(capsys, "scan", mode, "1000", "--y", "10000000000")
    assert code == EXIT_OK
    _, reference, _ = invoke(capsys, "scan", mode, "1000", "--y", "997")
    assert json.loads(out)["records"] == json.loads(reference)["records"]


def test_scan_byte_stable(capsys, monkeypatch):
    for mode in ("pairs", "consecutive-pairs"):
        args = ("scan", mode, "500", "--y", "3")
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 1)
        _, first, _ = invoke(capsys, *args)
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 4)
        _, second, _ = invoke(capsys, *args)
        assert first == second


def test_scan_threads_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["scan", "pairs", "100", "--threads", "2"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_scan_unknown_mode_names_the_modes(capsys):
    code, out, err = invoke(capsys, "scan", "foo", "100")
    assert (code, out) == (EXIT_USAGE, "")
    [line] = err.splitlines()
    assert line.startswith("error:")
    assert all(f"'{mode}'" in line for mode in ("pairs", "consecutive-pairs", "tuple-translates"))


def test_scan_missing_tuple_flag(capsys):
    code, _, err = invoke(capsys, "scan", "tuple-translates", "100")
    assert code == EXIT_USAGE
    assert err


def test_scan_capacity_exit(capsys, monkeypatch):
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "1000")
    code, _, err = invoke(capsys, "scan", "pairs", "10000", "--y", "2")
    assert code == EXIT_BUDGET
    assert err


def test_scan_pairs_all_smooth_gaps_over_budget_exit_3(capsys, monkeypatch):
    # y >= x: every gap is smooth, so the gaps are a range, charged at 8 bytes
    # each; 10^6 bytes fit the 10^5-byte odd table, not the 1.6 MB of gaps
    def enumerate_gaps(*args):
        raise AssertionError("all-smooth gaps listed one by one")

    monkeypatch.setattr("smoothgap.scan.smooth_numbers_up_to", enumerate_gaps)
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(10**6))
    code, out, err = invoke(capsys, "scan", "pairs", "200000", "--y", "200000")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("capacity: the smooth gaps to 199998 need 1599984 bytes")


def test_scan_pairs_over_fft_budget_falls_back(capsys, monkeypatch):
    args = ("scan", "pairs", "100000", "--y", "47", "--checkpoints", "1000,100000")
    code, reference, _ = invoke(capsys, *args)
    assert code == EXIT_OK
    # enough for the flag table, too little for the transform buffers
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(10**6))
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 2)
    code, out, _ = invoke(capsys, *args)
    assert code == EXIT_OK
    assert out == reference
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(5 * 10**4 - 1))  # below the odd table
    code, out, err = invoke(capsys, *args)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ("pairs", "100", "--at-least", "2"),
        ("consecutive-pairs", "100", "--at-least", "2"),
        ("tuple-translates", "100", "--tuple-file", "(0,2)", "--exclude-gap-one"),
        ("pairs", "100", "--checkpoints", "0,100"),
        ("consecutive-pairs", "100", "--checkpoints=-5,100"),
        ("tuple-translates", "100", "--tuple-file", "(0,2)", "--y", "5"),
        ("pairs", "100", "--tuple-file", "(0,2)"),
        ("consecutive-pairs", "100", "--tuple-file", "(0,2)"),
        ("tuple-translates", "100", "--tuple-file", "(0,2)", "--at-least", "0"),
        ("tuple-translates", "100", "--tuple-file", "(0,2)", "--at-least", "-4"),
        ("tuple-translates", "100", "--tuple-file", "(0,2)", "--at-least", "9"),
    ],
)
def test_scan_rejects_ignored_flags(capsys, argv):
    code, out, err = invoke(capsys, "scan", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_single_tuple_commands_reject_files_of_several(capsys, tmp_path):
    path = tmp_path / "tuples.txt"
    path.write_text("0,2\n0,2,6\n0,4,6\n", encoding="utf-8")
    for argv in (
        ("scan", "tuple-translates", "100", "--tuple-file", str(path)),
        ("constants", "--singular-series", str(path)),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "3 tuples" in err


def test_constants_km_table(capsys):
    code, out, _ = invoke(capsys, "constants", "--km-table")
    assert code == EXIT_OK
    entries = json.loads(out)["entries"]
    assert [(e["m"], e["k_m"]) for e in entries if not e["conditional"]] == [
        (2, 50),
        (3, 35265),
        (4, 1624545),
        (5, 73807570),
        (6, 3340375663),
    ]
    assert [(e["m"], e["k_m"]) for e in entries if e["conditional"]] == [(2, 5)]


def test_constants_singular_series(capsys):
    code, out, _ = invoke(
        capsys, "constants", "--singular-series", "0,2", "--cutoff", "1000000"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.32032, abs=1e-4)
    code, out, _ = invoke(capsys, "constants", "--singular-series", "0,1")
    payload = json.loads(out)
    assert payload["value"] == 0
    assert payload["admissible"] is False


def test_constants_default_cutoff_covers_the_diameter(capsys):
    # singular_series's default cutoff, as scan predictions use: max(10^6, k, diameter + 1)
    code, out, _ = invoke(capsys, "constants", "--singular-series", "0,2,1000002")
    assert code == EXIT_OK
    assert json.loads(out)["prime_cutoff"] == 1000003
    code, out, _ = invoke(capsys, "constants", "--singular-series", "0,2")
    assert json.loads(out)["prime_cutoff"] == 10**6
    code, out, _ = invoke(
        capsys, "constants", "--singular-series", "0,2,1000002", "--cutoff", "1000002"
    )
    assert (code, out) == (EXIT_USAGE, "")


@pytest.mark.parametrize("cutoff", ["1", "0", "-5"])
def test_constants_cutoff_below_two_is_a_usage_error(capsys, cutoff):
    # no prime at or below it, and the tail estimate would divide by log 1
    code, out, err = invoke(capsys, "constants", "--singular-series", "0", "--cutoff", cutoff)
    assert (code, out) == (EXIT_USAGE, "")
    assert len(err.strip().splitlines()) == 1


def _consecutive_prime(k):
    return ",".join(map(str, construct_consecutive_prime_tuple(k)))


def test_singular_series_past_the_float_range_is_a_capacity_exit(capsys):
    # G of the consecutive-prime 406-tuple is 4.8e307, of the 407-tuple e^710.4
    code, out, _ = invoke(capsys, "constants", "--singular-series", _consecutive_prime(406))
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(4.79561340574e307, rel=1e-9)
    code, out, err = invoke(capsys, "constants", "--singular-series", _consecutive_prime(407))
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("capacity: ") and len(err.strip().splitlines()) == 1


def test_translate_predictions_past_the_float_range(capsys):
    # (log 10^6)^300 exceeds the largest float
    argv = ("scan", "tuple-translates", "1000000", "--tuple-file")
    code, out, err = invoke(capsys, *argv, _consecutive_prime(300))
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("capacity: ") and len(err.strip().splitlines()) == 1
    # G = 0 for an inadmissible tuple, so both predictions are 0 without the power
    code, out, _ = invoke(capsys, *argv, ",".join(str(2 * i) for i in range(300)))
    assert code == EXIT_OK
    (record,) = json.loads(out)["records"]
    assert (record["hl_ratio_prediction"], record["hl_integral_prediction"]) == (0.0, 0.0)
    assert record["count"] == 0 and record["ratio"] is None


def test_constants_no_flag(capsys):
    code, _, _ = invoke(capsys, "constants")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("--singular-series", "0,2", "--format", "csv"),
        ("--km-table", "--singular-series", "0,2"),
        ("--km-table", "--cutoff", "7"),
    ],
)
def test_constants_rejects_ignored_flags(capsys, argv):
    code, out, err = invoke(capsys, "constants", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_round_trip_construct_verify(capsys):
    for kind, k, checks in [
        ("primorial", 6, ["--admissible", "--diff-smooth", "5"]),
        ("consecutive-prime", 10, ["--admissible"]),
    ]:
        _, out, _ = invoke(capsys, "construct", kind, str(k))
        code, _, _ = invoke(capsys, "verify", out.strip(), *checks)
        assert code == EXIT_OK


def test_json_byte_stable_across_runs(capsys):
    _, first, _ = invoke(capsys, "constants", "--singular-series", "0,2,6")
    _, second, _ = invoke(capsys, "constants", "--singular-series", "0,2,6")
    assert first == second


# Exact stdout of each report type, JSON and CSV, as encoded from the result
# records' fields: a change to any report's bytes shows here.
GOLDEN_REPORTS = [
    (
        "scan pairs 12 --y 3 --checkpoints 5,12",
        EXIT_OK,
        (
            '{"records": [{"at_least_m_count": null, "checkpoint": 5, "count": 3,'
            ' "hl_integral_prediction": null, "hl_ratio_prediction": null, "ratio": null},'
            ' {"at_least_m_count": null, "checkpoint": 12, "count": 9,'
            ' "hl_integral_prediction": null, "hl_ratio_prediction": null, "ratio": null}],'
            ' "request": {"checkpoints": [5, 12], "include_gap_one": true,'
            ' "min_prime_count": null, "mode": "pairs", "tuple": null, "x_max": 12,'
            ' "y": 3}, "schema": "smoothgap/1", "witnesses": [[2, 3], [2, 5], [3, 5], [3,'
            ' 7], [5, 7], [2, 11], [3, 11], [5, 11], [7, 11]]}\n'
        ),
    ),
    (
        "scan pairs 30 --y 3 --checkpoints 10,30 --format csv",
        EXIT_OK,
        (
            'checkpoint,count,hl_ratio_prediction,hl_integral_prediction,ratio,at_least_m_count\n'
            '10,5,,,,\n'
            '30,31,,,,\n'
        ),
    ),
    (
        "scan tuple-translates 100 --tuple-file 0,2,6 --at-least 2 --checkpoints 10,100",
        EXIT_OK,
        (
            '{"records": [{"at_least_m_count": 4, "checkpoint": 10, "count": 1,'
            ' "hl_integral_prediction": 8.48828832172,'
            ' "hl_ratio_prediction": 2.34127819803, "ratio": 0.117809381833},'
            ' {"at_least_m_count": 25, "checkpoint": 100, "count": 4,'
            ' "hl_integral_prediction": 13.8612070431,'
            ' "hl_ratio_prediction": 2.92659774754, "ratio": 0.288575157095}],'
            ' "request": {"checkpoints": [10, 100], "include_gap_one": true,'
            ' "min_prime_count": 2, "mode": "tuple-translates", "tuple": [0, 2, 6],'
            ' "x_max": 100, "y": null}, "schema": "smoothgap/1", "witnesses": [[5], [11],'
            ' [17], [41]]}\n'
        ),
    ),
    (
        "scan tuple-translates 100 --tuple-file 0,2,6 --at-least 2 --checkpoints 10,100 --format csv",
        EXIT_OK,
        (
            'checkpoint,count,hl_ratio_prediction,hl_integral_prediction,ratio,at_least_m_count\n'
            '10,1,2.34127819803,8.48828832172,0.117809381833,4\n'
            '100,4,2.92659774754,13.8612070431,0.288575157095,25\n'
        ),
    ),
    (
        "scan consecutive-pairs 50 --y 2 --exclude-gap-one --format csv",
        EXIT_OK,
        (
            'checkpoint,count,hl_ratio_prediction,hl_integral_prediction,ratio,at_least_m_count\n'
            '50,11,,,,\n'
        ),
    ),
    (
        "search 3 --smooth 3",
        EXIT_OK,
        (
            '{"budget_exhausted": false, "certified_impossible": false, "diameter": 6,'
            ' "impossible_reason": null, "k": 3, "nodes_explored": 8,'
            ' "proven_lower_bound": 6, "proven_minimal": true, "schema": "smoothgap/1",'
            ' "smooth_bound": 3, "tuple": [0, 2, 6]}\n'
        ),
    ),
    (
        "search 3 --smooth 2",
        EXIT_OK,
        (
            '{"budget_exhausted": false, "certified_impossible": true, "diameter": null,'
            ' "impossible_reason": "admissible 3-tuples are never difference l-smooth for l < 3",'
            ' "k": 3, "nodes_explored": 0, "proven_lower_bound": null, "proven_minimal": true,'
            ' "schema": "smoothgap/1", "smooth_bound": 2, "tuple": null}\n'
        ),
    ),
    (
        "constants --singular-series 0,2 --cutoff 1000",
        EXIT_OK,
        (
            '{"admissible": true, "k": 2, "prime_cutoff": 1000, "schema": "smoothgap/1",'
            ' "tail_magnitude": 0.000144764827301, "tuple": [0, 2],'
            ' "value": 1.32049148794}\n'
        ),
    ),
    (
        "constants --km-table",
        EXIT_OK,
        (
            '{"entries": [{"conditional": false, "k_m": 50, "m": 2, "y_m": 47},'
            ' {"conditional": false, "k_m": 35265, "m": 3, "y_m": 35257},'
            ' {"conditional": false, "k_m": 1624545, "m": 4, "y_m": 1624529},'
            ' {"conditional": false, "k_m": 73807570, "m": 5, "y_m": 73807561},'
            ' {"conditional": false, "k_m": 3340375663, "m": 6, "y_m": 3340375637},'
            ' {"conditional": true, "k_m": 5, "m": 2, "y_m": 5}], "schema": "smoothgap/1"}\n'
        ),
    ),
    (
        "constants --km-table --format csv",
        EXIT_OK,
        (
            'm,k_m,y_m,conditional\n'
            '2,50,47,False\n'
            '3,35265,35257,False\n'
            '4,1624545,1624529,False\n'
            '5,73807570,73807561,False\n'
            '6,3340375663,3340375637,False\n'
            '2,5,5,True\n'
        ),
    ),
    (
        "verify 0,2,6,8,12 --admissible --diff-smooth 3 --witness",
        EXIT_NEGATIVE,
        (
            '{"results": [{"admissible": true, "difference_smooth": false,'
            ' "obstruction": null, "pigeonhole_pair": [1, 4], "pigeonhole_prime": 5,'
            ' "rough_cofactor": 5, "smooth_bound": 3, "tuple": [0, 2, 6, 8, 12],'
            ' "witness_pair": [1, 4]}], "schema": "smoothgap/1"}\n'
        ),
    ),
    (
        "verify 0,2,4 --admissible --diff-smooth 3 --witness",
        EXIT_NEGATIVE,
        (
            '{"results": [{"admissible": false, "difference_smooth": true,'
            ' "obstruction": 3, "pigeonhole_pair": null, "pigeonhole_prime": null,'
            ' "rough_cofactor": null, "smooth_bound": 3, "tuple": [0, 2, 4],'
            ' "witness_pair": null}], "schema": "smoothgap/1"}\n'
        ),
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN_REPORTS, ids=[g[0] for g in GOLDEN_REPORTS])
def test_report_bytes_are_pinned(capsys, argv, code, stdout):
    assert invoke(capsys, *argv.split())[:2] == (code, stdout)


@pytest.mark.parametrize("budget", ["4e9", "-5", "0", "", "four"])
def test_malformed_mem_budget_is_a_usage_error(capsys, monkeypatch, budget):
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", budget)
    code, out, err = invoke(capsys, "scan", "pairs", "100", "--y", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "SMOOTHGAP_MEM_BUDGET" in err


def _fresh_run_matches(capsys, script: str, argv: str) -> None:
    """Run script with argv in a fresh interpreter: it must exit and print
    as run(argv) does in process (exit 0 and nothing for no argv)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, *argv.split()],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    code, out, _ = invoke(capsys, *argv.split()) if argv else (EXIT_OK, "", "")
    assert (done.returncode, done.stdout) == (code, out.encode()), done.stderr


# Runs the CLI with numpy blocked, so that any import of it raises, and
# checks that no numpy module of the package was loaded, nor dataclasses.
_WITHOUT_NUMPY = """
import sys
before = set(sys.modules)
sys.modules["numpy"] = None
from smoothgap.cli import build_parser, run
build_parser()
code = run(sys.argv[1:]) if len(sys.argv) > 1 else 0
assert not {"smoothgap._sieve", "smoothgap.scan", "smoothgap.constants"} & sys.modules.keys()
assert "dataclasses" not in sys.modules.keys() - before
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        "",
        "construct primorial 5",
        "verify 0,2,6 --admissible --witness --diff-smooth 7",
        "search 10",
        "search 8 --smooth 7",
        "constants --km-table",
    ],
)
def test_tuple_commands_run_without_numpy(capsys, argv):
    _fresh_run_matches(capsys, _WITHOUT_NUMPY, argv)


def test_scan_pairs_does_not_load_constants(capsys):
    script = (
        "import sys\n"
        "from smoothgap.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "assert 'smoothgap.constants' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    _fresh_run_matches(capsys, script, "scan pairs 100 --y 3")


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def entry(*argv, **extra_env):
        return subprocess.run(
            [sys.executable, "-m", "smoothgap.cli", *argv],
            capture_output=True, text=True, env=dict(env, **extra_env), timeout=60,
        )

    done = entry("construct", "primorial", "5")
    assert (done.returncode, done.stdout) == (EXIT_OK, "0,30,60,90,120\n")
    done = entry("scan", "tuple-translates", "100", "--y", "5")
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert len(done.stderr.strip().splitlines()) == 1
    done = entry("scan", "pairs", "10000", "--y", "2", SMOOTHGAP_MEM_BUDGET="1000")
    assert done.returncode == EXIT_BUDGET
