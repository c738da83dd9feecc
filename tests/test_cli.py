import csv
import io
import json

import pytest

from smoothgap.cli import (
    EXIT_BUDGET,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    parse_tuple_text,
    run,
)
from smoothgap.errors import TupleParseError


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
    with pytest.raises(TupleParseError):
        parse_tuple_text("3,2,1\n")


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


def test_search_smooth(capsys):
    code, out, _ = invoke(capsys, "search", "3", "--smooth", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["diameter"] == 6
    assert payload["proven_minimal"] is True


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
    ]
    assert rows[1][:2] == ["10", "4"]


def test_scan_translates_inline_tuple(capsys):
    code, out, _ = invoke(
        capsys, "scan", "tuple-translates", "1000", "--tuple-file", "(0,2)"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["records"][0]["count"] == 35
    assert payload["records"][0]["hl_integral_prediction"] > 0


def test_scan_byte_stable(capsys):
    args = ("scan", "consecutive-pairs", "500", "--y", "3")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args, "--threads", "4")
    assert first == second


def test_scan_missing_tuple_flag(capsys):
    code, _, err = invoke(capsys, "scan", "tuple-translates", "100")
    assert code == EXIT_USAGE
    assert err


def test_scan_capacity_exit(capsys, monkeypatch):
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "1000")
    code, _, err = invoke(capsys, "scan", "pairs", "10000", "--y", "2")
    assert code == EXIT_BUDGET
    assert err


def test_scan_pairs_over_fft_budget_falls_back(capsys, monkeypatch):
    args = ("scan", "pairs", "100000", "--y", "47", "--checkpoints", "1000,100000")
    code, reference, _ = invoke(capsys, *args)
    assert code == EXIT_OK
    # enough for the flag table, too little for the transform buffers
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(10**6))
    code, out, _ = invoke(capsys, *args, "--threads", "2")
    assert code == EXIT_OK
    assert out == reference
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(10**5))
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
    ],
)
def test_scan_rejects_ignored_flags(capsys, argv):
    code, out, err = invoke(capsys, "scan", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1


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


def test_constants_no_flag(capsys):
    code, _, _ = invoke(capsys, "constants")
    assert code == EXIT_USAGE


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
