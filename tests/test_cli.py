"""Command-line interface: scenarios, payloads, exit codes."""

import json
import sys

import pytest

from idemconv import cli
from idemconv import suite as suite_mod


def scenario(tmp_path, obj, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


def test_group_info(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 1, "group": "S3"})
    code, payload, _ = run_json(capsys, ["group", "--scenario", path])
    assert code == 0
    assert payload["order"] == 6
    assert payload["abelian"] is False
    assert payload["labels"] == ["e", "(23)", "(12)", "(123)", "(132)", "(13)"]
    assert payload["subgroup_count"] == 6
    assert payload["character_count"] == 2
    assert payload["schema_version"] == 1
    assert payload["task"] == "group"


def test_group_direct_product_and_table(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 1, "group": "C2xC3"})
    code, payload, _ = run_json(capsys, ["group", "--scenario", path])
    assert code == 0 and payload["order"] == 6 and payload["abelian"] is True

    path2 = scenario(
        tmp_path,
        {"schema_version": 1, "group": {"table": [[0, 1], [1, 0]]}},
        "tbl.json",
    )
    code, payload, _ = run_json(capsys, ["group", "--scenario", path2])
    assert code == 0 and payload["order"] == 2


def test_non_associative_table_is_parse_error(tmp_path, capsys):
    # Z/8 with the intercalate at rows 1/5, columns 2/6 swapped: a Latin
    # square with identity and inverses that is not associative
    table = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    for r in (1, 5):
        table[r][2], table[r][6] = table[r][6], table[r][2]
    path = scenario(tmp_path, {"schema_version": 1, "group": {"table": table}})
    code, out, err = run(capsys, ["group", "--scenario", path])
    assert code == 2
    assert out == ""
    assert "invalid group table: table is not associative at" in err


def test_table_with_null_entry_is_parse_error(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 1, "group": {"table": [[0, None], [1, 0]]}})
    code, out, err = run(capsys, ["group", "--scenario", path])
    assert code == 2
    assert out == ""
    assert "invalid group table: table rows must be length-n index vectors" in err


@pytest.mark.parametrize("labels", [5, {"e": 0}, "e"])
def test_table_labels_of_wrong_type_are_parse_error(tmp_path, capsys, labels):
    path = scenario(
        tmp_path, {"schema_version": 1, "group": {"table": [[0]], "labels": labels}}
    )
    code, out, err = run_json(capsys, ["group", "--scenario", path])
    assert code == 2 and out is None
    assert json.loads(err)["error"]["field"] == "group.labels"


def test_classify_trivial_haar(tmp_path, capsys):
    path = scenario(
        tmp_path, {"schema_version": 1, "group": "C1", "measure": {"haar": []}}
    )
    code, payload, _ = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    assert payload["kind"] == "contractive"
    assert payload["subgroup"] == ["e"]
    assert payload["character"] == "trivial"


def test_commute_s5_witness(tmp_path, capsys):
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "S5",
            "k1": ["(12)", "(1234)"],
            "rho1": {"(12)": "1/2", "(1234)": "1/2"},
            "k2": ["(12345)"],
            "rho2": {"(12345)": "1/5"},
        },
    )
    code, payload, _ = run_json(capsys, ["commute", "--scenario", path])
    assert code == 0
    assert payload["kind"] == "non_commuting"
    assert payload["witness"] == "(45)"
    assert payload["left_at_witness"] == "(-1/120)z10^2"
    assert payload["right_at_witness"] == "(1/120)z10^3"


def test_commute_human_output(tmp_path, capsys):
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "S3",
            "k1": ["(12)"],
            "rho1": {},
            "k2": ["(123)"],
            "rho2": {},
        },
    )
    code, out, _ = run(capsys, ["commute", "--scenario", path])
    assert code == 0
    assert "commute" in out


def test_limit_twisted_reflection(tmp_path, capsys):
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "S3",
            "factors": [
                {"subgroup": ["(12)"], "rotations": {"(12)": "1/2"}},
                {"subgroup": ["(123)"], "rotations": {}},
            ],
        },
    )
    code, payload, _ = run_json(capsys, ["limit", "--scenario", path])
    assert code == 0
    assert payload["kind"] == "limit"
    assert payload["extension"] == "(12):1/2"
    assert payload["iterations"] == 1


def test_stromberg_converges(tmp_path, capsys):
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "C3",
            "measure": {"scale": ["1/2", {"sum": [{"dirac": "a"}, {"dirac": "a^2"}]}]},
        },
    )
    code, payload, _ = run_json(capsys, ["stromberg", "--scenario", path])
    assert code == 0
    assert payload["kind"] == "converges"
    assert payload["iterations"] == 30
    assert payload["generated"] == ["e", "a", "a^2"]
    entries = {e[0]: e for e in payload["limit"]["entries"]}
    assert entries["e"][1] == ["1/3"]


def test_measure_groups(tmp_path, capsys):
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "D4",
            "subgroup": ["r"],
            "rotations": {"r": "1/4"},
        },
    )
    code, payload, _ = run_json(capsys, ["measure-groups", "--scenario", path])
    assert code == 0
    assert payload["g_k_rho"] == ["e", "r", "r^2", "r^3"]
    assert len(payload["n_k_rho"]) == 8
    assert payload["gamma_size"] == 4
    assert payload["omega_classes"] == 1


def test_free_walk(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 1, "m": 2, "n": 3, "n_max": 4})
    code, payload, _ = run_json(capsys, ["free-walk", "--scenario", path])
    assert code == 0
    assert payload["exact_max_by_power"] == ["1/6", "1/9", "1/12", "43/648"]
    assert payload["support_by_power"] == [6, 18, 42, 90]
    assert payload["strictly_decreasing"] is True
    assert payload["below_eps_at"] == 3


def test_example33(capsys):
    code, payload, _ = run_json(capsys, ["example33", "--grid", "24"])
    assert code == 0
    assert payload["separated"] is True
    assert abs(payload["max_delta"] - 1 / 6) < 1e-6
    assert abs(payload["normalization_product"] - 1.0) < 1e-9


def test_paper_suite_single_fixture(capsys):
    code, out, _ = run(capsys, ["paper-suite", "--only", "example-4.4i"])
    assert code == 0
    assert "PASS example-4.4i" in out
    assert "1/1 fixtures passed" in out


def test_version_reports_backend(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "idemconv" in out
    assert "compiled kernel" in out


# error categories: parse=2, reference=3, precondition=4


def test_missing_scenario_file_is_parse_error(capsys):
    code, out, err = run(capsys, ["group", "--scenario", "/nonexistent.json"])
    assert code == 2
    assert "parse" in err


def test_invalid_json_is_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, ["group", "--scenario", str(p)])
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"schema_version": 1, "group": "C1", "measure": '
        + '{"sum": [' * 600 + '{"haar": []}' + "]}" * 600 + "}",
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["sum-600", "arrays-100000"],
)
def test_deeply_nested_scenario_is_parse_error(tmp_path, capsys, text):
    p = tmp_path / "deep.json"
    p.write_text(text)
    code, out, err = run_json(capsys, ["classify", "--scenario", str(p)])
    assert code == 2 and out is None
    assert json.loads(err)["error"] == {
        "category": "parse",
        "field": "--scenario",
        "message": "scenario is nested too deeply",
    }


def test_oversized_json_integer_is_parse_error(tmp_path, capsys):
    # json.loads raises a plain ValueError past the int digit limit
    p = tmp_path / "big.json"
    p.write_text('{"schema_version": 1, "group": "C2", "m": ' + "7" * 5001 + "}")
    code, out, err = run(capsys, ["group", "--scenario", str(p)])
    assert code == 2 and out == ""
    assert "oversized number" in err


@pytest.mark.parametrize("exponent", ["1000000", "-1000000", str(sys.get_int_max_str_digits())])
def test_oversized_fraction_exponent_is_parse_error(tmp_path, capsys, exponent):
    # Fraction would expand 10**exponent, and its str() would then fail
    measure = {"scale": ["1e" + exponent, {"haar": []}]}
    path = scenario(tmp_path, {"schema_version": 1, "group": "C1", "measure": measure})
    code, out, err = run(capsys, ["classify", "--scenario", path, "--json"])
    assert code == 2 and out == ""
    assert "exponent" in err
    # an exponent within the limit still parses
    measure["scale"][0] = "25e-2"
    path = scenario(tmp_path, {"schema_version": 1, "group": "C1", "measure": measure})
    code, payload, _ = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0 and payload["measure"]["entries"] == [["e", ["1/4"], 1]]


def test_fraction_digits_past_the_limit_are_parse_error(tmp_path, capsys):
    # each exponent and each digit run is within the limit, but the numerator
    # or denominator Fraction builds from them has more than limit digits
    limit = sys.get_int_max_str_digits()
    half = "1" * (limit * 2 // 3)
    for value in (
        f"12e{limit - 1}",
        f"1_0e{limit - 1}",
        f"0.1e-{limit - 1}",
        f"{half}.{half}e1",
        f"{half}.{half}",
    ):
        measure = {"scale": [value, {"haar": []}]}
        path = scenario(tmp_path, {"schema_version": 1, "group": "C1", "measure": measure})
        code, out, err = run(capsys, ["classify", "--scenario", path, "--json"])
        assert code == 2 and out == ""
        assert "digits" in err
    # 10**(limit - 1) has exactly limit digits and still prints
    measure = {"scale": [f"1e{limit - 1}", {"haar": []}]}
    path = scenario(tmp_path, {"schema_version": 1, "group": "C1", "measure": measure})
    code, payload, _ = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0 and payload["measure"]["entries"] == [["e", ["1" + "0" * (limit - 1)], 1]]


@pytest.mark.parametrize(("value", "entry"), [("1e0", "1"), ("1e-0", "1"), ("2.5E00", "5/2")])
def test_zero_fraction_exponent_parses(tmp_path, capsys, value, entry):
    measure = {"scale": [value, {"haar": []}]}
    path = scenario(tmp_path, {"schema_version": 1, "group": "C1", "measure": measure})
    code, payload, _ = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0 and payload["measure"]["entries"] == [["e", [entry], 1]]


def test_sum_past_the_digit_limit_is_precondition_error(tmp_path, capsys, scatter_dtypes):
    # each summand is within the limit, their sum has limit + 1 digits; the
    # classification convolves it on Python ints, and only printing it fails
    limit = sys.get_int_max_str_digits()
    term = {"scale": [f"9e{limit - 1}", {"haar": []}]}
    path = scenario(
        tmp_path, {"schema_version": 1, "group": "C1", "measure": {"sum": [term, term]}}
    )
    message = f"a coefficient at e has more than {limit} digits, the int digit limit"
    code, out, err = run(capsys, ["classify", "--scenario", path])
    assert (code, out, err) == (4, "", f"error[precondition]: {message}\n")
    assert object in scatter_dtypes
    code, out, err = run(capsys, ["classify", "--scenario", path, "--json"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == {"category": "precondition", "message": message}


def test_wrong_schema_version_is_parse_error(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 99, "group": "C2"})
    code, _, err = run(capsys, ["group", "--scenario", path])
    assert code == 2
    assert "schema_version" in err


def test_json_error_payload_on_stderr(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 99, "group": "C2"})
    code, out, err = run(capsys, ["group", "--scenario", path, "--json"])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["category"] == "parse"
    assert payload["error"]["field"] == "schema_version"


def test_unknown_label_is_reference_error(tmp_path, capsys):
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "S3",
            "k1": ["(19)"],
            "rho1": {},
            "k2": ["(12)"],
            "rho2": {},
        },
    )
    code, _, err = run(capsys, ["commute", "--scenario", path])
    assert code == 3
    assert "(19)" in err


def test_unknown_fixture_is_reference_error(capsys):
    code, _, err = run(capsys, ["paper-suite", "--only", "no-such-fixture"])
    assert code == 3


def test_oversized_group_is_precondition_error(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 1, "group": "S8"})
    code, _, err = run(capsys, ["group", "--scenario", path])
    assert code == 4


def test_bad_word_budget_is_precondition_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IDEMCONV_WORD_BUDGET", "5e6")
    path = scenario(tmp_path, {"schema_version": 1, "m": 2, "n": 3})
    code, out, err = run(capsys, ["free-walk", "--scenario", path])
    message = "IDEMCONV_WORD_BUDGET must be a positive integer, got '5e6'"
    assert (code, out, err) == (4, "", f"error[precondition]: {message}\n")


def test_conflicting_rotations_is_precondition_error(tmp_path, capsys):
    # rotation 1/3 on an order-2 element cannot extend to a character
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "S3",
            "k1": ["(12)"],
            "rho1": {"(12)": "1/3"},
            "k2": ["(123)"],
            "rho2": {},
        },
    )
    code, _, err = run(capsys, ["commute", "--scenario", path])
    assert code == 4


def test_json_output_is_deterministic(tmp_path, capsys):
    path = scenario(
        tmp_path,
        {
            "schema_version": 1,
            "group": "D4",
            "subgroup": ["r"],
            "rotations": {"r": "1/4"},
        },
    )
    argv = ["measure-groups", "--scenario", path, "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_corrupted_fixture_reports_named_failure(capsys, monkeypatch):
    """Negative control: a broken registry entry must fail loudly by name."""

    def broken(cfg):
        raise RuntimeError("fixture data corrupted")

    monkeypatch.setitem(suite_mod.FIXTURES, "broken-entry", broken)
    code, out, _ = run(capsys, ["paper-suite", "--only", "broken-entry"])
    assert code == 1
    assert "FAIL broken-entry" in out
    assert "0/1 fixtures passed" in out


def test_suite_failure_detail_in_json(capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("fixture data corrupted")

    monkeypatch.setitem(suite_mod.FIXTURES, "broken-entry", broken)
    code, payload, _ = run_json(capsys, ["paper-suite", "--only", "broken-entry"])
    assert code == 1
    (res,) = [r for r in payload["results"] if r["fixture"] == "broken-entry"]
    assert res["passed"] is False
    assert "RuntimeError" in res["details"]["error"]
