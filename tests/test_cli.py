"""Command-line interface: scenarios, payloads, exit codes."""

import json
import sys
from pathlib import Path

import pytest

from idemconv import cli, groups, measure_groups
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


# Every scenario shape and error path of the CLI, run in text and in --json:
# exit code, stdout (lines, or the parsed payload) and stderr, exactly.
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())


@pytest.mark.parametrize("pin", PINS, ids=[pin["id"] for pin in PINS])
def test_cli_output_is_pinned(tmp_path, capsys, monkeypatch, pin):
    for name, value in pin.get("env", {}).items():
        monkeypatch.setenv(name, value)
    argv = list(pin["argv"])
    if "scenario" in pin:
        argv += ["--scenario", scenario(tmp_path, pin["scenario"])]
    code, out, err = run(capsys, argv)
    assert {"code": code, "stdout": out.splitlines(), "stderr": err} == pin["text"]
    assert out == "".join(line + "\n" for line in pin["text"]["stdout"])
    code, out, err = run(capsys, argv + ["--json"])
    want = pin["json"]
    assert code == want["code"]
    assert out == dump(want["stdout"], indent=2)
    assert err == dump(want["stderr"])


def dump(obj, indent=None):
    """The CLI's JSON rendering of obj, or nothing for None."""
    return "" if obj is None else json.dumps(obj, sort_keys=True, indent=indent) + "\n"


def test_table_past_the_bound_is_precondition_error(tmp_path, capsys):
    path = scenario(tmp_path, {"schema_version": 1, "group": {"table": [[0]] * 1025}})
    message = "table has 1025 rows, beyond the desk-scale bound of 1024"
    code, out, err = run(capsys, ["group", "--scenario", path])
    assert (code, out, err) == (4, "", f"error[precondition] at group.table: {message}\n")
    code, out, err = run_json(capsys, ["group", "--scenario", path])
    assert code == 4 and out is None
    assert json.loads(err)["error"] == {
        "category": "precondition", "field": "group.table", "message": message
    }
    # 1024 rows pass the bound, and the table is then refused as a table
    path = scenario(tmp_path, {"schema_version": 1, "group": {"table": [[0]] * 1024}})
    code, out, err = run(capsys, ["group", "--scenario", path])
    assert (code, out) == (2, "")
    assert err.startswith("error[parse] at group.table: invalid group table:")


FLAG_SCENARIOS = {
    "limit": {
        "schema_version": 1,
        "group": "S3",
        "factors": [{"subgroup": ["(12)"], "rotations": {"(12)": "1/2"}}],
    },
    "stromberg": {
        "schema_version": 1,
        "group": "C3",
        "measure": {"scale": ["1/2", {"sum": [{"dirac": "a"}, {"dirac": "a^2"}]}]},
    },
}


BAD_FLAGS = {
    "limit --tol -1": "--tol must be finite and > 0, got -1.0",
    "limit --tol nan": "--tol must be finite and > 0, got nan",
    "limit --tol inf": "--tol must be finite and > 0, got inf",
    "limit --max-iter 0": "--max-iter must be >= 1, got 0",
    "stromberg --tol -1": "--tol must be finite and > 0, got -1.0",
    "stromberg --max-iter -5": "--max-iter must be >= 1, got -5",
    "example33 --grid 0": "--grid must be >= 1, got 0",
    "paper-suite --tol 0": "--tol must be finite and > 0, got 0.0",
    "paper-suite --grid -1": "--grid must be >= 1, got -1",
    "paper-suite --max-iter 0": "--max-iter must be >= 1, got 0",
}


@pytest.mark.parametrize("command", BAD_FLAGS)
def test_bad_flag_is_parse_error(tmp_path, capsys, command):
    argv = command.split()
    flag, message = argv[1], BAD_FLAGS[command]
    if argv[0] in FLAG_SCENARIOS:
        argv += ["--scenario", scenario(tmp_path, FLAG_SCENARIOS[argv[0]])]
    assert run(capsys, argv) == (2, "", f"error[parse] at {flag}: {message}\n")
    code, out, err = run_json(capsys, argv)
    assert (code, out) == (2, None)
    assert json.loads(err)["error"] == {"category": "parse", "field": flag, "message": message}


def test_smallest_flag_values_are_accepted(tmp_path, capsys):
    path = scenario(tmp_path, FLAG_SCENARIOS["limit"])
    code, payload, _ = run_json(capsys, ["limit", "--scenario", path, "--max-iter", "1"])
    assert code == 0 and payload["iterations"] == 1
    code, payload, _ = run_json(capsys, ["example33", "--grid", "1"])
    assert code == 0 and payload["grid"] == 1


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


def test_generators_run_one_permutation_closure(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(gens, degree, cap=None, real=groups._permutation_closure):
        calls.append(cap)
        return real(gens, degree, cap)

    monkeypatch.setattr(cli, "_permutation_closure", counted)
    monkeypatch.setattr(groups, "_permutation_closure", counted)
    path = scenario(
        tmp_path, {"schema_version": 1, "group": {"generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}}
    )
    code, payload, _ = run_json(capsys, ["group", "--scenario", path])
    assert code == 0 and payload["order"] == 24
    assert calls == [cli.MAX_GROUP_ORDER]


def test_measure_groups_computes_g_k_rho_once(tmp_path, capsys, monkeypatch):
    real = measure_groups.g_k_rho
    calls = []

    def counted(k, rho):
        calls.append(k)
        return real(k, rho)

    monkeypatch.setattr(cli, "g_k_rho", counted)
    monkeypatch.setattr(measure_groups, "g_k_rho", counted)
    path = scenario(
        tmp_path,
        {"schema_version": 1, "group": "S4", "subgroup": ["(12)"], "rotations": {"(12)": "1/2"}},
    )
    # the command reads G_{K,rho} itself and through omega_class_count; the
    # second read must be a cache hit on the first
    before = real.cache_info()
    code, payload, _ = run_json(capsys, ["measure-groups", "--scenario", path])
    after = real.cache_info()
    assert code == 0 and len(calls) == 2 and len(set(calls)) == 1
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert (payload["gamma_size"], payload["omega_classes"]) == (4, 2)


def test_measure_groups_gathers_n_k_rho_once(tmp_path, capsys):
    # n_k_rho and g_k_rho both read the N_{K,rho} masks of the one item;
    # the gather runs for the first and the second is a cache hit
    path = scenario(
        tmp_path,
        {"schema_version": 1, "group": "S4", "subgroup": ["(12)"], "rotations": {"(12)": "1/2"}},
    )
    before = measure_groups._n_k_rho_masks.cache_info()
    code, payload, _ = run_json(capsys, ["measure-groups", "--scenario", path])
    after = measure_groups._n_k_rho_masks.cache_info()
    assert code == 0 and sorted(payload["n_k_rho"]) == ["(12)", "(12)(34)", "(34)", "e"]
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


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
