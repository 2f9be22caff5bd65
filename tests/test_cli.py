"""End-to-end CLI behavior: reports, exit codes, and the benchmark harness."""

import csv
import json
import pathlib
import subprocess
import sys
import time

import pytest

from qoscompose import build_search_graph, cli, errors
from qoscompose.cli import _parse_grid, main, run_bench
from qoscompose.leveling import request_training
from qoscompose.data_io import load_config, load_registry, render_classifier
from qoscompose.errors import EngineError

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DATA = pathlib.Path(__file__).resolve().parent / "data"
# `qoscompose compose`, `classify` and `replace --task plan_route --service
# pr_city` stdout on the fixtures, kept from an earlier release
GOLDEN_COMPOSE = DATA / "fixture_compose.json"
GOLDEN_CLASSIFY = DATA / "fixture_classify.txt"
GOLDEN_REPLACE = DATA / "fixture_replace.json"
# `qoscompose compose` stdout on `generate --tasks 40 --candidates 30
# --attributes 3 --seed 11`: a chain large enough to show selection and
# alternative changes the fixtures are too small for
GOLDEN_CHAIN = DATA / "chain_compose.json"
# `qoscompose replace --task t20 --service t20_s15` stdout on that chain: a
# middle task with both sides, at a scale where candidates share interfaces
GOLDEN_CHAIN_REPLACE = DATA / "chain_replace.json"
# `qoscompose compose --bins 5 --levels 4` stdout on that chain: pins the
# level codes away from the default 4 bins and 3 levels
GOLDEN_CHAIN_B5_L4 = DATA / "chain_compose_b5_l4.json"
# `qoscompose replace --composite chain_replace.json --task t21 --service
# t21_s15` stdout on that chain: its t20 and t21 services are not queue heads
GOLDEN_CHAIN_REPLACE_TWICE = DATA / "chain_replace_twice.json"


def fixture_args(command, **extra):
    argv = [
        command,
        "--registry", str(extra.pop("registry", FIXTURES / "registry.csv")),
        "--plan", str(extra.pop("plan", FIXTURES / "plan.json")),
        "--taxonomy", str(extra.pop("taxonomy", FIXTURES / "taxonomy.txt")),
        "--config", str(extra.pop("config", FIXTURES / "config.json")),
    ]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    return argv


def test_compose_on_shipped_fixtures(capsys):
    assert main(fixture_args("compose")) == 0
    report = json.loads(capsys.readouterr().out)
    primary = report["primary"]
    assert {t["task"]: t["service"] for t in primary["tasks"]} == {
        "book_vehicle": "bv_fast",
        "plan_route": "pr_city",
        "process_payment": "pay_card",
    }
    assert primary["score"] == 0.5625
    alternative = report["alternative"]
    assert {t["task"]: t["service"] for t in alternative["tasks"]} == {
        "book_vehicle": "bv_fast",
        "plan_route": "pr_scenic",
        "process_payment": "pay_card",
    }
    for section in (primary, alternative):
        product = 1.0
        for row in section["tasks"]:
            assert row["final_utility"] == row["utility"] * row["link_quality"]
            product *= row["final_utility"]
        assert section["score"] == product
    # the swap turns the route->payment link Exact
    by_task = {t["task"]: t for t in alternative["tasks"]}
    assert by_task["process_payment"]["link_quality"] == 1.0
    assert by_task["plan_route"]["links"][0]["pairs"][0]["match"] == "Exact"


def test_compose_matches_the_golden_fixture_report(capsys):
    assert main(fixture_args("compose")) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_COMPOSE.read_bytes()


def test_classify_matches_the_golden_fixture_rules(capsys):
    argv = [
        "classify",
        "--registry", str(FIXTURES / "registry.csv"),
        "--config", str(FIXTURES / "config.json"),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_CLASSIFY.read_bytes()


def test_replace_matches_the_golden_fixture_report(capsys):
    args = fixture_args("replace") + ["--task", "plan_route", "--service", "pr_city"]
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_REPLACE.read_bytes()


def chain_args(tmp_path, capsys, command):
    """Generate the golden chain into `tmp_path`; `command`'s argv over it."""
    generate = ["generate", "--tasks", "40", "--candidates", "30", "--attributes", "3"]
    assert main(generate + ["--seed", "11", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return fixture_args(
        command,
        registry=tmp_path / "registry.csv",
        plan=tmp_path / "plan.json",
        taxonomy=tmp_path / "taxonomy.txt",
        config=tmp_path / "config.json",
    )


def test_compose_matches_the_golden_chain_report(tmp_path, capsys):
    assert main(chain_args(tmp_path, capsys, "compose")) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_CHAIN.read_bytes()


def test_compose_at_5_bins_and_4_levels_matches_the_golden_chain_report(tmp_path, capsys):
    args = chain_args(tmp_path, capsys, "compose") + ["--bins", "5", "--levels", "4"]
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_CHAIN_B5_L4.read_bytes()


def test_replace_matches_the_golden_chain_report(tmp_path, capsys):
    args = chain_args(tmp_path, capsys, "replace")
    assert main(args + ["--task", "t20", "--service", "t20_s15"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_CHAIN_REPLACE.read_bytes()


def test_replace_on_a_saved_replaced_composite_matches_the_golden_chain_report(
    tmp_path, capsys
):
    args = chain_args(tmp_path, capsys, "replace") + ["--composite", str(GOLDEN_CHAIN_REPLACE)]
    assert main(args + ["--task", "t21", "--service", "t21_s15"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_CHAIN_REPLACE_TWICE.read_bytes()


def test_compose_is_deterministic(capsys):
    assert main(fixture_args("compose")) == 0
    first = capsys.readouterr().out
    assert main(fixture_args("compose")) == 0
    assert capsys.readouterr().out == first


def test_compose_out_flag_matches_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(fixture_args("compose", out=out)) == 0
    assert capsys.readouterr().out == ""
    assert main(fixture_args("compose")) == 0
    assert out.read_text() == capsys.readouterr().out


def test_missing_input_file_exits_3(capsys):
    code = main(fixture_args("compose", registry="/nonexistent/registry.csv"))
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_broken_registry_exits_10(tmp_path, capsys):
    bad = tmp_path / "registry.csv"
    bad.write_text("service_id,task_id,latency:-,inputs,outputs\nx,t,abc,A,B\n")
    code = main(fixture_args("compose", registry=bad))
    assert code == 10
    assert capsys.readouterr().err.startswith("error [load]:")


def test_all_disjoint_links_exit_41(tmp_path, capsys):
    # route services demand Boat while every vehicle service emits Car kinds,
    # and Car/Boat are declared disjoint
    lines = (FIXTURES / "registry.csv").read_text().splitlines()
    rewritten = [
        line.replace(",Vehicle,CityRoute", ",Boat,CityRoute")
        .replace(",Car,Route", ",Boat,Route")
        .replace(",Auto,Route", ",Boat,Route")
        for line in lines
    ]
    bad = tmp_path / "registry.csv"
    bad.write_text("\n".join(rewritten) + "\n")
    code = main(fixture_args("compose", registry=bad, threshold="0.0"))
    assert code == 41
    err = capsys.readouterr().err
    assert err.startswith("error [selection]:")
    assert "plan_route" in err


def test_threshold_override_thins_queues(capsys):
    assert main(fixture_args("compose", threshold="0.9")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alternative"] is None  # every queue is a singleton
    assert report["primary"]["score"] == 0.5625


def test_unreachable_demand_exits_26(tmp_path, capsys):
    config = json.loads((FIXTURES / "config.json").read_text())
    config["request"]["ranges"]["response_time"] = [900, 2000]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(fixture_args("compose", config=path))
    assert code == 26
    assert capsys.readouterr().err.startswith("error [training]:")


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (["bins"], 1, "bins"),
        (["bins"], "x", "bins"),
        (["threshold"], 2, "threshold"),
        (["request", "ranges", "availability"], [99.0, 90.0], "request"),
        (["request", "ranges", "availability"], ["high", 100.0],
         "request.ranges.availability"),
        (["levels"], {"n_levels": 3, "coefficients": [1.0, 0.25, 0.75]}, "levels"),
        # JSON true is not read as 1: antecedents of one item, threshold 1.0
        (["mining", "max_antecedent_size"], True, "mining"),
        (["threshold"], True, "threshold"),
    ],
    ids=["bins-1", "bins-x", "threshold-2", "lo-above-hi", "non-numeric-range",
         "coefficients-not-descending", "max_antecedent_size-true", "threshold-true"],
)
def test_bad_config_value_exits_10_naming_its_field(tmp_path, capsys, keys, value, field):
    config = json.loads((FIXTURES / "config.json").read_text())
    section = config
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(fixture_args("compose", config=path)) == 10
    err = capsys.readouterr().err
    assert err.startswith(f"error [load]: bad value for {field}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [("bins", 1), ("threshold", 2), ("levels", 1), ("levels", 65_537), ("levels", 10**6)],
    ids=["bins-1", "threshold-2", "levels-1", "levels-65537", "levels-1e6"],
)
def test_bad_override_exits_10_naming_its_flag(capsys, flag, value):
    assert main(fixture_args("compose", **{flag: value})) == 10
    assert capsys.readouterr().err.startswith(f"error [load]: bad value for --{flag}: ")
    classify = [
        "classify",
        "--registry", str(FIXTURES / "registry.csv"),
        "--config", str(FIXTURES / "config.json"),
        f"--{flag}", str(value),
    ]
    assert main(classify) == 10
    assert capsys.readouterr().err.startswith(f"error [load]: bad value for --{flag}: ")


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (["bins"], 2.7, "bins"),
        (["levels", "n_levels"], 3.5, "levels"),
        (["mining", "max_antecedent_size"], 1.5, "mining"),
    ],
    ids=["bins", "n_levels", "max_antecedent_size"],
)
def test_fractional_whole_number_exits_10(tmp_path, capsys, keys, value, field):
    config = json.loads((FIXTURES / "config.json").read_text())
    section = config
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["classify", "--registry", str(FIXTURES / "registry.csv"), "--config", str(path)]
    assert main(argv) == 10
    assert capsys.readouterr().err.startswith(f"error [load]: bad value for {field}: ")



HUGE = "9" * 400  # an integer too large for a float
TOO_MANY_DIGITS = "1" * 5000  # past Python's integer string conversion limit


def _with_literal(doc, keys, literal):
    """`doc` as JSON text with the value at `keys` written as the raw `literal`."""
    section = doc
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = "@LITERAL@"
    return json.dumps(doc).replace('"@LITERAL@"', literal)


@pytest.mark.parametrize(
    "keys, literal, field",
    [
        (["threshold"], HUGE, "threshold"),
        (["request", "ranges", "availability", 0], HUGE, "request.ranges.availability"),
        (["request", "ranges", "availability", 1], HUGE, "request.ranges.availability"),
        (["levels", "coefficients", 1], HUGE, "levels"),
        (["mining", "min_support"], HUGE, "mining"),
        (["mining", "min_confidence"], HUGE, "mining"),
        (["request", "preferences", "availability"], "1e999", "request.preferences"),
        (["request", "preferences", "availability"], "1.5", "request.preferences"),
    ],
    ids=["threshold", "range-lo", "range-hi", "coefficient", "min_support",
         "min_confidence", "preference-1e999", "preference-1.5"],
)
def test_an_unreadable_config_number_exits_10_naming_its_field(
    tmp_path, capsys, keys, literal, field
):
    path = tmp_path / "config.json"
    config = json.loads((FIXTURES / "config.json").read_text())
    path.write_text(_with_literal(config, keys, literal))
    assert main(fixture_args("compose", config=path)) == 10
    assert capsys.readouterr().err.startswith(f"error [load]: bad value for {field}: ")


@pytest.mark.parametrize(
    "keys",
    [
        ["primary", "score"],
        ["primary", "tasks", 1, "final_utility"],
        ["primary", "tasks", 1, "link_quality"],
    ],
    ids=["score", "final_utility", "link_quality"],
)
def test_a_composite_number_too_large_for_a_float_exits_10(tmp_path, capsys, keys):
    path = tmp_path / "composite.json"
    path.write_text(_with_literal(json.loads(GOLDEN_COMPOSE.read_text()), keys, HUGE))
    argv = fixture_args("replace") + [
        "--task", "plan_route", "--service", "pr_city", "--composite", str(path),
    ]
    assert main(argv) == 10
    assert capsys.readouterr().err.startswith(
        f"error [load]: {path} does not hold a composite report: ValueError"
    )


@pytest.mark.parametrize("option", ["config", "plan", "composite"])
def test_an_integer_past_the_digit_limit_exits_10_naming_its_file(tmp_path, capsys, option):
    path = tmp_path / "too_many_digits.json"
    path.write_text(f'{{"x": {TOO_MANY_DIGITS}}}')
    argv = fixture_args("replace", task="plan_route", service="pr_city", **{option: path})
    assert main(argv) == 10
    assert capsys.readouterr().err.startswith(f"error [load]: {path} is not valid JSON: ")


def _edited_config(tmp_path, edit):
    config = json.loads((FIXTURES / "config.json").read_text())
    edit(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _nan_availability(config):
    config["request"]["ranges"]["availability"] = [float("nan"), 100]


def _bogus_attribute(config):
    config["request"]["ranges"]["bogus"] = [0, 1]
    config["request"]["preferences"]["bogus"] = 5


def _saved_composite(tmp_path, edit):
    """`replace --composite` on the golden compose report after `edit(text)`."""
    path = tmp_path / "composite.json"
    path.write_text(edit(GOLDEN_COMPOSE.read_text()))
    return fixture_args("replace") + [
        "--task", "plan_route", "--service", "pr_city", "--composite", str(path),
    ]


def _first_task(edit):
    def apply(text):
        doc = json.loads(text)
        edit(doc["primary"]["tasks"][0])
        return json.dumps(doc)
    return apply


def _only_plan_route(text):
    doc = json.loads(text)
    doc["primary"]["tasks"] = [
        t for t in doc["primary"]["tasks"] if t["task"] == "plan_route"
    ]
    return json.dumps(doc)


def _not_utf8(tmp):
    path = tmp / "not_utf8"
    path.write_bytes(b"\xff\xfe\x00")
    return path


def _repeated_column(tmp):
    """The fixture registry with its availability column repeated as availability:-."""
    with open(FIXTURES / "registry.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("availability:+")
    rows[0].insert(col + 1, "availability:-")
    for row in rows[1:]:
        row.insert(col + 1, row[col])
    path = tmp / "registry.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _oversized_field(tmp):
    """The fixture registry plus, on line 3, a quoted field over csv's 131 072-character limit."""
    lines = (FIXTURES / "registry.csv").read_text().splitlines(keepends=True)
    lines.insert(2, 'big,book_vehicle,1,1,1,1,"' + "x" * 131_073 + '",Car\n')
    path = tmp / "registry.csv"
    path.write_text("".join(lines))
    return path


def _deep_json(tmp):
    path = tmp / "deep.json"
    path.write_text("[" * 200_000)
    return path


NOT_UTF8 = "error [load]: {tmp}/not_utf8 is not UTF-8 text: "
DEEP_JSON = "error [load]: {tmp}/deep.json nests JSON too deeply to parse\n"


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (lambda tmp: fixture_args("compose", config=_edited_config(tmp, _nan_availability)),
         10, "error [load]: bad value for request: "),
        (lambda tmp: fixture_args("compose", config=_edited_config(tmp, _bogus_attribute)),
         13, "error [training]: "),
        (lambda tmp: [
            "classify",
            "--registry", str(FIXTURES / "registry.csv"),
            "--config", str(_edited_config(tmp, _bogus_attribute)),
         ], 13, "error [training]: "),
        (lambda tmp: ["generate", "--tasks", "0", "--out", str(tmp)], 18, "error [load]: "),
        (lambda tmp: ["bench", "--grid", "2", "--attributes", "0"], 18, "error [load]: "),
        (lambda tmp: ["bench", "--grid", "2", "--threshold", "2"], 18, "error [load]: "),
        (lambda tmp: ["bench", "--grid", "2", "--reps", "0"], 2, "error: --reps "),
        (lambda tmp: _saved_composite(tmp, lambda text: "not json"),
         10, "error [load]: line 1: {tmp}/composite.json is not valid JSON: "),
        (lambda tmp: _saved_composite(tmp, _first_task(lambda t: t.pop("service"))),
         10, "error [load]: {tmp}/composite.json does not hold a composite report: KeyError"),
        (lambda tmp: _saved_composite(tmp, _first_task(lambda t: t.update(final_utility="x"))),
         10, "error [load]: {tmp}/composite.json does not hold a composite report: ValueError"),
        (lambda tmp: _saved_composite(tmp, _only_plan_route),
         43, "error [load]: saved composite assigns no service to "),
        (lambda tmp: fixture_args("compose", registry=_not_utf8(tmp)), 10, NOT_UTF8),
        (lambda tmp: fixture_args("compose", plan=_not_utf8(tmp)), 10, NOT_UTF8),
        (lambda tmp: fixture_args("compose", taxonomy=_not_utf8(tmp)), 10, NOT_UTF8),
        (lambda tmp: fixture_args("compose", config=_not_utf8(tmp)), 10, NOT_UTF8),
        (lambda tmp: fixture_args(
            "replace", task="plan_route", service="pr_city", composite=_not_utf8(tmp)
         ), 10, NOT_UTF8),
        (lambda tmp: fixture_args("compose", registry=_repeated_column(tmp)),
         10, "error [load]: line 1: attribute column 'availability:-' repeats "),
        (lambda tmp: fixture_args("compose", registry=_oversized_field(tmp)),
         10, "error [load]: line 3: malformed CSV: field larger than field limit"),
        (lambda tmp: fixture_args("compose", plan=_deep_json(tmp)), 10, DEEP_JSON),
        (lambda tmp: fixture_args("compose", config=_deep_json(tmp)), 10, DEEP_JSON),
        (lambda tmp: fixture_args(
            "replace", task="plan_route", service="pr_city", composite=_deep_json(tmp)
         ), 10, DEEP_JSON),
        (lambda tmp: fixture_args("replace", task="process_payment", service="pay_card"),
         44, "error [replacement]: no replacement candidate left for task "),
        (lambda tmp: fixture_args("replace", task="nope", service="pay_card"),
         14, "error [replacement]: task 'nope' is not part of the search graph"),
    ],
    ids=[
        "nan-range", "bogus-attribute-compose", "bogus-attribute-classify",
        "generate-tasks-0", "bench-attributes-0", "bench-threshold-2", "bench-reps-0",
        "composite-not-json", "composite-task-without-service",
        "composite-non-numeric-final-utility", "composite-missing-tasks",
        "not-utf8-registry", "not-utf8-plan", "not-utf8-taxonomy", "not-utf8-config",
        "not-utf8-composite", "repeated-attribute-column", "oversized-csv-field",
        "deep-json-plan", "deep-json-config", "deep-json-composite",
        "replace-no-candidate-stage", "replace-unknown-task-stage",
    ],
)
def test_bad_input_ends_in_an_error_line_not_a_traceback(tmp_path, argv, code, prefix):
    """`prefix` starts stderr once `{tmp}` in it is replaced by the test's directory."""
    proc = subprocess.run(
        [sys.executable, "-m", "qoscompose.cli"] + argv(tmp_path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix.format(tmp=tmp_path)), proc.stderr
    assert "Traceback" not in proc.stderr


# every error family's process exit code
EXIT_CODES = {
    errors.ParseError: 10,
    errors.EmptyRegistry: 11,
    errors.NonFiniteValue: 12,
    errors.UnknownAttribute: 13,
    errors.UnknownTask: 14,
    errors.UnknownConcept: 15,
    errors.CycleDetected: 16,
    errors.InconsistentTaxonomy: 17,
    errors.InvalidValue: 18,
    errors.SchemaMismatch: 20,
    errors.OutOfRangeValue: 21,
    errors.EmptyCandidateSet: 22,
    errors.ValueOutOfRange: 23,
    errors.EmptyTrainingSet: 24,
    errors.LevelOutOfRange: 25,
    errors.DegenerateRequest: 26,
    errors.NoEligibleCandidate: 40,
    errors.NoAdmissibleLink: 41,
    errors.NoAlternative: 42,
    errors.NotSelectedService: 43,
    errors.NoReplacementCandidate: 44,
}


def test_every_error_class_carries_its_exit_code():
    declared = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, EngineError) and obj is not EngineError
    }
    assert declared == set(EXIT_CODES)
    assert {cls: cls.exit_code for cls in declared} == EXIT_CODES
    assert EngineError.exit_code == 1


@pytest.mark.parametrize("cls", [EngineError, errors.CycleDetected, errors.NoAlternative])
def test_main_returns_the_raised_error_s_exit_code(monkeypatch, capsys, cls):
    def fail(_path):
        raise cls("boom")

    monkeypatch.setattr("qoscompose.cli.load_registry", fail)
    argv = ["classify", "--registry", "r.csv", "--config", str(FIXTURES / "config.json")]
    assert main(argv) == cls.exit_code
    assert capsys.readouterr().err == "error [load]: boom\n"


def test_impossible_threshold_exits_40(capsys):
    code = main(fixture_args("compose", threshold="1.0"))
    assert code == 40
    assert capsys.readouterr().err.startswith("error [selection]:")


def test_oversized_training_set_exits_23_before_training(capsys):
    start = time.perf_counter()
    code = main(fixture_args("compose", bins="64"))
    elapsed = time.perf_counter() - start
    assert code == 23
    err = capsys.readouterr().err
    assert err.startswith("error [training]:")
    assert "64 bins over 4 attributes synthesize 16777216 training rows" in err
    assert elapsed < 1.0, f"refusing 64 bins took {elapsed:.2f}s"
    proc = subprocess.run(
        [sys.executable, "-m", "qoscompose.cli"] + fixture_args("compose", bins="64"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 23
    assert proc.stderr.startswith("error [training]:")
    assert "Traceback" not in proc.stderr


def test_classify_tags_oversized_training_with_its_stage(capsys):
    argv = [
        "classify",
        "--registry", str(FIXTURES / "registry.csv"),
        "--config", str(FIXTURES / "config.json"),
        "--bins", "64",
    ]
    assert main(argv) == 23
    err = capsys.readouterr().err
    assert err.startswith("error [training]:")
    assert "16777216 training rows" in err


def test_replace_selected_service(capsys):
    args = fixture_args("replace") + ["--task", "plan_route", "--service", "pr_city"]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    by_task = {t["task"]: t for t in report["tasks"]}
    assert by_task["plan_route"]["service"] == "pr_scenic"
    # both neighbors link Exact to the stand-in, so the averaged quality is 1.0
    assert by_task["plan_route"]["link_quality"] == 1.0
    # downstream selections keep their original stored utilities
    assert by_task["process_payment"]["final_utility"] == 0.75


def test_replace_with_saved_composite(tmp_path, capsys):
    saved = tmp_path / "composite.json"
    assert main(fixture_args("compose", out=saved)) == 0
    args = fixture_args("replace") + [
        "--task", "plan_route",
        "--service", "pr_city",
        "--composite", str(saved),
    ]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert {t["task"]: t["service"] for t in report["tasks"]} == {
        "book_vehicle": "bv_fast",
        "plan_route": "pr_scenic",
        "process_payment": "pay_card",
    }


@pytest.mark.parametrize(
    "task, service", [("book_vehicle", "bv_cheap"), ("no_such_task", "bv_fast")],
    ids=["service-outside-the-queue", "unknown-task"],
)
def test_replace_refuses_a_saved_composite_the_inputs_cannot_produce(
    tmp_path, capsys, task, service
):
    saved = tmp_path / "composite.json"
    assert main(fixture_args("compose", out=saved)) == 0
    doc = json.loads(saved.read_text())
    doc["primary"]["tasks"][0].update(task=task, service=service)
    saved.write_text(json.dumps(doc))
    args = fixture_args("replace") + [
        "--task", "plan_route", "--service", "pr_city", "--composite", str(saved),
    ]
    assert main(args) == 43
    assert f"saved composite assigns {service!r} to {task!r}" in capsys.readouterr().err


def test_replace_error_codes(capsys):
    base = fixture_args("replace")
    assert main(base + ["--task", "no_such_task", "--service", "pr_city"]) == 14
    capsys.readouterr()
    # bv_cheap never enters a queue, so it cannot have been selected
    assert main(base + ["--task", "book_vehicle", "--service", "bv_cheap"]) == 43
    capsys.readouterr()
    # process_payment has a single eligible candidate and no stand-in
    assert main(base + ["--task", "process_payment", "--service", "pay_card"]) == 44


def test_classify_writes_loadable_rules(tmp_path, capsys):
    out = tmp_path / "rules.txt"
    argv = [
        "classify",
        "--registry", str(FIXTURES / "registry.csv"),
        "--config", str(FIXTURES / "config.json"),
    ]
    assert main(argv + ["--out", str(out)]) == 0
    config, request = load_config(str(FIXTURES / "config.json"))
    registry = load_registry(str(FIXTURES / "registry.csv"))
    classifier, _ = request_training(request, registry, config)
    assert classifier.default_class == "2"
    assert len(classifier.rules) == 22
    perfect = [r for r in classifier.rules if r.confidence == 1.0]
    assert len(perfect) == 22  # this request is fully separable
    assert out.read_text() == render_classifier(classifier)
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_generate_then_compose_round_trip(tmp_path, capsys):
    argv = [
        "generate",
        "--tasks", "4",
        "--candidates", "3",
        "--attributes", "4",
        "--seed", "11",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    for name in ("registry.csv", "plan.json", "taxonomy.txt", "config.json"):
        assert (tmp_path / name).exists()
    compose_argv = [
        "compose",
        "--registry", str(tmp_path / "registry.csv"),
        "--plan", str(tmp_path / "plan.json"),
        "--taxonomy", str(tmp_path / "taxonomy.txt"),
        "--config", str(tmp_path / "config.json"),
        "--threshold", "0.0",
    ]
    assert main(compose_argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["primary"]["tasks"]) == 4
    assert 0.0 < report["primary"]["score"] <= 1.0


def test_bench_csv_shape(capsys):
    argv = ["bench", "--grid", "2,3x2", "--reps", "2", "--seed", "5"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "tasks,candidates,repetitions,mean_ranking_ms,"
        "mean_selection_ms,mean_alternative_ms"
    )
    assert len(lines) == 3  # two task sizes x one candidate size
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert int(cells[2]) == 2
        assert all(float(c) >= 0.0 for c in cells[3:])


def test_bench_classification_column(capsys):
    argv = [
        "bench", "--grid", "2x2", "--reps", "1", "--include-classification",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith(",classification_ms")
    assert len(lines[1].split(",")) == 7


def test_run_bench_returns_all_grid_points():
    results = run_bench([2, 3], [2, 4], attributes=2, repetitions=2, seed=3)
    assert [(r.tasks, r.candidates) for r in results] == [
        (2, 2), (2, 4), (3, 2), (3, 4),
    ]
    for res in results:
        assert len(res.selection_ms) == 2
        assert res.mean_ranking_ms >= res.mean_selection_ms


def test_run_bench_repeats_round_robin_over_the_grid(monkeypatch):
    """One repetition of every point, then the next, so a burst of host
    contention is shared by all points."""
    built = []

    def recording(plan, *args):
        built.append(len(plan.tasks))
        return build_search_graph(plan, *args)

    monkeypatch.setattr(cli, "build_search_graph", recording)
    run_bench([2, 3], [2], attributes=2, repetitions=3, seed=3)
    assert built == [2, 3] * 3


def test_parse_grid_forms():
    assert _parse_grid("10,20x30,40") == ([10, 20], [30, 40])
    assert _parse_grid("5") == ([5], [5])
    assert _parse_grid("5,7") == ([5, 7], [5, 7])
    with pytest.raises(ValueError):
        _parse_grid("x5")
    with pytest.raises(ValueError):
        _parse_grid("abc")
    with pytest.raises(ValueError):
        _parse_grid("0")
    with pytest.raises(ValueError):
        _parse_grid("5x-3")


def test_bench_rejects_bad_grid(capsys):
    assert main(["bench", "--grid", "abc"]) == 2
    assert "malformed benchmark grid" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qoscompose.cli"] + fixture_args("compose"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["primary"]["score"] == 0.5625
