"""Refusals through the engine's error scopes: each keeps its type, text and stage.

`errors.stage` tags an engine error with its stage, and `data_io.parse_errors`
turns other exceptions into a ParseError (`config_field` and the loaders'
UTF-8 check are two of its uses); these cases pin what each one reports.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from qoscompose import (
    CompositionPlan, Polarity, QoSAttribute, QoSVector, Registry, RegistryRecord, Taxonomy,
    UserRequest, compose_with_graph, load_config, load_registry, load_taxonomy, normalize,
    synthesize_training_set,
)
from qoscompose.cli import main
from qoscompose.data_io import config_field, default_config
from qoscompose.errors import (
    CycleDetected, EmptyCandidateSet, EmptyTrainingSet, EngineError, OutOfRangeValue,
    ParseError, SchemaMismatch, UnknownTask, stage,
)
from qoscompose.leveling import default_scheme

from mutations import KINDS, check_outcome, commands, mutate, workloads, write

SCHEMA = [QoSAttribute("a", Polarity.POSITIVE)]
PLAN = CompositionPlan(frozenset(["t1"]), frozenset())
TAXONOMY = Taxonomy(frozenset(["A"]))
REQUEST = UserRequest({"a": (1.0, 2.0)}, {"a": 1})


def record(service_id, values):
    return RegistryRecord(service_id, "t1", values, (), ("A",))


@pytest.mark.parametrize(
    "records, error, at, text",
    [
        pytest.param(
            [record("s1", {"a": 1.0}), record("s2", {"a": float("nan")})],
            OutOfRangeValue, "scaling", "a=nan of 's2' outside extremes (1.0, 1.0)",
            id="nan-value",
        ),
        pytest.param(
            [record("s1", {"a": 1.0}), record("s2", {"b": 1.0})],
            SchemaMismatch, "training", "candidate 's2' does not share the attribute schema",
            id="keys-differ-from-the-first-record",
        ),
        pytest.param(
            [record("s1", {"b": 1.0}), record("s2", {"b": 2.0})],
            SchemaMismatch, "training", "extremes do not cover the declared schema",
            id="keys-lack-a-schema-attribute",
        ),
        pytest.param(
            [record("s1", {"a": 1.0, "b": 1.0})],
            SchemaMismatch, "scaling", "candidate 's1' does not match the declared schema",
            id="keys-exceed-the-schema",
        ),
        pytest.param(
            [], EmptyCandidateSet, "training",
            "cannot compute extremes of an empty candidate set",
            id="empty-registry",
        ),
        # finite values whose spread overflows, which would scale to NaN
        pytest.param(
            [record("s1", {"a": -1.7e308}), record("s2", {"a": 1.7e308})],
            OutOfRangeValue, "scaling",
            "a spreads from -1.7e+308 of 's1' to 1.7e+308 of 's2', wider than a float holds",
            id="spread-overflows",
        ),
    ],
)
def test_a_registry_built_in_code_is_refused_at_its_stage(records, error, at, text):
    registry = Registry(SCHEMA, records)
    for _ in range(2):  # nothing a refusal leaves behind changes the second one
        with pytest.raises(error) as info:
            compose_with_graph(REQUEST, PLAN, registry, TAXONOMY, default_config())
        assert (info.value.stage, str(info.value)) == (at, text)
    # no basis is kept for any `bins`
    assert not vars(registry).get("_bases")


WIDE = {"a": (-1.7e308, 1.7e308)}
NEGATIVE = [QoSAttribute("a", Polarity.NEGATIVE)]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: synthesize_training_set(
                UserRequest({"a": (-1.7e308, 0.0)}, {"a": 1}), WIDE, default_scheme(), 4,
                NEGATIVE,
            ),
            id="training-set",
        ),
        pytest.param(lambda: normalize(QoSVector("s", {"a": 1.0}), WIDE, NEGATIVE),
                     id="normalize"),
    ],
)
def test_extremes_built_in_code_that_spread_too_wide_are_refused(call):
    """Such a spread scales to NaN or 0; `compute_extremes` never makes one."""
    with pytest.raises(OutOfRangeValue) as info:
        call()
    assert str(info.value) == "a spreads from -1.7e+308 to 1.7e+308, wider than a float holds"


def test_an_empty_schema_built_in_code_is_refused_at_training():
    registry = Registry([], [RegistryRecord("s", "t1", {}, (), ("A",))])
    text = "cannot synthesize training rows from a schema with no attribute"
    with pytest.raises(EmptyTrainingSet, match=f"^{text}$") as info:
        compose_with_graph(UserRequest({}, {}), PLAN, registry, TAXONOMY, default_config())
    assert info.value.stage == "training"
    with pytest.raises(EmptyTrainingSet, match=f"^{text}$"):
        synthesize_training_set(UserRequest({}, {}), {}, default_scheme(), 4, [])


def test_a_repeated_schema_attribute_is_refused_by_name_at_training():
    """Refused before any training row is built, not by the miner's check that
    a row holds one item per attribute; a library caller reading the level
    bases directly meets the same refusal, not bases with one label."""
    schema = [QoSAttribute("a", Polarity.POSITIVE), QoSAttribute("a", Polarity.NEGATIVE)]
    registry = Registry(schema, [record("s1", {"a": 1.0}), record("s2", {"a": 2.0})])
    text = "schema names attribute 'a' more than once"
    with pytest.raises(SchemaMismatch, match=f"^{text}$") as info:
        compose_with_graph(REQUEST, PLAN, registry, TAXONOMY, default_config())
    assert (info.value.stage, info.value.exit_code) == ("training", 20)
    with pytest.raises(SchemaMismatch, match=f"^{text}$"):
        synthesize_training_set(REQUEST, {"a": (1.0, 2.0)}, default_scheme(), 4, schema)
    with pytest.raises(SchemaMismatch, match=f"^{text}$"):
        registry.level_bases(4)


def test_a_subsumption_cycle_names_its_concepts(tmp_path):
    path = tmp_path / "taxonomy.txt"
    path.write_text(
        "concept A\nconcept B\nconcept C\nconcept D\n"
        "subclass A B\nsubclass B C\nsubclass C A\nsubclass D A\n"
    )
    with pytest.raises(CycleDetected) as info:
        load_taxonomy(str(path))
    assert str(info.value) == "subsumption hierarchy contains a cycle: ['A', 'C', 'B', 'A']"
    assert info.value.stage is None


def test_a_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_bytes(b"service_id,task_id,a:+,inputs,outputs\n\xff,t1,1.0,,\n")
    with pytest.raises(ParseError) as info:
        load_registry(str(path))
    assert str(info.value) == (
        f"{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        "position 38: invalid start byte"
    )
    assert info.value.stage is None


@pytest.mark.parametrize(
    "fields, text",
    [
        ('"bins": 1', "bad value for bins: discretization needs at least 2 bins"),
        ('"threshold": "0.5"', "bad value for threshold: '0.5' is not a number"),
        # bins is read and checked before threshold, so it is the one named
        ('"bins": 1, "threshold": "0.5"',
         "bad value for bins: discretization needs at least 2 bins"),
        ('"threshold": 1.5', "bad value for threshold: eligibility threshold must lie in [0, 1]"),
        ('"levels": {"n_levels": 3, "coefficients": [1.0, 0.5]}',
         "bad value for levels: scheme needs one coefficient per level"),
    ],
)
def test_a_bad_config_field_is_named(tmp_path, fields, text):
    path = tmp_path / "config.json"
    path.write_text('{"request": {"ranges": {"a": [0, 1]}}, ' + fields + "}")
    with pytest.raises(ParseError) as info:
        load_config(str(path))
    assert (str(info.value), info.value.stage) == (text, None)


def test_config_fills_a_missing_threshold_with_its_default(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"request": {"ranges": {"a": [0, 1]}}, "bins": 5}')
    config, _ = load_config(str(path))
    assert (config.bins, config.threshold) == (5, 0.25)


def test_stage_tags_only_untagged_engine_errors():
    with pytest.raises(UnknownTask) as info:
        with stage("outer"):
            with stage("inner"):
                raise UnknownTask("t9")
    assert info.value.stage == "inner"
    # anything else passes through untouched, with no stage attribute added
    failure = KeyError("k")
    with pytest.raises(KeyError) as info:
        with stage("selection"):
            raise failure
    assert info.value is failure and not hasattr(failure, "stage")
    with stage("selection"):
        pass


def test_config_field_turns_only_value_and_type_errors_into_parse_errors():
    with pytest.raises(ParseError, match="^bad value for x: boom$") as info:
        with config_field("x"):
            raise TypeError("boom")
    assert info.value.__suppress_context__
    for other in (KeyError("k"), EngineError("e")):
        with pytest.raises(type(other)) as info:
            with config_field("x"):
                raise other
        assert info.value is other


@st.composite
def mutations(draw):
    """A workload, one of its files, and that file with one edit of `mutate`'s."""
    workload = draw(st.sampled_from(sorted(workloads())))
    files = workloads()[workload]
    key = draw(st.sampled_from(sorted(files)))
    kind = draw(st.sampled_from(KINDS))
    data = mutate(
        files[key], kind, lambda lo, hi: draw(st.integers(lo, hi)),
        lambda seq: draw(st.sampled_from(seq)),
    )
    return workload, key, data


@settings(derandomize=True, max_examples=600, deadline=None)
@given(mutations())
def test_a_mutated_input_is_read_or_refused_by_one_error_line(tmp_path_factory, mutation):
    """Each command exits 0, or prints one `error [stage]: ...` line and exits
    with its error family's code (`error: ...` and 3 for an OS error); no
    exception escapes `main`. The fixtures are also replaced from a saved
    report; the generated workload is composed and classified."""
    workload, key, data = mutation
    folder = tmp_path_factory.mktemp("mutated")
    write(folder, {**workloads()[workload], key: data})
    for argv in commands(folder, workloads()[workload]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        check_outcome(code, err.getvalue())
