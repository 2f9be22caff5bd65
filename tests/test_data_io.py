"""On-disk formats: round-trips, parse errors, and the synthetic generator."""

import hashlib
import json
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from qoscompose import (
    CompositionPlan,
    EngineConfig,
    LevelScheme,
    MiningConfig,
    Polarity,
    QoSAttribute,
    Registry,
    RegistryRecord,
    Taxonomy,
    UserRequest,
    load_config,
    load_plan,
    load_registry,
    load_taxonomy,
)
from qoscompose import data_io
from qoscompose.data_io import (
    MAX_GENERATED_TASKS,
    MAX_GENERATED_VALUES,
    default_config,
    default_request,
    generate_synthetic,
    load_composite,
    save_config,
    save_plan,
    save_registry,
    save_taxonomy,
)
from qoscompose.leveling import default_scheme
from qoscompose.errors import (
    CycleDetected,
    EmptyRegistry,
    EngineError,
    InvalidValue,
    NonFiniteValue,
    ParseError,
    UnknownAttribute,
)

# a saved `replace` report on the fixtures
REPLACE_REPORT = pathlib.Path(__file__).resolve().parent / "data" / "fixture_replace.json"

# the CSV header stores each attribute's name and polarity
SCHEMA = [
    QoSAttribute("latency", Polarity.NEGATIVE),
    QoSAttribute("uptime", Polarity.POSITIVE),
]

RECORDS = [
    RegistryRecord("svc_a", "t1", {"latency": 0.1 + 0.2, "uptime": 99.95}, ("In",), ("Out", "Aux")),
    RegistryRecord("svc_b", "t1", {"latency": 1e-9, "uptime": 7.0}, (), ("Out",)),
    RegistryRecord("svc_c", "t2", {"latency": 250.0, "uptime": 98.0}, ("Out",), ()),
]


def test_registry_round_trip(tmp_path):
    path = tmp_path / "registry.csv"
    registry = Registry(SCHEMA, RECORDS)
    save_registry(registry, str(path))
    assert load_registry(str(path)) == registry
    header = path.read_text().splitlines()[0]
    assert header == "service_id,task_id,latency:-,uptime:+,inputs,outputs"


def test_a_registry_record_is_slotted_and_otherwise_unchanged(tmp_path):
    record = RECORDS[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        vars(record)
    with pytest.raises(AttributeError):
        record.task_id = "t2"
    moved = record._replace(task_id="t2")
    assert moved == RegistryRecord("svc_a", "t2", record.values, ("In",), ("Out", "Aux"))
    assert moved != record and moved._replace(task_id="t1") == record
    assert repr(RECORDS[1]) == (
        "RegistryRecord(service_id='svc_b', task_id='t1', values={'latency': 1e-09, "
        "'uptime': 7.0}, inputs=(), outputs=('Out',))"
    )
    path = tmp_path / "registry.csv"
    save_registry(Registry(SCHEMA, RECORDS), str(path))
    assert load_registry(str(path)).records == RECORDS


def test_registry_row_errors(tmp_path):
    header = "service_id,task_id,latency:-,inputs,outputs\n"
    cases = [
        ("a,t1,5.0,X,Y\na,t2,6.0,X,Y\n", ParseError, "duplicate"),
        ("a,t1,abc,X,Y\n", ParseError, "bad numeric"),
        ("a,t1,5.0,X\n", ParseError, "columns"),
        ("a,t1,5.0,;X,Y\n", ParseError, "empty concept"),
        (",t1,5.0,X,Y\n", ParseError, "non-empty"),
        ("a,t1,inf,X,Y\n", NonFiniteValue, "inf"),
    ]
    for body, exc_type, needle in cases:
        path = tmp_path / "reg.csv"
        path.write_text(header + body)
        with pytest.raises(exc_type) as exc:
            load_registry(str(path))
        assert needle in str(exc.value)
    dup = tmp_path / "dup.csv"
    dup.write_text(header + "a,t1,5.0,X,Y\na,t2,6.0,X,Y\n")
    with pytest.raises(ParseError) as exc:
        load_registry(str(dup))
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3:")


def test_registry_header_errors(tmp_path):
    cases = [
        ("", ParseError),
        ("service_id,task_id,latency:-,inputs,outputs\n", EmptyRegistry),
        ("wrong,task_id,latency:-,inputs,outputs\na,t,1,X,Y\n", ParseError),
        ("service_id,task_id,latency:-,inputs\na,t,1,X\n", ParseError),
        ("service_id,task_id,latency,inputs,outputs\na,t,1,X,Y\n", UnknownAttribute),
        ("service_id,task_id,latency:*,inputs,outputs\na,t,1,X,Y\n", UnknownAttribute),
        # a quoted header field over csv's 131 072-character limit
        ('service_id,task_id,"' + "x" * 131_073 + '",inputs,outputs\na,t,1,X,Y\n', ParseError),
    ]
    for text, exc_type in cases:
        path = tmp_path / "reg.csv"
        path.write_text(text)
        with pytest.raises(exc_type) as exc:
            load_registry(str(path))
    assert exc.value.line == 1 and "malformed CSV" in str(exc.value)


def test_plan_round_trip(tmp_path):
    plan = CompositionPlan(
        frozenset(["t1", "t2", "t3"]), frozenset([("t1", "t2"), ("t2", "t3")])
    )
    path = tmp_path / "plan.json"
    save_plan(plan, str(path))
    assert list(json.loads(path.read_text())) == ["tasks", "edges"]
    assert load_plan(str(path)) == plan
    # the taxonomy is accepted and not read
    assert load_plan(str(path), Taxonomy(frozenset(["Out"]), frozenset())) == plan


def test_fixture_plan_loads_its_tasks_and_edges_only():
    """The fixture still carries the `link_pairs` that earlier releases parsed;
    the key is ignored, however malformed or whatever concepts it names."""
    path = pathlib.Path(__file__).parent.parent / "fixtures" / "plan.json"
    doc = json.loads(path.read_text())
    assert "link_pairs" in doc
    plan = CompositionPlan(frozenset(doc["tasks"]), frozenset(map(tuple, doc["edges"])))
    assert load_plan(str(path)) == plan
    assert load_plan(str(path), load_taxonomy(str(path.with_name("taxonomy.txt")))) == plan


def test_plan_parse_errors(tmp_path):
    path = tmp_path / "plan.json"
    cases = [
        '{"tasks": "t1", "edges": []}',
        '{"tasks": ["t1"], "edges": [["t1"]]}',
        '["not", "an", "object"]',
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParseError):
            load_plan(str(path))
    # a link_pairs key is ignored, however malformed or whatever concepts it names
    ignored = [
        ('{"tasks": ["t1"], "edges": [], "link_pairs": {"t1": []}}', ["t1"], []),
        ('{"tasks": ["t1"], "edges": [], "link_pairs": {"t1->t2": [["a"]]}}', ["t1"], []),
        ('{"tasks": ["a", "b"], "edges": [["a", "b"]], '
         '"link_pairs": {"a->b": [[["x"], "y"]]}}', ["a", "b"], [("a", "b")]),
        ('{"tasks": ["t1"], "edges": [], "link_pairs": []}', ["t1"], []),
        ('{"tasks": ["a", "b"], "edges": [["a", "b"]], '
         '"link_pairs": {"b->a": [["Unknown", "Missing"]]}}', ["a", "b"], [("a", "b")]),
    ]
    sparse = Taxonomy(frozenset(["Out", "In"]), frozenset())
    for text, tasks, edges in ignored:
        path.write_text(text)
        plan = CompositionPlan(frozenset(tasks), frozenset(edges))
        assert load_plan(str(path)) == plan
        assert load_plan(str(path), sparse) == plan
    path.write_text('{"tasks": [,]}')
    with pytest.raises(ParseError) as exc:
        load_plan(str(path))
    assert exc.value.line == 1


def test_plan_cycles_surface_at_load(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"tasks": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')
    with pytest.raises(CycleDetected):
        load_plan(str(path))


def test_taxonomy_round_trip(tmp_path):
    taxonomy = Taxonomy(
        frozenset(["Vehicle", "Car", "Boat", "Auto"]),
        frozenset([("Car", "Vehicle"), ("Boat", "Vehicle")]),
        frozenset([("Auto", "Car")]),
        frozenset([("Car", "Boat")]),
    )
    path = tmp_path / "tax.txt"
    save_taxonomy(taxonomy, str(path))
    assert load_taxonomy(str(path)) == taxonomy

    annotated = "# comment\n\n" + path.read_text()
    path.write_text(annotated)
    assert load_taxonomy(str(path)) == taxonomy

    path.write_text("concept A\nsubclass A\n")
    with pytest.raises(ParseError) as exc:
        load_taxonomy(str(path))
    assert exc.value.line == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["final_utility", "link_quality", "score"])
def test_a_saved_composite_refuses_a_non_finite_number(tmp_path, field, value):
    # Python's JSON reader parses NaN, Infinity and -Infinity, which json.dumps writes
    doc = json.loads(REPLACE_REPORT.read_text())
    assert load_composite(str(REPLACE_REPORT)).score == doc["score"]
    section = doc if field == "score" else doc["tasks"][1]
    section[field] = value
    path = tmp_path / "composite.json"
    path.write_text(json.dumps(doc))
    named = "score" if field == "score" else f"{field} of task {section['task']!r}"
    with pytest.raises(NonFiniteValue, match=re.escape(f"{path}: {named} is {value!r}")):
        load_composite(str(path))


def test_config_round_trip(tmp_path):
    config = EngineConfig(
        LevelScheme(4, (1.0, 0.75, 0.5, 0.25)),
        MiningConfig(min_support=0.05, min_confidence=0.66, max_antecedent_size=2),
        bins=6,
        threshold=0.3,
    )
    request = UserRequest(
        {"latency": (0.0, 250.0), "uptime": (95.0, 100.0)},
        {"latency": 1, "uptime": 2},
    )
    path = tmp_path / "config.json"
    save_config(config, request, str(path))
    loaded_config, loaded_request = load_config(str(path))
    assert loaded_config == config
    assert loaded_request == request


def test_config_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"request": {"ranges": {"uptime": [90, 100], "latency": [0, 50]}}}\n')
    config, request = load_config(str(path))
    assert config == default_config()
    assert request.ranges == {"uptime": (90.0, 100.0), "latency": (0.0, 50.0)}
    assert request.preferences == {"uptime": 1, "latency": 2}


def test_config_parse_errors(tmp_path):
    path = tmp_path / "config.json"
    cases = [
        "{}",
        '{"request": {"ranges": {}}}',
        '{"request": {"ranges": {"x": [1]}}}',
        '{"request": {"ranges": {"x": [0, 1]}, "preferences": [1]}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "levels": {"n_levels": 3}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": []}',
        # values the engine's own types reject
        '{"request": {"ranges": {"x": [0, 1]}}, "bins": 1}',
        '{"request": {"ranges": {"x": [0, 1]}}, "bins": "x"}',
        '{"request": {"ranges": {"x": [0, 1]}}, "bins": null}',
        '{"request": {"ranges": {"x": [0, 1]}}, "threshold": 2}',
        '{"request": {"ranges": {"x": [1, 0]}}}',
        # NaN fails lo <= hi whichever end it is
        '{"request": {"ranges": {"x": [NaN, 1]}}}',
        '{"request": {"ranges": {"x": [0, NaN]}}}',
        '{"request": {"ranges": {"x": ["a", 1]}}}',
        '{"request": {"ranges": {"x": [[0], 1]}}}',
        '{"request": {"ranges": {"x": [0, 1]}, "preferences": {"x": "first"}}}',
        '{"request": {"ranges": {"x": [0, 1]}, "preferences": {"y": 1}}}',
        '{"request": {"ranges": {"x": [0, 1]}}, '
        '"levels": {"n_levels": 3, "coefficients": [1.0, 0.5, 0.75]}}',
        '{"request": {"ranges": {"x": [0, 1]}}, '
        '"levels": {"n_levels": "three", "coefficients": [1.0, 0.5, 0.25]}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_support": "a"}}',
        # whole-number fields refuse a fractional value instead of truncating it
        '{"request": {"ranges": {"x": [0, 1]}}, "bins": 2.7}',
        '{"request": {"ranges": {"x": [0, 1]}}, '
        '"levels": {"n_levels": 3.5, "coefficients": [1.0, 0.5, 0.25]}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"max_antecedent_size": 1.5}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "bins": Infinity}',
        # a JSON boolean is not a number, wherever a number is read
        '{"request": {"ranges": {"x": [0, 1]}}, "bins": true}',
        '{"request": {"ranges": {"x": [0, 1]}}, "threshold": true}',
        '{"request": {"ranges": {"x": [0, 1]}}, "threshold": false}',
        '{"request": {"ranges": {"x": [0, 1]}}, '
        '"levels": {"n_levels": true, "coefficients": [1.0, 0.5]}}',
        '{"request": {"ranges": {"x": [0, 1]}}, '
        '"levels": {"n_levels": 2, "coefficients": [true, 0.5]}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_support": false}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_confidence": true}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"max_antecedent_size": true}}',
        '{"request": {"ranges": {"x": [false, 1]}}}',
        '{"request": {"ranges": {"x": [0, true]}}}',
        '{"request": {"ranges": {"x": [0, 1]}, "preferences": {"x": true}}}',
        # mining thresholds lie in [0, 1], antecedents hold at least one item
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_support": 2.0}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_support": -0.1}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_support": NaN}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_confidence": 7}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"min_confidence": Infinity}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"max_antecedent_size": 0}}',
        '{"request": {"ranges": {"x": [0, 1]}}, "mining": {"max_antecedent_size": -2}}',
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParseError):
            load_config(str(path))


def test_config_ignores_a_seed_key(tmp_path):
    path = tmp_path / "config.json"
    base = '{"request": {"ranges": {"x": [0, 1]}}, "bins": 5'
    path.write_text(base + "}")
    expected = load_config(str(path))
    for seed in ('7', '"s"', 'null'):
        path.write_text(base + f', "seed": {seed}}}')
        assert load_config(str(path)) == expected


@pytest.mark.parametrize("value", ["4", "4.0"])
def test_config_whole_number_fields_accept_integral_floats(tmp_path, value):
    path = tmp_path / "config.json"
    path.write_text(
        '{"request": {"ranges": {"x": [0, 1]}}, '
        f'"bins": {value}, "mining": {{"max_antecedent_size": {value}}}, '
        f'"levels": {{"n_levels": {value}, "coefficients": [1.0, 0.75, 0.5, 0.25]}}}}'
    )
    config, _ = load_config(str(path))
    got = (config.bins, config.scheme.n_levels, config.mining.max_antecedent_size)
    assert got == (4, 4, 4) and all(type(n) is int for n in got)


def test_generator_is_deterministic(tmp_path):
    first = generate_synthetic(5, 3, 4, seed=42)
    second = generate_synthetic(5, 3, 4, seed=42)
    assert first == second
    third = generate_synthetic(5, 3, 4, seed=43)
    assert third != first

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_registry(first[0], str(a))
    save_registry(second[0], str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generator_shapes():
    registry, plan, taxonomy = generate_synthetic(7, 4, 5, seed=1)
    assert len(registry.records) == 7 * 4
    assert len(registry.schema) == 5
    assert registry.schema[4].name == "response_time_2"  # names cycle with suffixes
    assert len(plan.tasks) == 7
    assert len(plan.edges) == 6  # a chain
    assert len(taxonomy.concepts) == 4 * 7
    for rec in registry.records:
        assert rec.inputs and rec.outputs
        for concept in rec.inputs + rec.outputs:
            assert concept in taxonomy.concepts
    with pytest.raises(ValueError):
        generate_synthetic(0, 3, 4, seed=1)


# sha256 of the written registry.csv, plan.json and taxonomy.txt, recorded when
# the generator still asked a second, full Taxonomy whether one concept subsumes
# another; each size draws disjointness pairs that lie on one parent chain (a
# PlugIn or Subsume pair), which must be skipped and no other pair. The plan.json
# digests were re-recorded when plans stopped carrying link pairs: each file is
# the earlier one without its last member, `"link_pairs": {}`
GENERATED_DIGESTS = {
    (50, 2, 2, 5): (  # one PlugIn and one Subsume pair skipped
        "07688cb4ee8fe1b20790f39b8097d71df4351f8a36a75068d34b8195e0524c4b",
        "e3eaafb557c7d946b782cdb5e470d83d9d9e5bbe4344df9c2613e19a862cea2c",
        "8339cf35c440556e4b6b1838bcabce3f3108936af31b004d65de264086589d0a",
    ),
    (300, 2, 1, 4): (  # one Subsume pair skipped
        "b3af57f5d5d3325586f79dd9034d07b4c09ea3d4e55e50b74ea35471550766b6",
        "fd7286f5c01e5d24b1a33b3efb36101d24975aea1807ca690e383fecdde6dbe0",
        "41f57743f2d7d1f45018abf8214ecb1b105884cb31748eb15047004ee01d01e1",
    ),
    (500, 1, 1, 2): (  # two PlugIn and one Subsume pair skipped
        "975d1973a82427b1104b5e7383aa9f166269f91e73c564b64048459e3d71cd96",
        "b0c0cbc5f5aa214da4e167355658cc7c536f6dd8455d51adfc549e43d9de6a1d",
        "8836158bcfd9fcb8f59fd182bc4a94c2570e9f3dfdbf773f5613306bfeb6caaf",
    ),
}


@pytest.mark.parametrize("sizes", GENERATED_DIGESTS, ids=lambda sizes: "{}x{}x{}-seed{}".format(*sizes))
def test_generated_files_keep_their_bytes(tmp_path, sizes):
    registry, plan, taxonomy = generate_synthetic(*sizes)
    paths = [tmp_path / name for name in ("registry.csv", "plan.json", "taxonomy.txt")]
    saves = (save_registry, save_plan, save_taxonomy)
    for save, value, path in zip(saves, (registry, plan, taxonomy), paths):
        save(value, str(path))
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == GENERATED_DIGESTS[sizes]


def test_generator_refuses_more_values_than_the_limit(monkeypatch):
    for sizes in [(10**6, 10**6, 4), (MAX_GENERATED_VALUES + 1, 1, 1)]:
        with pytest.raises(InvalidValue, match="more than the limit of 400000"):
            generate_synthetic(*sizes, seed=1)
    # the limit is inclusive; a small one keeps the test fast
    monkeypatch.setattr(data_io, "MAX_GENERATED_VALUES", 24)
    registry, _, _ = generate_synthetic(2, 3, 4, seed=1)
    assert len(registry.records) == 6
    with pytest.raises(InvalidValue, match="2 tasks x 13 candidates x 1 attributes"):
        generate_synthetic(2, 13, 1, seed=1)


def test_generator_refuses_more_tasks_than_the_limit(monkeypatch):
    # inside the values limit, so only the task count refuses it, before any draw
    with pytest.raises(InvalidValue, match="^6001 tasks is more than the limit of 6000$"):
        generate_synthetic(MAX_GENERATED_TASKS + 1, 1, 1, seed=1)
    # the limit is inclusive; a small one keeps the test fast
    monkeypatch.setattr(data_io, "MAX_GENERATED_TASKS", 3)
    _, plan, _ = generate_synthetic(3, 2, 1, seed=1)
    assert len(plan.tasks) == 3
    with pytest.raises(InvalidValue, match="^4 tasks is more than the limit of 3$"):
        generate_synthetic(4, 2, 1, seed=1)


def test_generator_minimal_and_round_trip(tmp_path):
    registry, plan, taxonomy = generate_synthetic(1, 1, 4, seed=9)
    assert len(registry.records) == 1
    assert plan.edges == frozenset()
    rpath, ppath, tpath = (tmp_path / n for n in ("r.csv", "p.json", "t.txt"))
    save_registry(registry, str(rpath))
    save_plan(plan, str(ppath))
    save_taxonomy(taxonomy, str(tpath))
    assert load_registry(str(rpath)) == registry
    assert load_plan(str(ppath), load_taxonomy(str(tpath))) == plan


def test_default_request_matches_generator_ranges():
    registry, _, _ = generate_synthetic(2, 2, 5, seed=3)
    request = default_request(registry.schema)
    lo, hi = request.ranges["response_time"]
    assert (lo, hi) == (37.0, (37.0 + 4990.0) / 2)  # better half of a negative attribute
    lo, hi = request.ranges["availability"]
    assert (lo, hi) == ((7.0 + 100.0) / 2, 100.0)
    assert request.preferences["response_time"] == 1
    with pytest.raises(UnknownAttribute):
        default_request([QoSAttribute("made_up", Polarity.POSITIVE)])


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(default_scheme(), MiningConfig(), bins=1)
    with pytest.raises(ValueError):
        EngineConfig(default_scheme(), MiningConfig(), threshold=1.5)


def test_savers_refuse_what_their_loaders_refuse(tmp_path):
    record = RECORDS[0]
    cases = [
        (save_taxonomy, Taxonomy(frozenset({"a b", "c"})), "concept 'a b'"),
        (save_taxonomy, Taxonomy(frozenset({"", "c"})), "concept ''"),
        (save_registry, Registry(SCHEMA, [record._replace(service_id="")]), "service ''"),
        (save_registry, Registry(SCHEMA, [record._replace(task_id="")]), "task ''"),
        (save_registry, Registry(SCHEMA, [record._replace(inputs=("",))]), "concept ''"),
        (save_registry, Registry(SCHEMA, [record._replace(outputs=("a;b",))]), "'a;b'"),
        (save_registry, Registry(SCHEMA, [record, record]), "'svc_a' is repeated"),
        (save_registry, Registry(SCHEMA, [record._replace(service_id="a\rb")]), "'a\\rb'"),
        (
            save_registry,
            Registry(SCHEMA, [record._replace(values={"latency": float("inf"), "uptime": 1.0})]),
            "'svc_a'",
        ),
        (save_registry, Registry([], [record._replace(values={})]), "at least one attribute"),
        (save_registry, Registry(SCHEMA, []), "and one service"),
    ]
    for save, value, needle in cases:
        path = tmp_path / "out"
        with pytest.raises(InvalidValue) as exc:
            save(value, str(path))
        assert needle in str(exc.value)
        assert not path.exists()  # refused before the file is opened
    # a plan holds no from->to key any more, so a task holding "->" is written
    plan = CompositionPlan(frozenset({"x->y", "z"}), frozenset({("x->y", "z")}))
    save_plan(plan, str(tmp_path / "plan.json"))
    assert load_plan(str(tmp_path / "plan.json")) == plan


# ids that stress each format: separators, quoting, line breaks, comment marks,
# non-ASCII and a lone surrogate, alone or around random text
ADVERSARIAL = st.sampled_from([
    "", " ", "#", "#x", ",", ";", '"', "'", "->", "-", ">", "\n", "\r", "\r\n", "\t",
    "\x00", "\x1c", "\x85", "\u2028", "\ufeff", "\ud800", "é", "日本", "concept", "a b",
])
IDS = st.lists(
    st.one_of(ADVERSARIAL, st.text(min_size=1, max_size=3)), min_size=1, max_size=3
).map("".join)


@st.composite
def registries(draw):
    names = draw(st.lists(IDS, min_size=1, max_size=2))
    schema = [QoSAttribute(name, draw(st.sampled_from(Polarity))) for name in names]
    records = []
    for _ in range(draw(st.integers(1, 2))):
        values = {
            name: draw(st.floats(allow_nan=False, allow_infinity=False)) for name in names
        }
        concepts = st.lists(IDS, max_size=2).map(tuple)
        records.append(
            RegistryRecord(draw(IDS), draw(IDS), values, draw(concepts), draw(concepts))
        )
    return Registry(schema, records)


@st.composite
def plans(draw):
    tasks = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    # edges run forward in list order, so the plan is acyclic
    forward = [(a, b) for i, a in enumerate(tasks) for b in tasks[i + 1:]]
    edges = draw(st.lists(st.sampled_from(forward), min_size=1, unique=True)) if forward else []
    return CompositionPlan(frozenset(tasks), frozenset(edges))


@st.composite
def taxonomies(draw):
    concepts = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    # child -> parent edges run forward in list order, so subsumption is acyclic
    forward = [(a, b) for i, a in enumerate(concepts) for b in concepts[i + 1:]]
    pick = st.lists(st.sampled_from(forward), unique=True, max_size=3) if forward else st.just([])
    edges, equivalences, disjointness = (frozenset(draw(pick)) for _ in range(3))
    try:
        return Taxonomy(frozenset(concepts), edges, equivalences, disjointness)
    except EngineError:  # the axioms contradict each other
        return Taxonomy(frozenset(concepts), edges)


def _reload(save, load, value):
    """`value` saved and loaded back, or None when the saver refuses it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved")
        try:
            save(value, path)
        except InvalidValue:
            assert not os.path.exists(path)  # refused before the file is opened
            return None
        return load(path)


@settings(max_examples=300, deadline=None)
@given(registries())
def test_a_saved_registry_loads_back_equal_or_is_refused(registry):
    loaded = _reload(save_registry, load_registry, registry)
    assert loaded is None or loaded == registry


@settings(max_examples=300, deadline=None)
@given(plans())
def test_a_saved_plan_loads_back_equal_or_is_refused(plan):
    """`save_plan` refuses no plan: JSON holds any task id."""
    assert _reload(save_plan, load_plan, plan) == plan


@settings(max_examples=300, deadline=None)
@given(taxonomies())
def test_a_saved_taxonomy_loads_back_equal_or_is_refused(taxonomy):
    loaded = _reload(save_taxonomy, load_taxonomy, taxonomy)
    assert loaded is None or loaded == taxonomy
