"""On-disk formats: round-trips, parse errors, and the synthetic generator."""

import pytest

from qoscompose import (
    ClassAssociationRule,
    Classifier,
    CompositionPlan,
    EngineConfig,
    Item,
    LevelScheme,
    MiningConfig,
    Polarity,
    QoSAttribute,
    Registry,
    RegistryRecord,
    Taxonomy,
    UserRequest,
    default_config,
    default_request,
    default_scheme,
    generate_synthetic,
    load_classifier,
    load_config,
    load_plan,
    load_registry,
    load_taxonomy,
    load_training_set,
    save_classifier,
    save_config,
    save_plan,
    save_registry,
    save_taxonomy,
    save_training_set,
)
from qoscompose.cba import TrainingInstance
from qoscompose.errors import (
    CycleDetected,
    EmptyRegistry,
    EmptyTrainingSet,
    NonFiniteValue,
    ParseError,
    UnknownAttribute,
    UnknownConcept,
)

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
    ]
    for text, exc_type in cases:
        path = tmp_path / "reg.csv"
        path.write_text(text)
        with pytest.raises(exc_type):
            load_registry(str(path))


def test_plan_round_trip(tmp_path):
    plan = CompositionPlan(
        frozenset(["t1", "t2", "t3"]),
        frozenset([("t1", "t2"), ("t2", "t3")]),
        {("t1", "t2"): (("Out", "In"), ("Aux", "In"))},
    )
    path = tmp_path / "plan.json"
    save_plan(plan, str(path))
    assert load_plan(str(path)) == plan

    taxonomy = Taxonomy(frozenset(["Out", "In", "Aux"]), frozenset())
    assert load_plan(str(path), taxonomy) == plan
    sparse = Taxonomy(frozenset(["Out", "In"]), frozenset())
    with pytest.raises(UnknownConcept):
        load_plan(str(path), sparse)


def test_plan_parse_errors(tmp_path):
    path = tmp_path / "plan.json"
    cases = [
        '{"tasks": "t1", "edges": []}',
        '{"tasks": ["t1"], "edges": [["t1"]]}',
        '{"tasks": ["t1"], "edges": [], "link_pairs": {"t1": []}}',
        '{"tasks": ["t1"], "edges": [], "link_pairs": {"t1->t2": [["a"]]}}',
        '["not", "an", "object"]',
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParseError):
            load_plan(str(path))
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


def test_classifier_round_trip(tmp_path):
    rules = [
        ClassAssociationRule(
            frozenset([Item("latency", "0"), Item("uptime", "3")]), "1", 0.25, 1.0
        ),
        ClassAssociationRule(frozenset([Item("latency", "1")]), "2", 1 / 3, 2 / 3),
    ]
    classifier = Classifier(rules, "3", attributes=("latency", "uptime"))
    path = tmp_path / "rules.txt"
    save_classifier(classifier, str(path))
    loaded = load_classifier(str(path))
    assert loaded.rules == rules
    assert loaded.default_class == "3"
    assert loaded.attributes is None  # schema is not stored on disk


def test_classifier_parse_errors(tmp_path):
    path = tmp_path / "rules.txt"
    cases = [
        "latency=0 => 1 [0.25 1.0]\n",  # no DEFAULT line
        "DEFAULT 1\nlatency=0 => 1 [0.25 1.0]\n",  # rule after DEFAULT
        "latency0 => 1 [0.25 1.0]\nDEFAULT 1\n",  # malformed item
        "latency=0 => 1 [0.25]\nDEFAULT 1\n",  # missing stat
        "latency=0 => 1 [a b]\nDEFAULT 1\n",  # non-numeric stats
        "latency=0 1 [0.25 1.0]\nDEFAULT 1\n",  # no arrow
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParseError):
            load_classifier(str(path))


def test_training_set_round_trip(tmp_path):
    data = [
        TrainingInstance(frozenset([Item("a", "0"), Item("b", "2")]), "1"),
        TrainingInstance(frozenset([Item("a", "3"), Item("b", "1")]), "2"),
    ]
    path = tmp_path / "train.csv"
    save_training_set(data, str(path))
    assert load_training_set(str(path)) == data
    with pytest.raises(EmptyTrainingSet):
        save_training_set([], str(path))
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ParseError):
        load_training_set(str(path))


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
