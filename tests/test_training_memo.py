"""The process-wide level-table memo and the registry's compose memo behind `compose`:
equal to fresh work, bounded, and invisible in refusals and reports."""

import copy
import dataclasses
import json
import pathlib
import random
from collections import OrderedDict, defaultdict

import pytest

from qoscompose import (
    EngineConfig,
    LevelScheme,
    MiningConfig,
    Polarity,
    UserRequest,
    compose_with_graph,
    composite_report,
    compute_extremes,
    first_alternative,
    normalize,
    replace_unavailable,
    synthesize_training_set,
    train_classifier,
)
from qoscompose.cba import predict
from qoscompose.cli import main
from qoscompose.data_io import default_config, generate_synthetic
from qoscompose.errors import EngineError
from qoscompose.leveling import (
    TRAINING_MEMO_SIZE, _trained, _training_signature, request_signature, score_basis,
    score_candidates,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DATA = ROOT / "tests" / "data"


def random_scheme(rng, n_levels):
    cuts = sorted((rng.uniform(0.05, 0.95) for _ in range(n_levels - 1)), reverse=True)
    return LevelScheme(n_levels, (1.0, *cuts))


def random_mining(rng):
    return MiningConfig(
        min_support=rng.choice([0.0, 0.01, rng.uniform(0.0, 0.1)]),
        min_confidence=rng.choice([0.0, 0.5, rng.uniform(0.3, 1.0)]),
        max_antecedent_size=rng.choice([None, 1, 2, 3]),
    )


def random_request(rng, registry):
    """Ends drawn near three points of each attribute's range, so floors repeat."""
    ranges = {}
    for attr in registry.schema:
        values = [rec.values[attr.name] for rec in registry.records]
        low, span = min(values), max(values) - min(values)
        ends = (
            low + span * (rng.choice([0.1, 0.5, 0.9]) + rng.uniform(-0.02, 0.02))
            for _ in range(2)
        )
        ranges[attr.name] = tuple(sorted(ends))
    return UserRequest(ranges, {a.name: i + 1 for i, a in enumerate(registry.schema)})


def test_memoized_classifier_equals_fresh_training():
    rng = random.Random(909)
    scenarios = []
    for seed in range(8):
        registry, _, _ = generate_synthetic(3, 6, rng.randint(2, 4), seed)
        bins, n_levels = rng.randint(2, 6), rng.randint(3, 5)
        minings = [random_mining(rng) for _ in range(2)]
        scenarios.append((registry, bins, n_levels, minings))
    # an LRU over keys the memo never sees: the reference training set itself
    lru: OrderedDict = OrderedDict()
    want_hits = 0
    for trial in range(200):
        index = rng.randrange(len(scenarios))
        registry, bins, n_levels, minings = scenarios[index]
        config = EngineConfig(
            random_scheme(rng, n_levels), rng.choice(minings), bins, rng.random()
        )
        request = random_request(rng, registry)
        levels = _trained(request_signature(request, registry, config), config.mining)
        training = synthesize_training_set(
            request, registry.envelope, config.scheme, bins, registry.schema
        )
        want = train_classifier(training, config.mining)
        assert levels == tuple(int(predict(want, row.items)) for row in training), trial
        for task, basis in registry.level_bases(bins).items():
            records = [rec for rec in registry.records if rec.task_id == task]
            extremes = compute_extremes(records)
            normalized = [normalize(rec, extremes, registry.schema) for rec in records]
            assert [s.level for s in score_basis(basis, levels, config.scheme)] == [
                s.level for s in score_candidates(normalized, want, config.scheme, bins)
            ], trial
        key = (index, tuple(training), config.mining)
        if key in lru:
            want_hits += 1
            lru.move_to_end(key)
        else:
            lru[key] = None
            if len(lru) > TRAINING_MEMO_SIZE:
                lru.popitem(last=False)
        info = _trained.cache_info()
        assert info.maxsize == TRAINING_MEMO_SIZE
        assert info.currsize == len(lru) <= TRAINING_MEMO_SIZE, trial
        assert (info.hits, info.misses) == (want_hits, trial + 1 - want_hits), trial
    assert want_hits > 0


def test_coefficients_threshold_and_a_reloaded_registry_share_one_classifier():
    registry, _, _ = generate_synthetic(2, 3, 3, 4)
    request = random_request(random.Random(5), registry)
    config = EngineConfig(LevelScheme(3, (1.0, 0.75, 0.25)), MiningConfig())
    first = _trained(request_signature(request, registry, config), config.mining)
    other = EngineConfig(LevelScheme(3, (1.0, 0.5, 0.1)), MiningConfig(), threshold=0.9)
    assert _trained(request_signature(request, registry, other), other.mining) is first
    reloaded, _, _ = generate_synthetic(2, 3, 3, 4)
    assert _trained(request_signature(request, reloaded, config), config.mining) is first
    assert _trained.cache_info().misses == 1


def catalog_request(rng, registry):
    """A catalog-style request: each range's weak end in the lower 60 % of the
    attribute's quality scale, its strong end past the middle."""
    ranges = {}
    for attr in registry.schema:
        lo, hi = registry.envelope[attr.name]
        span = hi - lo
        if attr.polarity is Polarity.POSITIVE:
            weak = rng.uniform(lo, lo + 0.6 * span)
            ranges[attr.name] = (weak, rng.uniform(max(weak, lo + 0.5 * span), hi))
        else:
            weak = rng.uniform(hi - 0.6 * span, hi)
            ranges[attr.name] = (rng.uniform(lo, min(weak, hi - 0.5 * span)), weak)
    return UserRequest(ranges, {a.name: i + 1 for i, a in enumerate(registry.schema)})


@pytest.mark.parametrize("seed", [3, 17])
def test_requests_sharing_a_signature_compose_identically(seed):
    rng = random.Random(seed)
    config = default_config()
    by_signature = defaultdict(list)
    for _ in range(40):
        # fresh inputs and a cold memo, so no request reads another's caches
        _trained.cache_clear()
        registry, plan, taxonomy = generate_synthetic(15, 12, 3, seed)
        request = catalog_request(rng, registry)
        signature = _training_signature(
            request, registry.envelope, config.scheme, config.bins, registry.schema
        )
        graph, primary, alternative = compose_with_graph(
            request, plan, registry, taxonomy, config
        )
        reports = [
            json.dumps(composite_report(graph, c), indent=2) if c is not None else None
            for c in (primary, alternative)
        ]
        by_signature[signature].append((primary, alternative, reports))
    shared = [group for group in by_signature.values() if len(group) > 1]
    assert len(shared) >= 3
    for first, *rest in shared:
        for other in rest:
            assert other == first


def _compose_args(config=FIXTURES / "config.json"):
    return [
        "compose",
        "--registry", str(FIXTURES / "registry.csv"),
        "--plan", str(FIXTURES / "plan.json"),
        "--taxonomy", str(FIXTURES / "taxonomy.txt"),
        "--config", str(config),
    ]


def _classify_args(config=FIXTURES / "config.json"):
    return [
        "classify",
        "--registry", str(FIXTURES / "registry.csv"),
        "--config", str(config),
    ]


def _degenerate(request):
    request["ranges"]["response_time"] = [900, 2000]


def _unknown(request):
    request["ranges"]["bogus"] = [0, 1]
    request["preferences"]["bogus"] = 5


def _missing(request):
    del request["ranges"]["availability"]
    del request["preferences"]["availability"]


@pytest.mark.parametrize("command", [_compose_args, _classify_args], ids=["compose", "classify"])
@pytest.mark.parametrize(
    "edit, flags, code, message",
    [
        (_degenerate, [], 26,
         "requested range for 'response_time' lies outside the observed value space"),
        (_unknown, [], 13, "request names attributes absent from the schema: ['bogus']"),
        (_missing, [], 20, "request attributes do not match the declared schema"),
        (None, ["--bins", "17"], 23,
         "17 bins over 4 attributes synthesize 83521 training rows, more than the "
         "limit of 65536"),
    ],
    ids=["degenerate-range", "unknown-attribute", "missing-attribute", "oversized-bins"],
)
def test_refusals_are_unchanged_on_a_warm_memo(
    tmp_path, capsys, command, edit, flags, code, message
):
    config = json.loads((FIXTURES / "config.json").read_text())
    if edit is not None:
        edit(config["request"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    refused = command(path) + flags
    assert main(refused) == code  # cold memo
    assert capsys.readouterr() == ("", f"error [training]: {message}\n")
    # compose fills the memo; classify trains without it
    assert main(_compose_args()) == 0
    capsys.readouterr()
    warm = _trained.cache_info()
    assert warm.currsize == 1
    assert main(refused) == code
    assert capsys.readouterr() == ("", f"error [training]: {message}\n")
    assert _trained.cache_info() == warm  # a refusal never reaches the memo


@pytest.mark.parametrize(
    "argv, golden, memo",
    [
        (_compose_args(), "fixture_compose.json", [(0, 1), (1, 1)]),
        # classify trains without the memo, so it leaves it empty
        (_classify_args(), "fixture_classify.txt", [(0, 0), (0, 0)]),
    ],
    ids=["compose", "classify"],
)
def test_a_repeated_command_prints_the_golden_bytes(capsys, argv, golden, memo):
    for hits, size in memo:
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()
        info = _trained.cache_info()
        assert (info.hits, info.currsize) == (hits, size)


def _reports(graph, primary, alternative):
    return [
        json.dumps(composite_report(graph, c), indent=2) if c is not None else None
        for c in (primary, alternative)
    ]


def _outcome(request, plan, registry, taxonomy, config):
    """What `compose_with_graph` gives: its composites and report bytes, or its
    refusal's type, stage and message; and the graph, None for a refusal."""
    try:
        graph, primary, alternative = compose_with_graph(
            request, plan, registry, taxonomy, config
        )
    except EngineError as err:
        return (type(err), err.stage, str(err)), None
    return (primary, alternative, _reports(graph, primary, alternative)), graph


def test_a_memo_hit_equals_compose_on_a_fresh_registry():
    rng = random.Random(4242)
    instances = [generate_synthetic(6, 8, rng.randint(2, 3), seed) for seed in range(3)]
    configs = [
        EngineConfig(random_scheme(rng, 3), MiningConfig(), rng.choice([3, 4]), threshold)
        for threshold in (0.0, 0.25, 0.6)
    ]
    graphs = {}  # (instance, signature, config) -> the graph its last compose gave
    hits = 0
    for trial in range(150):
        index = rng.randrange(len(instances))
        registry, plan, taxonomy = instances[index]
        config = rng.choice(configs)
        request = random_request(rng, registry)
        got, graph = _outcome(request, plan, registry, taxonomy, config)
        fresh = dataclasses.replace(registry)
        _trained.cache_clear()
        want, fresh_graph = _outcome(request, plan, fresh, taxonomy, config)
        assert got == want, trial
        if graph is None:
            continue
        signature = _training_signature(
            request, registry.envelope, config.scheme, config.bins, registry.schema
        )
        key = (index, signature, config)
        hits += graphs.get(key) is graph
        graphs[key] = graph
        if trial % 3:
            # the shared graph builds its queues from a re-ranking, on first read
            assert graph.queues == fresh_graph.queues, trial
    assert hits >= 40


def test_a_different_plan_or_taxonomy_object_misses():
    registry, plan, taxonomy = generate_synthetic(5, 6, 3, 8)
    config = default_config()
    request = random_request(random.Random(1), registry)
    first, graph = _outcome(request, plan, registry, taxonomy, config)
    assert _outcome(request, plan, registry, taxonomy, config)[1] is graph
    same_plan = dataclasses.replace(plan)
    same_taxonomy = dataclasses.replace(taxonomy)
    assert (same_plan, same_taxonomy) == (plan, taxonomy)
    seen = [graph]
    for inputs in [(same_plan, taxonomy), (plan, same_taxonomy), (plan, taxonomy)]:
        got, other = _outcome(request, inputs[0], registry, inputs[1], config)
        assert got == first
        assert all(other is not g for g in seen)  # a miss, which overwrote the entry
        seen.append(other)
        assert len(registry.compose_memo) == 1
        assert registry.compose_memo[next(iter(registry.compose_memo))][2] is other
    assert _outcome(request, plan, registry, taxonomy, config)[1] is other


def test_mutating_a_returned_composite_leaves_the_next_hit_unchanged():
    """Also for `first_alternative`'s result and a chain of `replace_unavailable`
    results: mutating any of them leaves its argument composite, every composite
    made before it and the next hit unchanged."""
    registry, plan, taxonomy = generate_synthetic(6, 8, 3, 2)
    config = default_config()
    request = random_request(random.Random(7), registry)
    want, graph = _outcome(request, plan, registry, taxonomy, config)
    assert want[1] is not None
    for _ in range(2):
        got_graph, primary, alternative = compose_with_graph(
            request, plan, registry, taxonomy, config
        )
        assert got_graph is graph
        assert (primary, alternative) == want[:2]
        assert _reports(graph, primary, alternative) == want[2]
        composites = [primary, alternative, first_alternative(graph, primary)]
        assert composites[2] == alternative
        for task in graph.order[:4]:
            current = composites[-1]
            failed = (task, current.assignment[task])
            composites.append(replace_unavailable(graph, current, failed, taxonomy, registry))
        kept = copy.deepcopy(composites)
        # last first, so each one's argument and everything before it are still intact
        for i in reversed(range(len(composites))):
            composite = composites[i]
            task = next(iter(composite.assignment))
            composite.assignment[task] = "mutated"
            composite.final_utilities[task] = -1.0
            composite.link_qualities.clear()
            with pytest.raises(AttributeError):
                composite.score = 0.0
            assert composites[:i] == kept[:i], i


def test_a_refusal_on_a_warm_memo_reraises_with_its_stage_and_message():
    registry, plan, taxonomy = generate_synthetic(4, 5, 3, 6)
    config = default_config()
    request = random_request(random.Random(3), registry)
    compose_with_graph(request, plan, registry, taxonomy, config)
    name = registry.schema[0].name
    lo, hi = registry.envelope[name]
    outside = dataclasses.replace(
        request, ranges={**request.ranges, name: (hi + 1.0, hi + 2.0)}
    )
    unknown = UserRequest(
        {**request.ranges, "bogus": (0.0, 1.0)}, {**request.preferences, "bogus": 9}
    )
    strict = dataclasses.replace(config, threshold=1.0)
    stray = dataclasses.replace(plan, tasks=plan.tasks - {sorted(plan.tasks)[-1]}, edges=frozenset())
    cases = [
        ((outside, plan, config), "training"),
        ((unknown, plan, config), "training"),
        ((request, plan, strict), "selection"),
        ((request, stray, config), "validation"),
    ]
    warm = dict(registry.compose_memo)
    for (req, pln, cfg), stage in cases:
        cold = dataclasses.replace(registry)
        want, _ = _outcome(req, pln, cold, taxonomy, cfg)
        assert want[1] == stage
        assert not cold.compose_memo  # a refusal is never stored
        for _ in range(2):
            assert _outcome(req, pln, registry, taxonomy, cfg) == (want, None)
            assert registry.compose_memo == warm


def test_the_compose_memo_keeps_the_most_recently_used_signatures():
    rng = random.Random(31)
    registry, plan, taxonomy = generate_synthetic(3, 6, 3, 12)
    config = dataclasses.replace(default_config(), bins=6, threshold=0.0)
    lru: OrderedDict = OrderedDict()
    seen = set()
    for trial in range(300):
        ranges = {}
        for name, (lo, hi) in registry.envelope.items():
            ranges[name] = tuple(sorted(rng.uniform(lo, hi) for _ in range(2)))
        request = UserRequest(ranges, {name: i + 1 for i, name in enumerate(ranges)})
        compose_with_graph(request, plan, registry, taxonomy, config)
        key = (
            _training_signature(
                request, registry.envelope, config.scheme, config.bins, registry.schema
            ),
            config,
        )
        seen.add(key)
        lru[key] = None
        lru.move_to_end(key)
        if len(lru) > TRAINING_MEMO_SIZE:
            lru.popitem(last=False)
        assert list(registry.compose_memo) == list(lru), trial
    assert len(registry.compose_memo) == TRAINING_MEMO_SIZE < len(seen)
