"""Training-set synthesis bands, level classification, utility, eligibility."""

import dataclasses
import functools
import itertools
import operator
import pathlib
import random

import pytest

from qoscompose import (
    Classifier,
    Item,
    LevelScheme,
    MiningConfig,
    Polarity,
    QoSAttribute,
    QoSVector,
    ScoredService,
    UserRequest,
    TrainingInstance,
    build_classifier,
    filter_eligible,
    mine_cars,
    score_candidates,
    sort_rules,
    synthesize_training_set,
    train_classifier,
)
from qoscompose import compose_with_graph, leveling
from qoscompose.cba import discretize, predict
from qoscompose.data_io import default_config, generate_synthetic
from qoscompose.leveling import default_scheme
from qoscompose.errors import (
    DegenerateRequest,
    InvalidValue,
    LevelOutOfRange,
    SchemaMismatch,
    ValueOutOfRange,
)
from reference import random_training_set, ref_shortfall_levels, ref_synthesize_training_set

SCHEMA = [
    QoSAttribute("response_time", Polarity.NEGATIVE),
    QoSAttribute("availability", Polarity.POSITIVE),
]
EXTREMES = {"response_time": (0.0, 1000.0), "availability": (0.0, 100.0)}
# normalized demand floors under 4 bins: response_time label 3, availability label 2
REQUEST = UserRequest(
    {"response_time": (0.0, 250.0), "availability": (50.0, 100.0)},
    {"response_time": 1, "availability": 2},
)


def synthesized(bins=4, n_levels=3):
    return synthesize_training_set(
        REQUEST, EXTREMES, default_scheme(n_levels), bins, SCHEMA
    )


def class_of(data, rt_label, av_label):
    items = frozenset(
        [Item("response_time", str(rt_label)), Item("availability", str(av_label))]
    )
    return next(inst.class_label for inst in data if inst.items == items)


def test_synthesize_covers_every_label_combination():
    data = synthesized()
    assert len(data) == 16
    assert len({inst.items for inst in data}) == 16


def test_training_set_size_guard(monkeypatch):
    assert leveling.MAX_TRAINING_ROWS == 4**8
    with pytest.raises(ValueOutOfRange, match="257 bins over 2 attributes synthesize 66049"):
        synthesized(bins=257)
    monkeypatch.setattr(leveling, "MAX_TRAINING_ROWS", 16)
    assert len(synthesized(bins=4)) == 16
    with pytest.raises(ValueOutOfRange):
        synthesized(bins=5)


def test_a_scheme_has_at_most_max_training_rows_levels():
    """A request levels into at most `bins` distinct levels, and bins never exceed
    MAX_TRAINING_ROWS; a larger count is refused before its coefficients exist."""
    most = leveling.MAX_TRAINING_ROWS
    assert default_scheme(most).n_levels == most
    with pytest.raises(InvalidValue, match=f"2 to {most} levels"):
        default_scheme(most + 1)
    coefficients = tuple(1.0 - i / (most + 1) for i in range(most + 1))
    with pytest.raises(InvalidValue):
        LevelScheme(most + 1, coefficients)


def random_request(rng, schema, extremes):
    """Ranges inside each attribute's extremes, so no request is degenerate."""
    ranges = {}
    for attr in schema:
        lo, hi = extremes[attr.name]
        a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
        ranges[attr.name] = (a, b)
    return UserRequest(ranges, {a.name: i + 1 for i, a in enumerate(schema)})


def test_synthesize_equals_row_by_row_reference():
    rng = random.Random(2024)
    for trial in range(150):
        schema = [
            QoSAttribute(f"q{i}", rng.choice(list(Polarity)))
            for i in rng.sample(range(8), rng.randint(1, 4))
        ]
        extremes = {}
        for attr in schema:
            lo = rng.uniform(-50.0, 50.0)
            extremes[attr.name] = (lo, lo + rng.choice([0.0, 1.0, rng.uniform(0, 500)]))
        request = random_request(rng, schema, extremes)
        bins = rng.randint(2, 6)
        scheme = default_scheme(rng.choice([3, 4]))
        got = synthesize_training_set(request, extremes, scheme, bins, schema)
        want = ref_synthesize_training_set(request, extremes, scheme, bins, schema)
        assert got == want, trial
        # one Item object per (attribute, label), shared by every row
        assert len({id(it) for row in got for it in row.items}) == len(schema) * bins


def test_labels_inside_requested_range_are_level_one():
    data = synthesized()
    assert class_of(data, 3, 2) == "1"
    assert class_of(data, 3, 3) == "1"


def test_one_band_below_range_is_level_two():
    data = synthesized()
    assert class_of(data, 2, 2) == "2"
    assert class_of(data, 3, 1) == "2"


def test_worst_band_is_the_last_level():
    data = synthesized()
    assert class_of(data, 0, 3) == "3"
    assert class_of(data, 0, 0) == "3"


def test_class_is_the_worst_attribute_level():
    data = synthesized()
    # availability two labels short is only level 2; response_time drags it to 3
    assert class_of(data, 3, 0) == "2"
    assert class_of(data, 0, 2) == "3"


def test_exceeding_the_demand_ceiling_stays_level_one():
    request = UserRequest(
        {"response_time": (100.0, 250.0), "availability": (50.0, 80.0)},
        {"response_time": 1, "availability": 2},
    )
    data = synthesize_training_set(request, EXTREMES, default_scheme(3), 4, SCHEMA)
    items = frozenset([Item("response_time", "3"), Item("availability", "3")])
    assert next(i.class_label for i in data if i.items == items) == "1"


def test_degenerate_request_outside_value_space():
    too_good = UserRequest(
        {"response_time": (0.0, 250.0), "availability": (101.0, 120.0)},
        {"response_time": 1, "availability": 2},
    )
    with pytest.raises(DegenerateRequest):
        synthesize_training_set(too_good, EXTREMES, default_scheme(3), 4, SCHEMA)
    too_bad = UserRequest(
        {"response_time": (1100.0, 1200.0), "availability": (50.0, 100.0)},
        {"response_time": 1, "availability": 2},
    )
    with pytest.raises(DegenerateRequest):
        synthesize_training_set(too_bad, EXTREMES, default_scheme(3), 4, SCHEMA)


def test_synthesize_rejects_request_schema_mismatch():
    request = UserRequest({"response_time": (0.0, 250.0)}, {"response_time": 1})
    with pytest.raises(SchemaMismatch):
        synthesize_training_set(request, EXTREMES, default_scheme(3), 4, SCHEMA)


def trained_classifier(min_support=0.01):
    data = synthesized()
    rules = sort_rules(mine_cars(data, MiningConfig(min_support=min_support)))
    return build_classifier(data, rules)


def norm(sid, rt, av):
    return QoSVector(sid, {"response_time": rt, "availability": av})


def levels(candidates, classifier, bins):
    """(service id, level) of each candidate as `score_candidates` reads it."""
    scored = score_candidates(candidates, classifier, default_scheme(3), bins)
    return [(s.service_id, s.level) for s in scored]


def utility(candidate, level, scheme):
    """`score_candidates`' utility under a rule-free classifier that says `level`."""
    classifier = Classifier([], str(level), attributes=tuple(candidate.values))
    [scored] = score_candidates([candidate], classifier, scheme, 4)
    assert scored.level == level
    return scored.utility


def test_classify_reproduces_level_one_training_row():
    clf = trained_classifier()
    assert levels([norm("s", 0.8, 0.6)], clf, 4) == [("s", 1)]


def test_classify_unmatched_candidate_gets_default_level():
    # high support keeps only the response_time singletons; label-3 rows are
    # uncovered and the default falls back to their tied majority
    clf = trained_classifier(min_support=0.2)
    matched_by_no_rule = norm("s", 0.8, 0.1)
    assert levels([matched_by_no_rule], clf, 4) == [
        ("s", int(clf.default_class))
    ]


def test_classify_is_deterministic_for_identical_candidates():
    clf = trained_classifier()
    twice = levels([norm("a", 0.4, 0.9), norm("b", 0.4, 0.9)], clf, 4)
    assert twice[0][1] == twice[1][1]


def predicted_levels(candidates, classifier, bins):
    """Levels from one predict per candidate."""
    return [
        (
            cand.service_id,
            int(
                predict(
                    classifier,
                    frozenset(
                        Item(name, str(discretize(value, bins)))
                        for name, value in cand.values.items()
                    ),
                )
            ),
        )
        for cand in candidates
    ]


def random_candidates(rng, attrs, count, prefix):
    """Normalized vectors over `attrs`, each with its own attribute order."""
    out = []
    for i in range(count):
        names = rng.sample(attrs, len(attrs))
        values = {n: rng.choice([0.0, 1.0, rng.random()]) for n in names}
        out.append(QoSVector(f"{prefix}{i}", values))
    return out


def test_classify_memo_equals_per_candidate_predict():
    rng = random.Random(515)
    for trial in range(40):
        data, mining = random_training_set(rng)
        # levels 1..3, as classes c0..c2 shifted up by one
        data = [TrainingInstance(d.items, str(int(d.class_label[1:]) + 1)) for d in data]
        classifier = train_classifier(data, mining)
        attrs = sorted(it.attribute for it in data[0].items)
        bins = rng.randint(2, 5)
        for batch in range(3):
            cands = random_candidates(rng, attrs, 25, f"b{batch}_")
            assert levels(cands, classifier, bins) == (
                predicted_levels(cands, classifier, bins)
            ), (trial, batch)
        # the levels live in each call, not on the classifier
        assert classifier._fields == ("rules", "default_class", "attributes")
        assert not hasattr(classifier, "__dict__")
        # another attribute set fails the schema check
        extra = random_candidates(rng, attrs + ["zz"], 3, "x")
        with pytest.raises(SchemaMismatch):
            levels(extra, classifier, bins)
        if len(attrs) > 1:
            fewer = random_candidates(rng, attrs[1:], 1, "y")
            with pytest.raises(SchemaMismatch):
                levels(fewer, classifier, bins)


def test_score_candidates_equals_predict_then_coefficient_times_mean():
    rng = random.Random(808)
    for trial in range(30):
        data, mining = random_training_set(rng)
        # levels 1..3, as classes c0..c2 shifted up by one
        data = [TrainingInstance(d.items, str(int(d.class_label[1:]) + 1)) for d in data]
        classifier = train_classifier(data, mining)
        attrs = sorted(it.attribute for it in data[0].items)
        scheme = default_scheme(3)
        bins = rng.randint(2, 5)
        cands = random_candidates(rng, attrs, 30, "c")
        expected = [
            ScoredService(sid, level, scheme.coefficients[level - 1] * (
                functools.reduce(operator.add, cand.values.values(), 0.0) / len(cand.values)
            ))
            for cand, (sid, level) in zip(cands, predicted_levels(cands, classifier, bins))
        ]
        assert score_candidates(cands, classifier, scheme, bins) == expected, trial


def test_score_candidates_reads_every_level_before_any_utility():
    scheme = LevelScheme(2, (1.0, 0.5))
    # predicts level 3, outside the 2-level scheme
    classifier = Classifier([], "3", attributes=("a",))
    N = QoSVector
    with pytest.raises(LevelOutOfRange):
        score_candidates([N("s1", {"a": 0.1})], classifier, scheme, 4)
    # s2's schema error outranks s1's out-of-range level
    with pytest.raises(SchemaMismatch):
        score_candidates([N("s1", {"a": 0.1}), N("s2", {"b": 0.1})], classifier, scheme, 4)
    # an empty vector fails the schema check before its mean is taken
    with pytest.raises(SchemaMismatch):
        score_candidates([N("s1", {})], classifier, scheme, 4)


def test_score_candidates_discretizes_each_value_once(monkeypatch):
    calls = []

    def counting_discretize(value, bins):
        calls.append(value)
        return discretize(value, bins)

    monkeypatch.setattr(leveling, "discretize", counting_discretize)
    attrs = ["a", "b", "c"]
    cands = random_candidates(random.Random(77), attrs, 20, "c")
    classifier = Classifier([], "1", attributes=tuple(attrs))
    assert len(score_candidates(cands, classifier, default_scheme(3), 4)) == 20
    assert len(calls) == 20 * 3


def test_default_scheme_coefficients():
    assert default_scheme(3).coefficients == (1.0, 0.75, 0.25)
    assert default_scheme(4).coefficients == (1.0, 0.75, 0.5, 0.25)


def test_level_scheme_validation():
    with pytest.raises(ValueError):
        LevelScheme(3, (0.9, 0.5, 0.25))
    with pytest.raises(ValueError):
        LevelScheme(3, (1.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        LevelScheme(1, (1.0,))


def test_score_candidates_utility_spot_values():
    scheme = default_scheme(3)
    assert utility(norm("s", 0.8, 0.6), 1, scheme) == (0.8 + 0.6) / 2
    assert utility(norm("s", 0.0, 0.0), 3, scheme) == 0.0
    assert utility(norm("s", 1.0, 1.0), 2, scheme) == 0.75
    # added left to right on every Python version (3.12's sum() reads 0.6 / 3)
    tenths = QoSVector("s", {"a": 0.1, "b": 0.2, "c": 0.3})
    assert utility(tenths, 1, scheme) == (0.1 + 0.2 + 0.3) / 3 != 0.6 / 3


def test_score_candidates_rejects_level_out_of_range():
    with pytest.raises(LevelOutOfRange):
        utility(norm("s", 0.5, 0.5), 4, default_scheme(3))
    with pytest.raises(LevelOutOfRange):
        utility(norm("s", 0.5, 0.5), 0, default_scheme(3))


def test_utility_monotone_in_level_and_values():
    scheme = default_scheme(3)
    good = norm("s", 0.9, 0.7)
    worse = norm("s", 0.6, 0.7)
    assert utility(good, 1, scheme) >= utility(good, 2, scheme)
    assert utility(good, 2, scheme) >= utility(good, 3, scheme)
    assert utility(good, 2, scheme) >= utility(worse, 2, scheme)


def scored(sid, utility):
    return ScoredService(sid, 1, utility)


def test_filter_eligible_drops_a_nan_utility():
    rows = [scored("a", 0.7), scored("n", float("nan")), scored("c", 0.3)]
    for threshold in (0.0, 0.25, 1.0):
        kept = filter_eligible(rows, threshold)
        assert [s.service_id for s in kept] == [
            s.service_id for s in (rows[0], rows[2]) if s.utility > threshold
        ]


def test_scored_service_is_frozen():
    service = scored("a", 0.7)
    for name, value in [("utility", 0.1), ("level", 2), ("service_id", "b")]:
        with pytest.raises(AttributeError):
            setattr(service, name, value)
    assert service == scored("a", 0.7)


def test_filter_eligible_strict_threshold_keeps_order():
    rows = [scored("a", 0.7), scored("b", 0.2), scored("c", 0.9)]
    kept = filter_eligible(rows, 0.5)
    assert [s.service_id for s in kept] == ["a", "c"]
    assert filter_eligible(rows, 0.0) == rows
    assert filter_eligible([scored("z", 0.0)], 0.0) == []
    assert filter_eligible(rows, 1.0) == []


SYNTHETIC_NAMES = ("response_time", "availability", "throughput", "reliability")
MISLEVELLED = pathlib.Path(__file__).resolve().parent / "data" / "cba_mislevelled_rows.txt"


def test_cba_levels_against_the_labelling_rule_on_every_small_signature():
    """Every signature of at most 256 rows, CBA's level table against the rule
    that labelled its training rows. The rows where they differ are pinned, so
    a miner or coverage change that moves any of them shows here."""
    found = []
    for size in range(1, 5):
        for bins in range(2, 6):
            if bins**size > 256:
                continue
            for n_levels, floors in itertools.product(
                range(2, 5), itertools.product(range(bins), repeat=size)
            ):
                signature = (SYNTHETIC_NAMES[:size], floors, bins, n_levels)
                rule = ref_shortfall_levels(signature)
                # the rule labelled the rows CBA was trained on
                rows = leveling._training_rows(signature)
                assert [int(row.class_label) for row in rows] == rule
                cba = leveling._trained(signature, MiningConfig())
                labels = itertools.product(range(bins), repeat=size)
                found += [
                    f"{size} {bins} {n_levels} {','.join(map(str, floors))} {i} "
                    f"{','.join(map(str, row))} {got} {want}"
                    for i, (row, got, want) in enumerate(zip(labels, cba, rule))
                    if got != want
                ]
    pinned = [
        line for line in MISLEVELLED.read_text().splitlines() if not line.startswith("#")
    ]
    assert found == pinned
    assert len({tuple(line.split()[:4]) for line in found}) == 59
    better = sum(int(line.split()[-2]) < int(line.split()[-1]) for line in found)
    assert (len(found), better) == (151, 149)


def test_a_precedence_tie_mislevels_one_row_at_four_attributes():
    """At 4 attributes, 4 bins and 3 levels with floors (3, 3, 1, 3), one row
    falls short on throughput alone and CBA levels it 1, not 2. The rule that
    covers it and the one over its shortfall item tie on confidence, support
    and size; the antecedent text breaks the tie, and response_time=3 sorts
    before throughput=0, so the first rule covers the row and the second is
    pruned."""
    signature = (SYNTHETIC_NAMES, (3, 3, 1, 3), 4, 3)
    rows = leveling._training_rows(signature)
    classifier = train_classifier(rows, MiningConfig())
    levels = [int(predict(classifier, row.items)) for row in rows]
    rule = ref_shortfall_levels(signature)
    assert [i for i in range(len(rows)) if levels[i] != rule[i]] == [243]
    row = rows[243].items
    assert row == {Item("response_time", "3"), Item("availability", "3"),
                   Item("throughput", "0"), Item("reliability", "3")}
    wrong = next(r for r in classifier.rules if r.antecedent <= row)
    right = next(
        r for r in sort_rules(mine_cars(rows, MiningConfig()))
        if r.antecedent <= row and r.consequent_class == "2"
    )
    assert wrong.antecedent == row - {Item("throughput", "0")}
    assert wrong.consequent_class == "1"
    assert right.antecedent == row - {Item("response_time", "3")}
    for r in (wrong, right):
        assert (r.confidence, r.support, len(r.antecedent)) == (0.75, 3 / 256, 3)
    assert right not in classifier.rules


def _picks_under_cba_and_under_the_rule(monkeypatch, bins, n_levels):
    """(requests whose signature has a mislevelled row, primaries that differ,
    task picks that differ), composing each request once with CBA's level table
    and once with the labelling rule's, over 40 generated 15-task chains of 30
    candidates on 3 attributes, 5 requests each drawn inside the chain's
    observed values, at threshold 0.25."""
    config = dataclasses.replace(
        default_config(), bins=bins, scheme=default_scheme(n_levels), threshold=0.25
    )
    cba = leveling._trained

    def rule(signature, mining):
        return tuple(ref_shortfall_levels(signature))

    mislevelled = primaries = picks = 0
    for seed in range(40):
        registry, plan, taxonomy = generate_synthetic(15, 30, 3, seed)
        rng = random.Random(seed)
        for _ in range(5):
            ranges = {}
            for attr in registry.schema:
                lo, hi = registry.envelope[attr.name]
                ranges[attr.name] = tuple(sorted((rng.uniform(lo, hi), rng.uniform(lo, hi))))
            request = UserRequest(ranges, {name: rank for rank, name in enumerate(ranges, 1)})
            signature = leveling.request_signature(request, registry, config)
            mislevelled += cba(signature, config.mining) != rule(signature, config.mining)
            assignments = []
            for trained in (cba, rule):
                monkeypatch.setattr(leveling, "_trained", trained)
                registry.compose_memo.clear()
                _, primary, _ = compose_with_graph(request, plan, registry, taxonomy, config)
                assignments.append(primary.assignment)
            by_cba, by_rule = assignments
            primaries += by_cba != by_rule
            picks += sum(by_cba[task] != by_rule[task] for task in by_cba)
    return mislevelled, primaries, picks


@pytest.mark.parametrize(
    "bins, n_levels, counts", [(5, 4, (11, 6, 13)), (4, 4, (0, 0, 0))], ids=["b5-l4", "b4-l4"]
)
def test_a_mislevelled_row_changes_picks_at_five_bins_and_four_levels(
    monkeypatch, bins, n_levels, counts
):
    """Of 200 requests at 5 bins and 4 levels, 11 have a signature whose CBA
    table mislevels some row; composing them by the rule instead changes 6
    primaries, 13 of their 3 000 task picks. At 4 bins no signature drawn
    mislevels a row, so nothing changes."""
    assert _picks_under_cba_and_under_the_rule(monkeypatch, bins, n_levels) == counts
