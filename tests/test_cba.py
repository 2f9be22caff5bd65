"""Rule mining, precedence, coverage, and prediction against hand and brute-force oracles."""

import random
from dataclasses import replace

import pytest

from qoscompose import (
    ClassAssociationRule,
    Item,
    MiningConfig,
    TrainingInstance,
    build_classifier,
    mine_cars,
    sort_rules,
)
from qoscompose.cba import discretize, instance_schema, predict
from qoscompose.errors import EmptyTrainingSet, SchemaMismatch, ValueOutOfRange
from qoscompose.leveling import _training_rows
from reference import brute_force_cars, random_training_set, ref_build_classifier


def inst(class_label, **labels):
    return TrainingInstance(
        frozenset(Item(a, v) for a, v in labels.items()), class_label
    )


FOUR_ROWS = [
    inst("c1", A="lo"),
    inst("c1", A="lo"),
    inst("c2", A="hi"),
    inst("c1", A="hi"),
]


def test_discretize_bounds_and_midpoints():
    assert discretize(0.0, 4) == 0
    assert discretize(1.0, 4) == 3
    assert discretize(0.55, 4) == 2
    assert discretize(0.25, 4) == 1


def test_discretize_rejects_out_of_range():
    with pytest.raises(ValueOutOfRange):
        discretize(1.2, 4)
    with pytest.raises(ValueOutOfRange):
        discretize(-0.1, 4)


def test_mine_cars_contains_expected_rule():
    rules = mine_cars(FOUR_ROWS, MiningConfig(min_support=0.25, min_confidence=0.5))
    assert (
        ClassAssociationRule(frozenset([Item("A", "lo")]), "c1", 0.5, 1.0) in rules
    )


def test_mine_cars_respects_confidence_threshold():
    rules = mine_cars(FOUR_ROWS, MiningConfig(min_support=0.25, min_confidence=0.6))
    consequents = {(r.antecedent, r.consequent_class) for r in rules}
    assert (frozenset([Item("A", "hi")]), "c2") not in consequents


def test_mine_cars_full_support_excludes_everything():
    rules = mine_cars(FOUR_ROWS, MiningConfig(min_support=1.0, min_confidence=0.5))
    assert rules == []


def test_mine_cars_rejects_empty_and_mixed_schema():
    with pytest.raises(EmptyTrainingSet):
        mine_cars([], MiningConfig())
    with pytest.raises(SchemaMismatch):
        mine_cars([inst("c1", A="lo"), inst("c1", B="lo")], MiningConfig())


def test_instance_schema_rejects_two_items_for_one_attribute():
    assert instance_schema(frozenset([Item("A", "lo"), Item("B", "hi")])) == {"A", "B"}
    with pytest.raises(SchemaMismatch, match="more than one item"):
        instance_schema(frozenset([Item("A", "lo"), Item("A", "hi")]))


def test_build_classifier_rejects_empty_training_data():
    with pytest.raises(EmptyTrainingSet):
        build_classifier([], [rule(1.0, 0.5, [("A", "lo")], "c1")])


def test_mine_cars_matches_brute_force_spot_checks():
    rng = random.Random(1234)
    for _ in range(25):
        data, config = random_training_set(rng)
        assert set(mine_cars(data, config)) == brute_force_cars(data, config)


ORACLE_OVERRIDES = [
    {},
    {"min_support": 0.0},
    {"min_support": 0.0, "min_confidence": 0.0},
    {"max_antecedent_size": 1},
    {"max_antecedent_size": 2},
    {"min_support": 0.0, "max_antecedent_size": 2},
]


def oracle_sets(seed, overrides, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        data, config = random_training_set(rng)
        yield rng, data, replace(config, **overrides)


def mined_order(rules):
    """`mine_cars`'s order: antecedent size, then sorted antecedent, then class."""
    return sorted(
        rules, key=lambda r: (len(r.antecedent), sorted(r.antecedent), r.consequent_class)
    )


@pytest.mark.parametrize("overrides", ORACLE_OVERRIDES)
def test_mine_cars_equals_brute_force_in_order_and_exact_floats(overrides):
    for _, data, config in oracle_sets(2718, overrides):
        mined = mine_cars(data, config)
        expected = list(brute_force_cars(data, config))
        assert sort_rules(mined) == sort_rules(expected)
        assert mined == mined_order(expected)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"min_support": 0.0}, {"max_antecedent_size": 1}, {"max_antecedent_size": 2}],
)
def test_mine_cars_equals_brute_force_on_synthesized_training_tables(overrides):
    # the engine mines full-factorial tables, where every itemset of k items
    # is frequent down to bins ** -k; random sets rarely get there
    rng = random.Random(4099)
    config = replace(MiningConfig(), **overrides)
    for _ in range(12):
        n_attrs, bins, n_levels = rng.randint(1, 4), rng.randint(2, 5), rng.randint(2, 5)
        floors = tuple(rng.randrange(bins) for _ in range(n_attrs))
        names = tuple(f"a{i}" for i in range(n_attrs))
        data = _training_rows((names, floors, bins, n_levels))
        assert mine_cars(data, config) == mined_order(brute_force_cars(data, config))


@pytest.mark.parametrize("overrides", ORACLE_OVERRIDES)
def test_build_classifier_equals_row_by_row_coverage(overrides):
    for rng, data, config in oracle_sets(1618, overrides):
        rules = sort_rules(mine_cars(data, config))
        assert build_classifier(data, rules) == ref_build_classifier(data, rules)
        # items and classes the data never holds, and an empty antecedent
        labels = sorted({inst.class_label for inst in data}) + ["unseen"]
        strays = [
            ClassAssociationRule(frozenset([Item("a0", "9")]), labels[0], 0.5, 1.0),
            ClassAssociationRule(
                frozenset([Item("zz", "0"), Item("a0", "0")]), labels[0], 0.5, 1.0
            ),
            ClassAssociationRule(frozenset(), rng.choice(labels), 0.5, 0.5),
            ClassAssociationRule(frozenset([Item("a0", "0")]), "unseen", 0.5, 1.0),
        ]
        mixed = rules + strays
        rng.shuffle(mixed)
        assert build_classifier(data, mixed) == ref_build_classifier(data, mixed)


def test_anti_monotone_support():
    rng = random.Random(99)
    data, _ = random_training_set(rng)
    config = MiningConfig(min_support=0.15, min_confidence=0.01)
    rules = mine_cars(data, config)
    n = len(data)
    by_class = {}
    for rule in rules:
        by_class.setdefault(rule.consequent_class, []).append(rule.antecedent)
    for rule in rules:
        hits = sum(
            1
            for row in data
            if rule.antecedent <= row.items and row.class_label == rule.consequent_class
        )
        assert rule.support == hits / n
        total = sum(1 for row in data if rule.antecedent <= row.items)
        assert rule.confidence == hits / total


def rule(conf, supp, items, cls="c1"):
    return ClassAssociationRule(
        frozenset(Item(a, v) for a, v in items), cls, supp, conf
    )


def test_sort_rules_confidence_then_support_then_size():
    low = rule(0.7, 0.5, [("A", "1")])
    high = rule(0.9, 0.1, [("A", "2")])
    assert sort_rules([low, high]) == [high, low]
    weak = rule(0.8, 0.2, [("A", "1")])
    strong = rule(0.8, 0.4, [("A", "2")])
    assert sort_rules([weak, strong]) == [strong, weak]
    big = rule(0.8, 0.2, [("A", "1"), ("B", "1")])
    small = rule(0.8, 0.2, [("C", "1")])
    assert sort_rules([big, small]) == [small, big]


def test_sort_rules_lexicographic_text_tiebreak_is_stable():
    r1 = rule(0.8, 0.2, [("A", "1")])
    r2 = rule(0.8, 0.2, [("A", "2")])
    assert sort_rules([r2, r1]) == [r1, r2]
    assert sort_rules([r1, r2]) == [r1, r2]


def test_build_classifier_keeps_covering_rule_and_default():
    data = [inst("c1", A="lo"), inst("c2", A="hi")]
    rules = [rule(1.0, 0.5, [("A", "lo")], "c1")]
    clf = build_classifier(data, rules)
    assert [r.consequent_class for r in clf.rules] == ["c1"]
    assert clf.default_class == "c2"


def test_build_classifier_empty_rules_majority_default():
    data = [inst("c1", A="lo"), inst("c1", A="hi"), inst("c2", A="hi")]
    clf = build_classifier(data, [])
    assert clf.rules == []
    assert clf.default_class == "c1"


def test_build_classifier_drops_rule_with_no_uncovered_match():
    data = [inst("c1", A="lo", B="x"), inst("c2", A="hi", B="x")]
    first = rule(1.0, 0.5, [("B", "x")], "c1")  # matches (and covers) both rows
    shadowed = rule(0.9, 0.5, [("A", "lo")], "c1")
    clf = build_classifier(data, [first, shadowed])
    assert clf.rules == [first]


def test_build_classifier_default_ties_break_lexicographically():
    data = [inst("c2", A="lo"), inst("c1", A="hi")]
    clf = build_classifier(data, [])
    assert clf.default_class == "c1"


def test_predict_first_match_then_default():
    data = [inst("c1", A="lo"), inst("c2", A="hi")]
    clf = build_classifier(data, [rule(1.0, 0.5, [("A", "lo")], "c1")])
    assert predict(clf, frozenset([Item("A", "lo")])) == "c1"
    assert predict(clf, frozenset([Item("A", "hi")])) == "c2"


def test_predict_prefers_higher_precedence_rule():
    data = [inst("c1", A="lo", B="x"), inst("c2", A="lo", B="y")]
    strong = rule(1.0, 0.5, [("B", "x")], "c1")
    weak = rule(0.5, 0.5, [("A", "lo")], "c2")
    clf = build_classifier(data, [strong, weak])
    assert predict(clf, frozenset([Item("A", "lo"), Item("B", "x")])) == "c1"


def test_predict_rejects_wrong_schema():
    data = [inst("c1", A="lo", B="x")]
    clf = build_classifier(data, [])
    with pytest.raises(SchemaMismatch):
        predict(clf, frozenset([Item("A", "lo")]))
