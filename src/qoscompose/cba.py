"""Associative classification: depth-first rule mining, coverage-based rule selection.

Training instances hold discrete attribute=label items. Mining enumerates
class association rules depth-first, dropping a class from a subtree once its
support falls below the threshold; the classifier keeps the high-precedence
rules that still cover something and falls back to a default class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import NamedTuple

from .errors import EmptyTrainingSet, InvalidValue, SchemaMismatch, ValueOutOfRange


class Item(NamedTuple):
    """One attribute=label pair; it sorts and hashes as the tuple (attribute, value)."""

    attribute: str
    value: str


class TrainingInstance(NamedTuple):
    items: frozenset[Item]
    class_label: str


class ClassAssociationRule(NamedTuple):
    antecedent: frozenset[Item]
    consequent_class: str
    support: float
    confidence: float


class Classifier(NamedTuple):
    rules: list[ClassAssociationRule]
    default_class: str
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class MiningConfig:
    min_support: float = 0.01
    min_confidence: float = 0.5
    # None = no truncation (any antecedent up to the full attribute count)
    max_antecedent_size: int | None = None

    def __post_init__(self) -> None:
        for name in ("min_support", "min_confidence"):
            # NaN fails both comparisons, so it is refused too
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidValue(f"{name} must be a finite value in [0, 1]")
        if self.max_antecedent_size is not None and self.max_antecedent_size < 1:
            raise InvalidValue("max_antecedent_size must be None or at least 1")


def discretize(value: float, bins: int) -> int:
    """Equal-width bin index over [0, 1]; 1.0 clamps into the top bin."""
    if not 0.0 <= value <= 1.0:
        raise ValueOutOfRange(f"cannot discretize {value!r}, expected [0, 1]")
    return min(floor(value * bins), bins - 1)


def render_items(items: frozenset[Item]) -> str:
    return ",".join(f"{it.attribute}={it.value}" for it in sorted(items))


def instance_schema(instance: frozenset[Item]) -> frozenset[str]:
    """Attribute set of an instance; rejects duplicate attributes."""
    attrs = frozenset(it.attribute for it in instance)
    if len(attrs) != len(instance):
        raise SchemaMismatch("instance carries more than one item for an attribute")
    return attrs


def _vertical(data: list[TrainingInstance]) -> tuple[dict[Item, int], dict[str, int]]:
    """Row sets as int bitmasks (bit i = row i): one per item, one per class."""
    item_rows: dict[Item, list[int]] = {}
    class_rows: dict[str, list[int]] = {}
    for i, inst in enumerate(data):
        for it in inst.items:
            item_rows.setdefault(it, []).append(i)
        class_rows.setdefault(inst.class_label, []).append(i)

    def bitset(rows: list[int]) -> int:
        buf = bytearray((len(data) + 7) // 8)
        for i in rows:
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    return (
        {it: bitset(rows) for it, rows in item_rows.items()},
        {cls: bitset(rows) for cls, rows in class_rows.items()},
    )


def mine_cars(
    data: list[TrainingInstance], config: MiningConfig
) -> list[ClassAssociationRule]:
    """All class association rules passing the support/confidence thresholds.

    One depth-first walk on an explicit stack. A node's rows are an int
    bitmask (Eclat-style): its base's ANDed with the added item's, so a count
    is a popcount. A node extends only with items of later attributes, up to
    `max_antecedent_size`. A class whose hits fall to 0 or below `min_support`
    is dropped for the node's whole subtree, exact because support is
    anti-monotone. Rules come out sorted by size, sorted antecedent, class.
    """
    if not data:
        raise EmptyTrainingSet("cannot mine rules from an empty training set")
    n = len(data)
    schema = instance_schema(data[0].items)
    for inst in data[1:]:
        if instance_schema(inst.items) != schema:
            raise SchemaMismatch("training instances do not share one attribute schema")
    max_size = config.max_antecedent_size or len(schema)
    item_masks, class_masks = _vertical(data)
    items = sorted(item_masks)
    # items sort by attribute: later attributes start where this one's run ends
    run_end = {it.attribute: i + 1 for i, it in enumerate(items)}
    found: list[tuple[int, tuple[Item, ...], str, float, float]] = []
    # node: (itemset, its row set, classes still frequent, first extension)
    stack = [((), (1 << n) - 1, sorted(class_masks), 0)]
    while stack:
        base, base_mask, live, start = stack.pop()
        for item in items[start:]:
            itemset = base + (item,)
            mask = base_mask & item_masks[item]
            total = mask.bit_count()
            kept = []
            for cls in live:
                hits = (mask & class_masks[cls]).bit_count()
                if hits == 0 or hits / n < config.min_support:
                    continue
                kept.append(cls)
                if hits / total >= config.min_confidence:
                    found.append((len(itemset), itemset, cls, hits / n, hits / total))
            if kept and len(itemset) < max_size:
                stack.append((itemset, mask, kept, run_end[item.attribute]))
    return [
        ClassAssociationRule(frozenset(itemset), cls, support, confidence)
        for _, itemset, cls, support, confidence in sorted(found)
    ]


def sort_rules(rules: list[ClassAssociationRule]) -> list[ClassAssociationRule]:
    """Precedence order: confidence desc, support desc, fewer items, then text."""
    return sorted(
        rules,
        key=lambda r: (
            -r.confidence,
            -r.support,
            len(r.antecedent),
            render_items(r.antecedent),
            r.consequent_class,
        ),
    )


def build_classifier(
    data: list[TrainingInstance], rules: list[ClassAssociationRule]
) -> Classifier:
    """Single coverage pass over precedence-sorted rules.

    A rule survives only if it correctly classifies some instance nobody
    above it covered; every instance its antecedent matches then counts as
    covered, right or wrong. Row sets are int bitmasks as in `mine_cars`: a
    rule matches the uncovered mask ANDed with its items' masks (an item
    absent from the data matches no row, an empty antecedent every row).
    The default class is the majority of the uncovered rows (of all rows when
    none is left), ties broken by label.
    """
    if not data:
        raise EmptyTrainingSet("cannot build a classifier without training data")
    item_masks, class_masks = _vertical(data)
    everything = (1 << len(data)) - 1
    uncovered = everything
    kept: list[ClassAssociationRule] = []
    for rule in rules:
        matched = uncovered
        for it in rule.antecedent:
            matched &= item_masks.get(it, 0)
        if matched & class_masks.get(rule.consequent_class, 0):
            kept.append(rule)
            uncovered &= ~matched
    pool = uncovered or everything
    default = min(
        (-(mask & pool).bit_count(), cls) for cls, mask in class_masks.items()
    )[1]
    schema = tuple(sorted(instance_schema(data[0].items)))
    return Classifier(kept, default, schema)


def train_classifier(
    training: list[TrainingInstance], mining: MiningConfig
) -> Classifier:
    """Mine, precedence-sort and coverage-prune: the classifier one request uses."""
    return build_classifier(training, sort_rules(mine_cars(training, mining)))


def predict(classifier: Classifier, instance: frozenset[Item]) -> str:
    """Class of the first matching rule, or the default class."""
    attrs = instance_schema(instance)
    if attrs != frozenset(classifier.attributes):
        raise SchemaMismatch(
            f"instance attributes {sorted(attrs)} do not match the classifier "
            f"schema {list(classifier.attributes)}"
        )
    for rule in classifier.rules:
        if rule.antecedent <= instance:
            return rule.consequent_class
    return classifier.default_class
