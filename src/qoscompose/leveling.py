"""QoS levels relative to a user request: training-set synthesis, utility, eligibility.

The classifier that assigns levels is trained on a synthesized set covering
every discretized label combination, each labeled by how far its worst
attribute falls short of the requested range. Each signature's level table is
kept, and `rank_candidates` levels a whole registry from it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .cba import (
    Classifier, Item, MiningConfig, TrainingInstance, discretize, predict, train_classifier,
)
from .errors import (
    DegenerateRequest, EmptyTrainingSet, InvalidValue, LevelOutOfRange, SchemaMismatch,
    UnknownAttribute, ValueOutOfRange, stage,
)
from .qos import (
    AttributeExtremes, QoSAttribute, QoSVector, check_spread, compute_extremes,
    outside_extremes, scale,
)

if TYPE_CHECKING:
    from .data_io import EngineConfig, Registry, RegistryRecord

# Largest training set synthesize_training_set builds: 8 attributes at 4 bins.
# It holds bins ** attributes rows and mining cost grows with it, so a larger
# request is refused before any row is made.
MAX_TRAINING_ROWS = 65_536


@dataclass(frozen=True)
class UserRequest:
    # attribute -> requested [lo, hi] in raw units
    ranges: dict[str, tuple[float, float]]
    # attribute -> preference rank, 1 = most important
    preferences: dict[str, int]

    def __post_init__(self) -> None:
        for name, (lo, hi) in self.ranges.items():
            # NaN fails the comparison, so a NaN end is refused too
            if not lo <= hi:
                raise InvalidValue(f"request range for {name!r} needs lo <= hi")
        if set(self.preferences) != set(self.ranges):
            raise InvalidValue("preference ranks do not cover the requested attributes")


@dataclass(frozen=True)
class LevelScheme:
    n_levels: int
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_level_count(self.n_levels)
        if len(self.coefficients) != self.n_levels:
            raise InvalidValue("scheme needs one coefficient per level")
        if self.coefficients[0] != 1.0:
            raise InvalidValue("the first (best) level must carry coefficient 1")
        for prev, cur in itertools.pairwise(self.coefficients):
            if not 0.0 < cur < prev:
                raise InvalidValue("coefficients must descend strictly within (0, 1]")


def _check_level_count(n_levels: int) -> None:
    """Refuse fewer than 2 levels, or more than MAX_TRAINING_ROWS: a request levels
    into at most `bins` distinct levels, and no training set has more bins."""
    if not 2 <= n_levels <= MAX_TRAINING_ROWS:
        raise InvalidValue(f"a scheme needs 2 to {MAX_TRAINING_ROWS} levels")


def default_scheme(n_levels: int = 3) -> LevelScheme:
    """Coefficients 1 - i / n_levels, or 1, 0.75, 0.25 for 3 levels; the count is
    checked before any coefficient is built."""
    _check_level_count(n_levels)
    if n_levels == 3:
        return LevelScheme(3, (1.0, 0.75, 0.25))
    return LevelScheme(n_levels, tuple(1.0 - i / n_levels for i in range(n_levels)))


class ScoredService(NamedTuple):
    service_id: str
    level: int
    utility: float


def _demand_floor_label(
    request: UserRequest, extremes: AttributeExtremes, bins: int, attr: QoSAttribute
) -> int:
    """Label of the weakest value still inside the requested range."""
    lo_raw, hi_raw = request.ranges[attr.name]
    lo, hi = extremes[attr.name]
    check_spread(attr.name, lo, hi)
    ends = scale(lo_raw, lo, hi, attr.polarity), scale(hi_raw, lo, hi, attr.polarity)
    floor_norm, ceil_norm = min(ends), max(ends)
    if ceil_norm < 0.0 or floor_norm > 1.0:
        raise DegenerateRequest(
            f"requested range for {attr.name!r} lies outside the observed value space"
        )
    return discretize(min(max(floor_norm, 0.0), 1.0), bins)


def _shortfall_level(gap_labels: int, bins: int, n_levels: int) -> int:
    """Level of one attribute from how many labels it sits below the demand floor."""
    if gap_labels <= 0:
        return 1
    # ceil(gap/bins * (n-1)) in exact integer arithmetic
    band = -(-gap_labels * (n_levels - 1) // bins)
    return min(n_levels - 1, band) + 1


# (schema names in order, each attribute's demand-floor label, bins, n_levels):
# everything a synthesized training set depends on.
TrainingSignature = tuple[tuple[str, ...], tuple[int, ...], int, int]


def _schema_names(schema: list[QoSAttribute]) -> set[str]:
    """The schema's attribute names; SchemaMismatch names the first one it repeats."""
    names: set[str] = set()
    for attr in schema:
        if attr.name in names:
            raise SchemaMismatch(f"schema names attribute {attr.name!r} more than once")
        names.add(attr.name)
    return names


def _training_signature(
    request: UserRequest,
    extremes: AttributeExtremes,
    scheme: LevelScheme,
    bins: int,
    schema: list[QoSAttribute],
) -> TrainingSignature:
    """The checks of `synthesize_training_set` and the key its rows follow from."""
    names = [a.name for a in schema]
    if not names:
        raise EmptyTrainingSet("cannot synthesize training rows from a schema with no attribute")
    known = _schema_names(schema)
    extra = request.ranges.keys() - known
    if extra:
        raise UnknownAttribute(
            f"request names attributes absent from the schema: {sorted(extra)}"
        )
    if request.ranges.keys() != known:
        raise SchemaMismatch("request attributes do not match the declared schema")
    if not extremes.keys() >= known:
        raise SchemaMismatch("extremes do not cover the declared schema")
    rows = bins ** len(names)
    if rows > MAX_TRAINING_ROWS:
        raise ValueOutOfRange(
            f"{bins} bins over {len(names)} attributes synthesize {rows} training "
            f"rows, more than the limit of {MAX_TRAINING_ROWS}"
        )
    floors = tuple(_demand_floor_label(request, extremes, bins, attr) for attr in schema)
    return tuple(names), floors, bins, scheme.n_levels


def _training_rows(signature: TrainingSignature) -> list[TrainingInstance]:
    """Every label combination, classed by its worst attribute's shortfall level."""
    names, floors, bins, n_levels = signature
    # per attribute, label -> (its item, its shortfall level)
    columns = [
        [
            (Item(name, str(label)), _shortfall_level(floor - label, bins, n_levels))
            for label in range(bins)
        ]
        for name, floor in zip(names, floors)
    ]
    classes = [str(level) for level in range(n_levels + 1)]
    data: list[TrainingInstance] = []
    for combo in itertools.product(*columns):
        items, levels = zip(*combo)
        data.append(TrainingInstance(frozenset(items), classes[max(levels)]))
    return data


# One task's leveling inputs as three columns, one entry per candidate: its
# service id, its row in the level table and its mean scaled value.
Basis = tuple[Sequence[str], Sequence[int], Sequence[float]]


def level_bases(
    schema: list[QoSAttribute], records: Sequence["RegistryRecord"], bins: int
) -> dict[str, Basis]:
    """Each task's basis against its own extremes, in record order, from one walk over
    its records. A value is scaled as `scale_values` scales it, without building its
    dict. A code reads the labels as a base-`bins` number, first attribute most
    significant: its row in `_training_rows`' product order. Means add left to right,
    as in `score_candidates`: sum() compensates rounding from Python 3.12 on. A schema
    that repeats an attribute is refused first, then a record off the schema; then,
    per task, `compute_extremes`, and then the first record holding a value outside
    its extremes, at its first such attribute, as `scale_values` refuses it."""
    names = _schema_names(schema)
    by_task: dict[str, list[RegistryRecord]] = {}
    for rec in records:
        if rec.values.keys() != names:
            raise SchemaMismatch(f"candidate {rec.service_id!r} does not match the declared schema")
        by_task.setdefault(rec.task_id, []).append(rec)
    bases: dict[str, Basis] = {}
    for task, recs in by_task.items():
        extremes = compute_extremes(recs)
        columns = [(attr.name, *extremes[attr.name], attr.polarity) for attr in schema]
        ids, codes, means = bases[task] = [], [], []
        for rec in recs:
            values, code, total = rec.values, 0, 0.0
            for name, lo, hi, polarity in columns:
                value = values[name]
                if not lo <= value <= hi:
                    raise outside_extremes(name, value, rec.service_id, lo, hi)
                value = scale(value, lo, hi, polarity)
                code = code * bins + discretize(value, bins)
                total += value
            ids.append(rec.service_id)
            codes.append(code)
            means.append(total / len(schema))
    return bases


def synthesize_training_set(
    request: UserRequest,
    extremes: AttributeExtremes,
    scheme: LevelScheme,
    bins: int,
    schema: list[QoSAttribute],
) -> list[TrainingInstance]:
    """Expert-style training rows: every label combination, classed by its worst attribute.

    Each (attribute, label) pair gets one `Item` and one shortfall level,
    shared by every row that holds it. Raises EmptyTrainingSet when the
    schema is empty, SchemaMismatch when it repeats an attribute,
    UnknownAttribute when the request names an attribute outside it,
    SchemaMismatch when the request or the extremes lack one,
    ValueOutOfRange when the bins ** attributes rows would exceed
    MAX_TRAINING_ROWS, and, per attribute, OutOfRangeValue when its extremes
    spread wider than a float holds and DegenerateRequest when its requested
    range lies outside the observed values.
    """
    return _training_rows(_training_signature(request, extremes, scheme, bins, schema))


def score_candidates(
    candidates: list[QoSVector],
    classifier: Classifier,
    scheme: LevelScheme,
    bins: int,
) -> list[ScoredService]:
    """`score_basis` over a per-row level table.

    Each value is discretized and added to its vector's mean in one walk, and
    each distinct label set is predicted once, before any utility is taken, so
    a classifier error comes before any utility's.
    """
    level_of: dict[frozenset[Item], int] = {}
    levels, means = [], []
    for cand in candidates:
        # added left to right: from Python 3.12 on, sum() compensates rounding
        # error, and utilities would differ in the last bit between versions
        labels, total = set(), 0.0
        for name, value in cand.values.items():
            labels.add(Item(name, str(discretize(value, bins))))
            total += value
        items = frozenset(labels)
        if items not in level_of:
            level_of[items] = int(predict(classifier, items))
        levels.append(level_of[items])
        means.append(total / len(cand.values))
    ids = [c.service_id for c in candidates]
    return score_basis((ids, range(len(ids)), means), levels, scheme)


def score_basis(
    basis: Basis, levels: Sequence[int], scheme: LevelScheme
) -> list[ScoredService]:
    """The request-dependent half of `score_candidates`: levels and utilities.

    Candidate i's level is `levels[code]` for its code, range-checked in
    candidate order, so the first out-of-range candidate is named. A utility
    is the level's coefficient times the mean scaled value.
    """
    n_levels, coefficients = scheme.n_levels, scheme.coefficients
    scored: list[ScoredService] = []
    for service_id, code, mean in zip(*basis):
        level = levels[code]
        if not 1 <= level <= n_levels:
            raise LevelOutOfRange(f"level {level} outside 1..{n_levels} for {service_id!r}")
        scored.append(ScoredService(service_id, level, coefficients[level - 1] * mean))
    return scored


def filter_eligible(
    scored: list[ScoredService], threshold: float
) -> list[ScoredService]:
    """Keep services whose utility strictly exceeds the threshold, in order.

    A NaN utility is dropped: `NaN > threshold` is False.
    """
    return [s for s in scored if s.utility > threshold]


# Level tables `_trained` keeps, and compose results each registry keeps, least
# recently used first out: over twice the 27 signatures that 1 000 distinct
# requests of the catalog benchmark have.
TRAINING_MEMO_SIZE = 64


@lru_cache(maxsize=TRAINING_MEMO_SIZE)
def _trained(signature: TrainingSignature, mining: MiningConfig) -> tuple[int, ...]:
    """The level the signature's classifier predicts for every training row, in
    row order; shared by every request that has the signature.

    The rows are every label combination, so a registry candidate's level is
    the entry at its code in `Registry.level_bases`. Process-wide rather than on the
    registry, so a reloaded registry still hits.
    """
    rows = _training_rows(signature)
    classifier = train_classifier(rows, mining)
    return tuple(int(predict(classifier, row.items)) for row in rows)


def request_signature(
    request: UserRequest, registry: "Registry", config: "EngineConfig"
) -> TrainingSignature:
    """The request's training signature; its checks' errors carry the "training" stage.

    Every request computes it, so each refusal of `synthesize_training_set`
    comes before any memo is read.
    """
    with stage("training"):
        return _training_signature(
            request, registry.envelope, config.scheme, config.bins, registry.schema
        )


def signature_ranker(
    signature: TrainingSignature, registry: "Registry", config: "EngineConfig"
) -> Callable[[str], list[ScoredService]]:
    """`rank_candidates` for a request whose `request_signature` is `signature`,
    up to the classification it returns, one task at a time.

    Training and scaling run now. The returned function levels and filters
    one task's candidates, in record order, equal on every call; it holds the
    signature's level table and the registry's bases, not the registry.
    """
    with stage("training"):
        levels = _trained(signature, config.mining)
    with stage("scaling"):
        bases = registry.level_bases(config.bins)
    scheme, threshold = config.scheme, config.threshold
    return lambda task: filter_eligible(score_basis(bases[task], levels, scheme), threshold)


def rank_candidates(
    request: UserRequest, registry: "Registry", config: "EngineConfig"
) -> dict[str, list[ScoredService]]:
    """Scale, level, and threshold-filter every task's candidates.

    Only training and the per-candidate level lookup depend on the request:
    each candidate's level code and mean scaled value are kept on the
    registry per `bins` (see `Registry.level_bases`), and no scaled vector is
    kept at all. Levels are read from the training signature's table, so a
    warm signature never calls `predict`.
    """
    rank = signature_ranker(request_signature(request, registry, config), registry, config)
    with stage("classification"):
        return {task: rank(task) for task in registry.level_bases(config.bins)}
