"""QoS levels relative to a user request: training-set synthesis, utility, eligibility.

The classifier that assigns levels is trained on a synthesized set covering
every discretized label combination, each labeled by how far its worst
attribute falls short of the requested range. One classifier is kept per
training signature, and `rank_candidates` levels a whole registry with it.
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
    DegenerateRequest, InvalidValue, LevelOutOfRange, SchemaMismatch, UnknownAttribute,
    ValueOutOfRange, stage,
)
from .qos import AttributeExtremes, NormalizedQoSVector, QoSAttribute, scale

if TYPE_CHECKING:
    from .data_io import EngineConfig, Registry

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


@dataclass(frozen=True, slots=True)
class ScoredService:
    service_id: str
    normalized: NormalizedQoSVector
    level: int
    utility: float


def _demand_floor_label(
    request: UserRequest,
    extremes: AttributeExtremes,
    schema: list[QoSAttribute],
    bins: int,
    name: str,
) -> int:
    """Label of the weakest value still inside the requested range."""
    attr = next(a for a in schema if a.name == name)
    lo_raw, hi_raw = request.ranges[name]
    lo, hi = extremes[name]
    ends = (
        scale(lo_raw, lo, hi, attr.polarity),
        scale(hi_raw, lo, hi, attr.polarity),
    )
    floor_norm, ceil_norm = min(ends), max(ends)
    if ceil_norm < 0.0 or floor_norm > 1.0:
        raise DegenerateRequest(
            f"requested range for {name!r} lies outside the observed value space"
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


def _training_signature(
    request: UserRequest,
    extremes: AttributeExtremes,
    scheme: LevelScheme,
    bins: int,
    schema: list[QoSAttribute],
) -> TrainingSignature:
    """The checks of `synthesize_training_set` and the key its rows follow from."""
    names = [a.name for a in schema]
    extra = set(request.ranges) - set(names)
    if extra:
        raise UnknownAttribute(
            f"request names attributes absent from the schema: {sorted(extra)}"
        )
    if set(request.ranges) != set(names):
        raise SchemaMismatch("request attributes do not match the declared schema")
    rows = bins ** len(names)
    if rows > MAX_TRAINING_ROWS:
        raise ValueOutOfRange(
            f"{bins} bins over {len(names)} attributes synthesize {rows} training "
            f"rows, more than the limit of {MAX_TRAINING_ROWS}"
        )
    floors = tuple(
        _demand_floor_label(request, extremes, schema, bins, name) for name in names
    )
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


def synthesize_training_set(
    request: UserRequest,
    extremes: AttributeExtremes,
    scheme: LevelScheme,
    bins: int,
    schema: list[QoSAttribute],
) -> list[TrainingInstance]:
    """Expert-style training rows: every label combination, classed by its worst attribute.

    Each (attribute, label) pair gets one `Item` and one shortfall level,
    shared by every row that holds it. Raises UnknownAttribute when the
    request names an attribute outside the schema, SchemaMismatch when it
    lacks one, ValueOutOfRange when the bins ** attributes rows would
    exceed MAX_TRAINING_ROWS, and DegenerateRequest when a requested range
    lies outside the observed values.
    """
    return _training_rows(_training_signature(request, extremes, scheme, bins, schema))


def _level_code(candidate: NormalizedQoSVector, bins: int) -> int:
    """The candidate's labels as a base-`bins` number, first attribute most significant:
    its row in `_training_rows` when its values are in schema order."""
    code = 0
    for value in candidate.values.values():
        code = code * bins + discretize(value, bins)
    return code


def _mean(candidate: NormalizedQoSVector) -> float:
    # added left to right: from Python 3.12 on, sum() compensates rounding
    # error, and utilities would differ in the last bit between versions
    total = 0.0
    for value in candidate.values.values():
        total += value
    return total / len(candidate.values)


def score_candidates(
    candidates: list[NormalizedQoSVector],
    classifier: Classifier,
    scheme: LevelScheme,
    bins: int,
) -> list[ScoredService]:
    """`score_basis` over a per-row level table, with an empty pool.

    Each value is discretized once and each distinct label set predicted
    once, and every level is read before any mean is taken, so a classifier
    error comes before any utility's or mean's.
    """
    level_of: dict[frozenset[Item], int] = {}
    levels: list[int] = []
    for cand in candidates:
        items = frozenset(
            Item(name, str(discretize(value, bins))) for name, value in cand.values.items()
        )
        if items not in level_of:
            level_of[items] = int(predict(classifier, items))
        levels.append(level_of[items])
    rows = [(cand, i, _mean(cand)) for i, cand in enumerate(candidates)]
    return score_basis(Basis(rows, [None] * (len(rows) * scheme.n_levels)), levels, scheme)


class Basis(NamedTuple):
    """One task's leveling inputs under one `LevelScheme`: per candidate its
    vector, its row in the level table and its mean normalized value (`rows`),
    and row i's service at level l in pool[i * n_levels + l - 1], made the
    first time it is met."""

    rows: list[tuple[NormalizedQoSVector, int, float]]
    pool: list[ScoredService | None]


def level_basis(
    candidates: list[NormalizedQoSVector], bins: int, n_levels: int
) -> Basis:
    """The request-independent half of `score_candidates`, with an empty pool.

    A candidate's row is its `_level_code`, so its values must be in schema
    order, as `normalize` makes them.
    """
    rows = [(cand, _level_code(cand, bins), _mean(cand)) for cand in candidates]
    return Basis(rows, [None] * (len(rows) * n_levels))


def score_basis(
    basis: Basis, levels: Sequence[int], scheme: LevelScheme
) -> list[ScoredService]:
    """The request-dependent half of `score_candidates`: levels and utilities.

    Row i's level is `levels[code]` for its code, range-checked in row order,
    so the first out-of-range candidate is named. A utility is the level's
    coefficient times the mean normalized value. A (row, level)'s service
    comes from the pool, made on first use, so `basis` must have been built
    for `scheme`.
    """
    rows, pool = basis
    n_levels, coefficients = scheme.n_levels, scheme.coefficients
    scored: list[ScoredService] = []
    for row, (cand, code, mean) in enumerate(rows):
        level = levels[code]
        if not 1 <= level <= n_levels:
            raise LevelOutOfRange(
                f"level {level} outside 1..{n_levels} for {cand.service_id!r}"
            )
        slot = row * n_levels + level - 1
        service = pool[slot]
        if service is None:
            service = pool[slot] = ScoredService(
                cand.service_id, cand, level, coefficients[level - 1] * mean
            )
        scored.append(service)
    return scored


def filter_eligible(
    scored: list[ScoredService], threshold: float
) -> list[ScoredService]:
    """Keep services whose utility strictly exceeds the threshold, in order.

    A NaN utility is dropped: `NaN > threshold` is False.
    """
    return [s for s in scored if s.utility > threshold]


# Classifiers `_trained` keeps, and compose results each registry keeps, least
# recently used first out: over twice the 27 signatures that 1 000 distinct
# requests of the catalog benchmark have.
TRAINING_MEMO_SIZE = 64


@lru_cache(maxsize=TRAINING_MEMO_SIZE)
def _trained(
    signature: TrainingSignature, mining: MiningConfig
) -> tuple[Classifier, tuple[int, ...]]:
    """The classifier of one training signature and its level of every training
    row, in row order; shared by every request that has the signature.

    The rows are every label combination, so a registry candidate's level is
    the entry at its `level_basis` code. Process-wide rather than on the
    registry, so a reloaded registry still hits. What it returns must not be
    mutated.
    """
    rows = _training_rows(signature)
    classifier = train_classifier(rows, mining)
    return classifier, tuple(int(predict(classifier, row.items)) for row in rows)


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


def request_training(
    request: UserRequest, registry: "Registry", config: "EngineConfig"
) -> tuple[Classifier, tuple[int, ...]]:
    """The request's classifier and level table; errors carry the "training" stage.

    Mining runs only the first time a (signature, mining config) pair is met,
    see `_trained`.
    """
    signature = request_signature(request, registry, config)
    with stage("training"):
        return _trained(signature, config.mining)


def signature_ranker(
    signature: TrainingSignature, registry: "Registry", config: "EngineConfig"
) -> Callable[[], dict[str, list[ScoredService]]]:
    """`rank_candidates` for a request whose `request_signature` is `signature`,
    up to the classification it returns.

    Training and scaling run now. The returned function levels and filters
    every task's candidates, equal on every call; it holds the signature's
    level table and the registry's bases, not the registry.
    """
    with stage("training"):
        _, levels = _trained(signature, config.mining)
    with stage("scaling"):
        registry.scaled  # computed here, so a scaling error carries this stage
    with stage("classification"):
        bases = registry.level_bases(config.bins, config.scheme)
    scheme, threshold = config.scheme, config.threshold
    return lambda: {
        task: filter_eligible(score_basis(basis, levels, scheme), threshold)
        for task, basis in bases.items()
    }


def rank_candidates(
    request: UserRequest, registry: "Registry", config: "EngineConfig"
) -> dict[str, list[ScoredService]]:
    """Scale, level, and threshold-filter every task's candidates.

    Only training and the per-candidate level lookup depend on the request:
    scaling, discretization, each candidate's mean and its `ScoredService`
    at each level are kept on the registry (see `Registry.scaled` and
    `Registry.level_bases`). The lists are new; the frozen services in them
    are shared with every other request of the same bins and scheme. Levels
    are read from the training signature's table, so a warm signature never
    calls `predict`.
    """
    rank = signature_ranker(request_signature(request, registry, config), registry, config)
    with stage("classification"):
        return rank()
