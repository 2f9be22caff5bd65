"""QoS levels relative to a user request: training-set synthesis, utility, eligibility.

The classifier that assigns levels is trained on a synthesized set covering
every discretized label combination, each labeled by how far its worst
attribute falls short of the requested range.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cba import Classifier, Item, TrainingInstance, discretize, predict
from .errors import DegenerateRequest, LevelOutOfRange, SchemaMismatch, ValueOutOfRange
from .qos import AttributeExtremes, NormalizedQoSVector, QoSAttribute, scale

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
            if lo > hi:
                raise ValueError(f"request range for {name!r} has lo > hi")
        if set(self.preferences) != set(self.ranges):
            raise ValueError("preference ranks do not cover the requested attributes")


@dataclass(frozen=True)
class LevelScheme:
    n_levels: int
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_levels < 2 or len(self.coefficients) != self.n_levels:
            raise ValueError("scheme needs one coefficient per level, n_levels >= 2")
        if self.coefficients[0] != 1.0:
            raise ValueError("the first (best) level must carry coefficient 1")
        for prev, cur in itertools.pairwise(self.coefficients):
            if not 0.0 < cur < prev:
                raise ValueError("coefficients must descend strictly within (0, 1]")


def default_scheme(n_levels: int = 3) -> LevelScheme:
    if n_levels == 3:
        return LevelScheme(3, (1.0, 0.75, 0.25))
    return LevelScheme(n_levels, tuple(1.0 - i / n_levels for i in range(n_levels)))


@dataclass
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


def synthesize_training_set(
    request: UserRequest,
    extremes: AttributeExtremes,
    scheme: LevelScheme,
    bins: int,
    schema: list[QoSAttribute],
) -> list[TrainingInstance]:
    """Expert-style training rows: every label combination, classed by its worst attribute.

    Each (attribute, label) pair gets one `Item` and one shortfall level,
    shared by every row that holds it. Raises ValueOutOfRange when the
    bins ** attributes rows would exceed MAX_TRAINING_ROWS.
    """
    names = [a.name for a in schema]
    if set(request.ranges) != set(names):
        raise SchemaMismatch("request attributes do not match the declared schema")
    rows = bins ** len(names)
    if rows > MAX_TRAINING_ROWS:
        raise ValueOutOfRange(
            f"{bins} bins over {len(names)} attributes synthesize {rows} training "
            f"rows, more than the limit of {MAX_TRAINING_ROWS}"
        )
    # per attribute, label -> (its item, its shortfall level)
    columns = []
    for name in names:
        floor_label = _demand_floor_label(request, extremes, schema, bins, name)
        columns.append([
            (Item(name, str(label)),
             _shortfall_level(floor_label - label, bins, scheme.n_levels))
            for label in range(bins)
        ])
    classes = [str(level) for level in range(scheme.n_levels + 1)]
    data: list[TrainingInstance] = []
    for combo in itertools.product(*columns):
        items, levels = zip(*combo)
        data.append(TrainingInstance(frozenset(items), classes[max(levels)]))
    return data


# A candidate's discretized labels, ((attribute, label), ...) in its own
# attribute order: the key of the classifier's level memo.
LevelKey = tuple[tuple[str, int], ...]


def _level_key(candidate: NormalizedQoSVector, bins: int) -> LevelKey:
    return tuple(
        (name, discretize(value, bins)) for name, value in candidate.values.items()
    )


def _mean(candidate: NormalizedQoSVector) -> float:
    values = list(candidate.values.values())
    return sum(values) / len(values)


def _level(classifier: Classifier, key: LevelKey) -> int:
    """The classifier's level for one key; `predict` runs only on a memo miss."""
    level = classifier._levels.get(key)
    if level is None:
        instance = frozenset(Item(name, str(label)) for name, label in key)
        level = classifier._levels[key] = int(predict(classifier, instance))
    return level


def _utility(level: int, mean: float, scheme: LevelScheme, service_id: str) -> float:
    """Level coefficient times the mean normalized value."""
    if not 1 <= level <= scheme.n_levels:
        raise LevelOutOfRange(
            f"level {level} outside 1..{scheme.n_levels} for {service_id!r}"
        )
    return scheme.coefficients[level - 1] * mean


def classify_candidates(
    candidates: list[NormalizedQoSVector], classifier: Classifier, bins: int
) -> list[tuple[str, int]]:
    """Discretize each candidate and read its level off the classifier.

    Levels are memoized on the classifier by the candidate's (attribute,
    label) pairs, so `predict` runs once per distinct label combination.
    """
    return [
        (cand.service_id, _level(classifier, _level_key(cand, bins)))
        for cand in candidates
    ]


def compute_utility(
    normalized: NormalizedQoSVector, level: int, scheme: LevelScheme
) -> float:
    """Level coefficient times the plain average of the normalized values."""
    return _utility(level, _mean(normalized), scheme, normalized.service_id)


def score_candidates(
    candidates: list[NormalizedQoSVector],
    classifier: Classifier,
    scheme: LevelScheme,
    bins: int,
) -> list[ScoredService]:
    """`score_basis` over a fresh `level_basis`.

    Every level is read first (the second read is a memo hit), so a
    classifier error comes before any utility's or mean's.
    """
    classify_candidates(candidates, classifier, bins)
    return score_basis(level_basis(candidates, bins, {}), classifier, scheme)


# One candidate's request-independent leveling inputs: the vector, its level
# key and its mean normalized value.
Basis = list[tuple[NormalizedQoSVector, LevelKey, float]]


def level_basis(
    candidates: list[NormalizedQoSVector],
    bins: int,
    interned: dict[LevelKey, LevelKey],
) -> Basis:
    """The request-independent half of `score_candidates`.

    Equal keys are interned through `interned`, so candidates with the same
    labels share one key object.
    """
    basis: Basis = []
    for cand in candidates:
        key = _level_key(cand, bins)
        basis.append((cand, interned.setdefault(key, key), _mean(cand)))
    return basis


def score_basis(
    basis: Basis, classifier: Classifier, scheme: LevelScheme
) -> list[ScoredService]:
    """The request-dependent half of `score_candidates`: levels and utilities."""
    scored: list[ScoredService] = []
    for cand, key, mean in basis:
        level = _level(classifier, key)
        scored.append(ScoredService(
            cand.service_id, cand, level, _utility(level, mean, scheme, cand.service_id)
        ))
    return scored


def filter_eligible(
    scored: list[ScoredService], threshold: float
) -> list[ScoredService]:
    """Keep services whose utility strictly exceeds the threshold, in order."""
    return [s for s in scored if s.utility > threshold]
