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

    Raises ValueOutOfRange when the bins ** attributes rows would exceed
    MAX_TRAINING_ROWS.
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
    floors = {
        name: _demand_floor_label(request, extremes, schema, bins, name)
        for name in names
    }
    data: list[TrainingInstance] = []
    for combo in itertools.product(range(bins), repeat=len(names)):
        worst = max(
            _shortfall_level(floors[name] - label, bins, scheme.n_levels)
            for name, label in zip(names, combo)
        )
        items = frozenset(
            Item(name, str(label)) for name, label in zip(names, combo)
        )
        data.append(TrainingInstance(items, str(worst)))
    return data


def classify_candidates(
    candidates: list[NormalizedQoSVector], classifier: Classifier, bins: int
) -> list[tuple[str, int]]:
    """Discretize each candidate and read its level off the classifier.

    Levels are memoized on the classifier by the candidate's (attribute,
    label) pairs, so `predict` runs once per distinct label combination.
    """
    memo = classifier._levels
    out: list[tuple[str, int]] = []
    for cand in candidates:
        key = tuple(
            (name, discretize(value, bins)) for name, value in cand.values.items()
        )
        level = memo.get(key)
        if level is None:
            instance = frozenset(Item(name, str(label)) for name, label in key)
            level = memo[key] = int(predict(classifier, instance))
        out.append((cand.service_id, level))
    return out


def compute_utility(
    normalized: NormalizedQoSVector, level: int, scheme: LevelScheme
) -> float:
    """Level coefficient times the plain average of the normalized values."""
    if not 1 <= level <= scheme.n_levels:
        raise LevelOutOfRange(
            f"level {level} outside 1..{scheme.n_levels} for {normalized.service_id!r}"
        )
    values = list(normalized.values.values())
    return scheme.coefficients[level - 1] * (sum(values) / len(values))


def score_candidates(
    candidates: list[NormalizedQoSVector],
    classifier: Classifier,
    scheme: LevelScheme,
    bins: int,
) -> list[ScoredService]:
    levels = dict(classify_candidates(candidates, classifier, bins))
    return [
        ScoredService(
            c.service_id, c, levels[c.service_id],
            compute_utility(c, levels[c.service_id], scheme),
        )
        for c in candidates
    ]


def filter_eligible(
    scored: list[ScoredService], threshold: float
) -> list[ScoredService]:
    """Keep services whose utility strictly exceeds the threshold, in order."""
    return [s for s in scored if s.utility > threshold]
