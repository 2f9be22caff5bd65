"""QoS attribute schema and the scaling phase.

Raw attribute values are mapped onto [0, 1] with a per-attribute min-max
transform so that, afterwards, higher always means better regardless of the
attribute's polarity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import EmptyCandidateSet, OutOfRangeValue, SchemaMismatch


class Polarity(enum.Enum):
    """Direction of quality: POSITIVE = larger is better, NEGATIVE = smaller is better."""

    POSITIVE = "+"
    NEGATIVE = "-"


@dataclass(frozen=True)
class QoSAttribute:
    name: str
    polarity: Polarity


@dataclass
class QoSVector:
    """Raw per-attribute values of one candidate service."""

    service_id: str
    values: dict[str, float]


@dataclass
class NormalizedQoSVector:
    """Scaled per-attribute values, each in [0, 1], higher = better."""

    service_id: str
    values: dict[str, float]


# attribute name -> (min, max) observed over one candidate set
AttributeExtremes = dict[str, tuple[float, float]]


def compute_extremes(candidates: list[QoSVector]) -> AttributeExtremes:
    """Per-attribute (min, max) over the given candidate set."""
    if not candidates:
        raise EmptyCandidateSet("cannot compute extremes of an empty candidate set")
    names = list(candidates[0].values)
    schema = set(names)
    for cand in candidates[1:]:
        if set(cand.values) != schema:
            raise SchemaMismatch(
                f"candidate {cand.service_id!r} does not share the attribute schema"
            )
    return {
        name: (
            min(c.values[name] for c in candidates),
            max(c.values[name] for c in candidates),
        )
        for name in names
    }


def scale(value: float, lo: float, hi: float, polarity: Polarity) -> float:
    """Min-max scale one value; a zero spread maps to 1 for either polarity."""
    spread = hi - lo
    if spread == 0:
        return 1.0
    if polarity is Polarity.NEGATIVE:
        return (hi - value) / spread
    return (value - lo) / spread


def normalize(
    candidate: QoSVector,
    extremes: AttributeExtremes,
    schema: list[QoSAttribute],
) -> NormalizedQoSVector:
    """Scale every attribute of one candidate into [0, 1] with uniform direction."""
    names = {attr.name for attr in schema}
    if set(candidate.values) != names:
        raise SchemaMismatch(
            f"candidate {candidate.service_id!r} does not match the declared schema"
        )
    if not names <= set(extremes):
        raise SchemaMismatch("extremes do not cover the declared schema")
    out: dict[str, float] = {}
    for attr in schema:
        value = candidate.values[attr.name]
        lo, hi = extremes[attr.name]
        if not lo <= value <= hi:
            raise OutOfRangeValue(
                f"{attr.name}={value!r} of {candidate.service_id!r} "
                f"outside extremes ({lo!r}, {hi!r})"
            )
        out[attr.name] = scale(value, lo, hi, attr.polarity)
    return NormalizedQoSVector(candidate.service_id, out)
