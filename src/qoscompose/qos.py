"""QoS attribute schema and the scaling phase.

Raw attribute values are mapped onto [0, 1] with a per-attribute min-max
transform so that, afterwards, higher always means better regardless of the
attribute's polarity.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from typing import NamedTuple

from .errors import EmptyCandidateSet, OutOfRangeValue, SchemaMismatch, stage


class Polarity(enum.Enum):
    """Direction of quality: POSITIVE = larger is better, NEGATIVE = smaller is better."""

    POSITIVE = "+"
    NEGATIVE = "-"


class QoSAttribute(NamedTuple):
    name: str
    polarity: Polarity


class QoSVector(NamedTuple):
    """Per-attribute values of one candidate service: raw, or scaled into
    [0, 1] with higher = better."""

    service_id: str
    values: dict[str, float]


# attribute name -> (min, max) observed over one candidate set
AttributeExtremes = dict[str, tuple[float, float]]


def compute_extremes(candidates: Sequence[QoSVector]) -> AttributeExtremes:
    """Per-attribute (min, max) over the given candidate set, in its order.

    A candidate is anything with `service_id` and `values`, such as a
    `RegistryRecord`. The builtin `min` and `max` keep the first of equal
    values and skip a NaN after the first value, so the order decides both.
    A spread wider than a float holds raises OutOfRangeValue naming the
    services at its ends.
    """
    if not candidates:
        raise EmptyCandidateSet("cannot compute extremes of an empty candidate set")
    names = candidates[0].values.keys()
    for cand in candidates:
        if cand.values.keys() != names:
            raise SchemaMismatch(
                f"candidate {cand.service_id!r} does not share the attribute schema"
            )
    extremes: AttributeExtremes = {}
    for name in names:
        column = [c.values[name] for c in candidates]
        lo, hi = extremes[name] = (min(column), max(column))
        if hi - lo == math.inf:
            low, high = (candidates[column.index(end)].service_id for end in (lo, hi))
            # `scale` would divide by it: a scaling refusal, also where the
            # envelope read for training meets it first
            with stage("scaling"):
                raise OutOfRangeValue(
                    f"{name} spreads from {lo!r} of {low!r} to {hi!r} of {high!r}, "
                    "wider than a float holds"
                )
    return extremes


def check_spread(name: str, lo: float, hi: float) -> None:
    """Refuse extremes a caller built whose spread overflows, which `scale`
    would turn into NaN or 0; `compute_extremes` never returns them."""
    if hi - lo == math.inf:
        raise OutOfRangeValue(f"{name} spreads from {lo!r} to {hi!r}, wider than a float holds")


# an enum member read through its class costs about 0.1 µs (Python 3.11), and
# `scale` runs once per registry value
_NEGATIVE = Polarity.NEGATIVE


def scale(value: float, lo: float, hi: float, polarity: Polarity) -> float:
    """Min-max scale one value; a zero spread maps to 1 for either polarity."""
    spread = hi - lo
    if spread == 0:
        return 1.0
    if polarity is _NEGATIVE:
        return (hi - value) / spread
    return (value - lo) / spread


def outside_extremes(
    name: str, value: float, service_id: str, lo: float, hi: float
) -> OutOfRangeValue:
    """The refusal of `service_id`'s `name` value, such as a NaN, outside its (lo, hi)."""
    return OutOfRangeValue(f"{name}={value!r} of {service_id!r} outside extremes ({lo!r}, {hi!r})")


def scale_values(
    candidate: QoSVector, extremes: AttributeExtremes, schema: list[QoSAttribute]
) -> dict[str, float]:
    """Every schema attribute of `candidate` through `scale`, in schema order;
    the first value outside its extremes raises `outside_extremes`."""
    values = candidate.values
    out: dict[str, float] = {}
    for attr in schema:
        name = attr.name
        value = values[name]
        lo, hi = extremes[name]
        if not lo <= value <= hi:
            raise outside_extremes(name, value, candidate.service_id, lo, hi)
        out[name] = scale(value, lo, hi, attr.polarity)
    return out


def normalize(
    candidate: QoSVector,
    extremes: AttributeExtremes,
    schema: list[QoSAttribute],
) -> QoSVector:
    """Scale every attribute of one candidate into [0, 1] with uniform direction.

    Extremes whose spread overflows raise OutOfRangeValue naming the attribute.
    """
    names = {attr.name for attr in schema}
    if set(candidate.values) != names:
        raise SchemaMismatch(
            f"candidate {candidate.service_id!r} does not match the declared schema"
        )
    if not names <= set(extremes):
        raise SchemaMismatch("extremes do not cover the declared schema")
    for attr in schema:
        check_spread(attr.name, *extremes[attr.name])
    return QoSVector(candidate.service_id, scale_values(candidate, extremes, schema))
