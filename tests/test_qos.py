"""Scaling behavior: extremes, polarity-aware min-max, degenerate spreads."""

import pytest
from hypothesis import given, strategies as st

from qoscompose import (
    Polarity,
    QoSAttribute,
    QoSVector,
    compute_extremes,
    normalize,
    scale,
)
from qoscompose.errors import EmptyCandidateSet, OutOfRangeValue, SchemaMismatch

SCHEMA = [
    QoSAttribute("response_time", Polarity.NEGATIVE),
    QoSAttribute("availability", Polarity.POSITIVE),
]


def vec(sid, rt, av):
    return QoSVector(sid, {"response_time": rt, "availability": av})


def test_compute_extremes_per_attribute():
    ext = compute_extremes([vec("a", 100.0, 90.0), vec("b", 300.0, 70.0)])
    assert ext == {"response_time": (100.0, 300.0), "availability": (70.0, 90.0)}


def test_compute_extremes_rejects_empty():
    with pytest.raises(EmptyCandidateSet):
        compute_extremes([])


def test_compute_extremes_rejects_mixed_schema():
    with pytest.raises(SchemaMismatch):
        compute_extremes([vec("a", 1.0, 2.0), QoSVector("b", {"availability": 2.0})])


def test_normalize_flips_negative_attributes():
    cands = [vec("a", 100.0, 70.0), vec("b", 300.0, 90.0), vec("c", 150.0, 80.0)]
    ext = compute_extremes(cands)
    na = normalize(cands[0], ext, SCHEMA)
    nb = normalize(cands[1], ext, SCHEMA)
    nc = normalize(cands[2], ext, SCHEMA)
    # fastest response scores 1, slowest 0; availability runs the other way
    assert na.values == {"response_time": 1.0, "availability": 0.0}
    assert nb.values == {"response_time": 0.0, "availability": 1.0}
    assert nc.values["response_time"] == (300.0 - 150.0) / 200.0
    assert nc.values["availability"] == 0.5


def test_zero_spread_maps_to_one_for_both_polarities():
    assert scale(42.0, 42.0, 42.0, Polarity.NEGATIVE) == 1.0
    assert scale(42.0, 42.0, 42.0, Polarity.POSITIVE) == 1.0
    cands = [vec("a", 100.0, 90.0), vec("b", 100.0, 90.0)]
    ext = compute_extremes(cands)
    out = normalize(cands[0], ext, SCHEMA)
    assert out.values == {"response_time": 1.0, "availability": 1.0}


def test_normalize_rejects_value_outside_extremes():
    ext = {"response_time": (100.0, 300.0), "availability": (70.0, 90.0)}
    with pytest.raises(OutOfRangeValue):
        normalize(vec("a", 99.0, 80.0), ext, SCHEMA)


def test_normalize_rejects_schema_mismatch():
    ext = {"response_time": (100.0, 300.0), "availability": (70.0, 90.0)}
    with pytest.raises(SchemaMismatch):
        normalize(QoSVector("a", {"response_time": 150.0}), ext, SCHEMA)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_normalized_values_stay_in_unit_interval(rows):
    cands = [vec(f"s{i}", rt, av) for i, (rt, av) in enumerate(rows)]
    ext = compute_extremes(cands)
    for cand in cands:
        out = normalize(cand, ext, SCHEMA)
        for value in out.values.values():
            assert 0.0 <= value <= 1.0
