"""The registry's leveling bases against two earlier routes, bit for bit.

The oldest route copied every record into a `QoSVector`, took
`compute_extremes` over all of them for the envelope and over each task's for
its scaling, ran `normalize` on every candidate and kept the scaled vectors,
then walked each task's vectors for its level codes and means. The row route
after it walked each record through `scale_values` once, for one
(service id, code, mean) row a candidate. The engine, `leveling.level_bases`,
walks each task's records through `scale_values` once as well, but appends
each record's code and mean to three columns: service ids, codes and means.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from qoscompose import (
    Polarity, QoSAttribute, QoSVector, Registry, RegistryRecord, compute_extremes, normalize,
)
from qoscompose.errors import EngineError, OutOfRangeValue, SchemaMismatch
from qoscompose.cba import discretize
from qoscompose.qos import scale_values

NAN = float("nan")


def bits(value):
    """`value` with every float as its IEEE bytes, so NaN and -0.0 compare exactly."""
    if isinstance(value, float):
        return struct.pack(">d", value)
    if isinstance(value, dict):
        return bits(list(value.items()))
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def outcome(compute):
    """What `compute()` returns, in bits, or the type and text of its engine error."""
    try:
        return "ok", bits(compute())
    except EngineError as err:
        return "error", type(err), str(err)


def generator_extremes(candidates):
    """`compute_extremes` as it was written before, with a generator pass per end,
    plus its refusal of a spread wider than a float holds."""
    extremes = {}
    for name in candidates[0].values:
        lo = min(c.values[name] for c in candidates)
        hi = max(c.values[name] for c in candidates)
        if hi - lo == float("inf"):
            # the first candidate holding each end
            low, high = (next(c.service_id for c in candidates if c.values[name] == end)
                         for end in (lo, hi))
            raise OutOfRangeValue(
                f"{name} spreads from {lo!r} of {low!r} to {hi!r} of {high!r}, "
                "wider than a float holds"
            )
        extremes[name] = (lo, hi)
    return extremes


def old_level_basis(candidates, bins):
    """`level_basis` as it was written before, over scaled vectors, with a walk for
    the code and one for the mean; each row mapped to (service id, code, mean)."""
    rows = []
    for cand in candidates:
        code = 0
        for value in cand.values.values():
            code = code * bins + discretize(value, bins)
        total = 0.0
        for value in cand.values.values():
            total += value
        rows.append((cand.service_id, code, total / len(cand.values)))
    return rows


def old_route(registry, bins):
    vectors = [QoSVector(r.service_id, r.values) for r in registry.records]
    envelope = outcome(lambda: compute_extremes(vectors))
    assert envelope == outcome(lambda: generator_extremes(vectors))

    def scaled():
        by_task = {}
        for r in registry.records:
            by_task.setdefault(r.task_id, []).append(QoSVector(r.service_id, r.values))
        return {
            task: [normalize(c, compute_extremes(cands), registry.schema) for c in cands]
            for task, cands in by_task.items()
        }

    def bases():
        return {task: old_level_basis(v, bins) for task, v in scaled().items()}

    # a scaling error is the bases' error, so every NaN and overflow outcome is compared
    return envelope, outcome(bases)


def row_level_basis(candidates, extremes, schema, bins):
    """The row route's `level_basis`: one walk over each candidate's `scale_values`."""
    rows = []
    for cand in candidates:
        code, total = 0, 0.0
        for value in scale_values(cand, extremes, schema).values():
            code = code * bins + discretize(value, bins)
            total += value
        rows.append((cand.service_id, code, total / len(schema)))
    return rows


def row_route(registry, bins):
    """The row route's `Registry.level_bases`, one sweep in record order."""
    names = {attr.name for attr in registry.schema}
    by_task = {}
    for rec in registry.records:
        if rec.values.keys() != names:
            raise SchemaMismatch(
                f"candidate {rec.service_id!r} does not match the declared schema"
            )
        by_task.setdefault(rec.task_id, []).append(rec)
    return {
        task: row_level_basis(recs, compute_extremes(recs), registry.schema, bins)
        for task, recs in by_task.items()
    }


def new_route(registry, bins):
    """The envelope and the engine's row walk, each task's three columns read back
    as rows, checked against the row route's rows on the way."""
    def rows():
        return {task: list(zip(*basis)) for task, basis in registry.level_bases(bins).items()}

    got = outcome(lambda: registry.envelope), outcome(rows)
    assert got[1] == outcome(lambda: row_route(registry, bins))
    return got


# ties, signed zeros, both float ends (whose spread overflows to inf, which
# both routes refuse) and NaN; few values, so zero-spread columns and one-value
# tasks are common
VALUES = [0.0, -0.0, 1.0, 2.5, 2.5, -3.0, 1e-300, 1.7e308, -1.7e308, NAN]


@st.composite
def registries(draw):
    n_attrs = draw(st.integers(1, 4))
    schema = [
        QoSAttribute(f"a{i}", draw(st.sampled_from(list(Polarity)))) for i in range(n_attrs)
    ]
    names = [attr.name for attr in schema]
    tasks = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    records = []
    for i in range(draw(st.integers(1, 12))):
        # each record's values in its own key order, tasks interleaved
        order = draw(st.permutations(names))
        values = {name: draw(st.sampled_from(VALUES)) for name in order}
        records.append(RegistryRecord(f"s{i}", draw(st.sampled_from(tasks)), values, (), ()))
    return Registry(schema, records)


@settings(max_examples=400, deadline=None)
@given(registries(), st.integers(2, 5))
def test_sweep_equals_the_old_route_bit_for_bit(registry, bins):
    assert new_route(registry, bins) == old_route(registry, bins)


def test_envelope_keeps_record_order_with_a_nan():
    """A min of per-task minima would read 5.0 here."""
    schema = [QoSAttribute("a", Polarity.POSITIVE)]
    records = [
        RegistryRecord("s1", "t1", {"a": 5.0}, (), ()),
        RegistryRecord("s2", "t2", {"a": NAN}, (), ()),
        RegistryRecord("s3", "t2", {"a": 1.0}, (), ()),
    ]
    registry = Registry(schema, records)
    assert registry.envelope == {"a": (1.0, 5.0)}
    assert new_route(registry, 4) == old_route(Registry(schema, records), 4)


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("polarity", list(Polarity))
def test_a_nan_anywhere_in_a_task_fails_its_scaling_as_before(position, polarity):
    schema = [QoSAttribute("b", polarity), QoSAttribute("a", polarity)]
    column = [3.0, 1.0, 2.0]
    column[position] = NAN
    records = [RegistryRecord("s0", "t0", {"a": 7.0, "b": 7.0}, (), ())] + [
        RegistryRecord(f"s{i + 1}", "t1", {"a": value, "b": 1.0}, (), ())
        for i, value in enumerate(column)
    ]
    registry = Registry(schema, records)
    got = new_route(registry, 4)
    assert got == old_route(Registry(schema, records), 4)
    assert got[1][:2] == ("error", OutOfRangeValue)
    # the NaN is not the registry's first value, so the envelope skips it
    assert registry.envelope["a"] == (min(v for v in column if v == v), 7.0)


def test_an_out_of_range_value_names_the_first_record_then_the_first_attribute():
    """s1 holds a NaN in the second attribute and s2 in the first: the first
    column scaled meets s2's, yet the error names s1, as the row walk did."""
    schema = [QoSAttribute("a", Polarity.POSITIVE), QoSAttribute("b", Polarity.NEGATIVE)]
    records = [
        RegistryRecord("s0", "t", {"a": 1.0, "b": 2.0}, (), ()),
        RegistryRecord("s1", "t", {"a": 3.0, "b": NAN}, (), ()),
        RegistryRecord("s2", "t", {"a": NAN, "b": 4.0}, (), ()),
    ]
    registry = Registry(schema, records)
    got = new_route(registry, 4)
    assert got == old_route(Registry(schema, records), 4)
    assert got[1] == ("error", OutOfRangeValue, "b=nan of 's1' outside extremes (2.0, 4.0)")
