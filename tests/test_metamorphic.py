"""Metamorphic properties: input changes that must leave every report's bytes alone.

Reordering a registry's rows changes no value the engine compares, and
multiplying one attribute's values and its requested range by a power of two
changes every raw value but, being exact in binary floating point, no scaled
value, label, utility or score.
"""

import json
import random
from dataclasses import replace as dc_replace

from hypothesis import given, settings, strategies as st

from qoscompose import (
    Registry, RegistryRecord, UserRequest, composite_report, compose_with_graph,
    replace_unavailable,
)
from qoscompose.data_io import default_config, default_request, generate_synthetic
from qoscompose.errors import EngineError


def reports(registry, plan, taxonomy, request, config, failed_at):
    """The compose report's bytes, then the replace report's for the task at
    `failed_at` in the plan order, or the type and text of an engine error."""
    try:
        graph, primary, alternative = compose_with_graph(
            request, plan, registry, taxonomy, config
        )
        compose = json.dumps({
            "primary": composite_report(graph, primary),
            "alternative": None if alternative is None else composite_report(graph, alternative),
        }, indent=2)
    except EngineError as err:
        return ("error", type(err), str(err)), None
    task = graph.order[failed_at % len(graph.order)]
    try:
        replaced = replace_unavailable(
            graph, primary, (task, primary.assignment[task]), taxonomy, registry
        )
        replace = json.dumps(composite_report(graph, replaced), indent=2)
    except EngineError as err:
        return compose, ("error", type(err), str(err))
    return compose, replace


@st.composite
def workloads(draw):
    """A small generated workload, its default request, a threshold and a task to fail."""
    sizes = draw(st.integers(1, 5)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    registry, plan, taxonomy = generate_synthetic(*sizes, draw(st.integers(0, 2**16)))
    config = dc_replace(default_config(), threshold=draw(st.sampled_from([0.0, 0.25])))
    return registry, plan, taxonomy, default_request(registry.schema), config, draw(
        st.integers(0, 4)
    )


@settings(max_examples=60, deadline=None)
@given(workloads(), st.randoms(use_true_random=False))
def test_shuffled_registry_rows_give_byte_identical_reports(workload, rng):
    registry, plan, taxonomy, request, config, failed_at = workload
    records = list(registry.records)
    rng.shuffle(records)
    shuffled = Registry(registry.schema, records)
    want = reports(registry, plan, taxonomy, request, config, failed_at)
    assert reports(shuffled, plan, taxonomy, request, config, failed_at) == want


@settings(max_examples=60, deadline=None)
@given(workloads(), st.integers(0, 3), st.integers(-20, 20))
def test_one_attribute_times_a_power_of_two_gives_byte_identical_reports(workload, which, k):
    registry, plan, taxonomy, request, config, failed_at = workload
    name = registry.schema[which % len(registry.schema)].name
    factor = 2.0**k
    scaled = Registry(registry.schema, [
        RegistryRecord(rec.service_id, rec.task_id,
                       {n: v * factor if n == name else v for n, v in rec.values.items()},
                       rec.inputs, rec.outputs)
        for rec in registry.records
    ])
    lo, hi = request.ranges[name]
    scaled_request = UserRequest(
        {**request.ranges, name: (lo * factor, hi * factor)}, request.preferences
    )
    want = reports(registry, plan, taxonomy, request, config, failed_at)
    assert reports(scaled, plan, taxonomy, scaled_request, config, failed_at) == want


def test_the_properties_meet_composed_and_replaced_workloads():
    """The drawn sizes reach a report on both sides of each property, not only refusals."""
    rng = random.Random(9)
    composed = replaced = 0
    for seed in range(40):
        registry, plan, taxonomy = generate_synthetic(
            rng.randint(1, 5), rng.randint(1, 8), rng.randint(1, 4), seed
        )
        compose, replace = reports(
            registry, plan, taxonomy, default_request(registry.schema),
            dc_replace(default_config(), threshold=0.0), seed,
        )
        composed += isinstance(compose, str)
        replaced += isinstance(replace, str)
    assert composed >= 20 and replaced >= 10, (composed, replaced)
