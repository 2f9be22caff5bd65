"""Metamorphic properties: input changes that must leave every report's bytes alone.

Reordering a registry's rows changes no value the engine compares, and
multiplying one attribute's values and its requested range by a power of two
changes every raw value but, being exact in binary floating point, no scaled
value, label, utility or score. Renaming every service id and concept through a
map that keeps their sort order changes every string and its hash, but no
comparison the engine makes, so the reports read back through the inverse map
are the same bytes.
"""

import json
import random
import re
from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings, strategies as st

from qoscompose import (
    CompositionPlan, Polarity, QoSAttribute, Registry, RegistryRecord, Taxonomy, UserRequest,
    composite_report, compose_with_graph, replace_unavailable,
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


def renamed(registry, plan, taxonomy, names):
    """The inputs with each service id and concept `x` replaced by `names[x]`."""
    def concepts(interface):
        return tuple(names[c] for c in interface)

    def pairs(edges):
        return frozenset(concepts(edge) for edge in edges)

    return (
        Registry(registry.schema, [
            RegistryRecord(names[rec.service_id], rec.task_id, rec.values,
                           concepts(rec.inputs), concepts(rec.outputs))
            for rec in registry.records
        ]),
        plan,
        Taxonomy(frozenset(names[c] for c in taxonomy.concepts), pairs(taxonomy.edges),
                 pairs(taxonomy.equivalences), pairs(taxonomy.disjointness)),
    )


@settings(max_examples=60, deadline=None)
@given(workloads(), st.data())
def test_order_keeping_renames_give_the_same_reports_mapped_back(workload, data):
    """Each new name is `<letters>`, so the inverse map finds it in a report's
    JSON text or in a refusal's text alike."""
    registry, plan, taxonomy, request, config, failed_at = workload
    old = sorted({rec.service_id for rec in registry.records} | taxonomy.concepts)
    drawn = data.draw(st.lists(
        st.text("abcd", min_size=1, max_size=6), min_size=len(old), max_size=len(old),
        unique=True,
    ))
    # '<' and '>' sort below every letter, so the wrapped names keep the drawn order
    names = dict(zip(old, (f"<{text}>" for text in sorted(drawn))))
    back = {new: name for name, new in names.items()}

    def read_back(result):
        if isinstance(result, str):
            return re.sub(r"<[a-d]+>", lambda m: back[m.group()], result)
        if result is None:
            return None
        kind, error, text = result
        return kind, error, re.sub(r"<[a-d]+>", lambda m: repr(back[m.group()])[1:-1], text)

    want = reports(registry, plan, taxonomy, request, config, failed_at)
    got = reports(*renamed(registry, plan, taxonomy, names), request, config, failed_at)
    assert tuple(map(read_back, got)) == want


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


def test_a_candidate_worst_on_every_attribute_reverses_its_task_pick():
    """Not a metamorphic property but a pinned counterexample to one: per-task
    min-max scaling makes every scaled value depend on the task's other
    candidates. Adding w, below every candidate on both attributes, stretches
    a's spread from 4 to 5 and b's from 1 to 2, so b's differences count for
    relatively less and s2 overtakes s1. Every value meets the request, so each
    candidate is level 1 and its utility is its mean scaled value; w scales to
    0 on both attributes and is filtered out, yet the pick changes."""
    schema = [QoSAttribute("a", Polarity.POSITIVE), QoSAttribute("b", Polarity.POSITIVE)]
    plan = CompositionPlan(frozenset(["t"]), frozenset())
    taxonomy = Taxonomy(frozenset(["A"]))
    request = UserRequest({"a": (-100.0, 100.0), "b": (-100.0, 100.0)}, {"a": 1, "b": 2})
    values = {"s0": (0.0, 1.0), "s1": (1.0, 1.0), "s2": (4.0, 0.0)}

    def pick(values):
        registry = Registry(schema, [
            RegistryRecord(sid, "t", {"a": a, "b": b}, (), ("A",))
            for sid, (a, b) in values.items()
        ])
        _, primary, _ = compose_with_graph(request, plan, registry, taxonomy, default_config())
        return primary.assignment["t"], primary.final_utilities["t"]

    # before: s0 (0, 1), s1 (0.25, 1), s2 (1, 0): means 0.5, 0.625, 0.5
    assert pick(values) == ("s1", 0.625)
    # after: s0 (0.2, 1), s1 (0.4, 1), s2 (1, 0.5): means 0.6, 0.7, 0.75
    assert pick({**values, "w": (-1.0, -1.0)}) == ("s2", pytest.approx(0.75))
