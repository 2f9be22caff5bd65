"""Greedy selection, one-swap alternative, and replacement against the naive reference."""

import gc
import itertools
import math
import pathlib
import random
import re
import weakref
from dataclasses import FrozenInstanceError, fields, replace as dc_replace

import pytest

from qoscompose import (
    CompositionPlan,
    LevelScheme,
    Polarity,
    QoSAttribute,
    QoSVector,
    Registry,
    RegistryRecord,
    ScoredService,
    Taxonomy,
    UserRequest,
    build_search_graph,
    compose_with_graph,
    composite_report,
    first_alternative,
    load_config,
    load_plan,
    load_registry,
    load_taxonomy,
    rank_candidates,
    replace_unavailable,
)
from qoscompose import composer, leveling
from qoscompose.cba import (
    ClassAssociationRule, Classifier, Item, MiningConfig, discretize, predict, train_classifier,
)
from qoscompose.data_io import default_config, default_request, generate_synthetic
from qoscompose.leveling import (
    _training_rows, filter_eligible, score_candidates, synthesize_training_set,
)
from qoscompose.qos import QoSVector, compute_extremes, normalize
from qoscompose.errors import (
    CycleDetected,
    InvalidValue,
    NoAdmissibleLink,
    NoAlternative,
    NoEligibleCandidate,
    LevelOutOfRange,
    NoReplacementCandidate,
    NotSelectedService,
    OutOfRangeValue,
    UnknownAttribute,
    UnknownConcept,
    UnknownTask,
)
from reference import (
    RefInstance,
    RefTaxonomy,
    engine_inputs,
    engine_outcome,
    random_instance,
    ref_first_alternative,
    ref_link,
    ref_replace,
    ref_select,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# B is a subclass of A; C stands alone
TAX = Taxonomy(frozenset(["A", "B", "C"]), frozenset([("B", "A")]))


def build(tasks, edges, cands, interfaces, taxonomy=TAX):
    """cands: task -> [(sid, utility)]; interfaces: sid -> (inputs, outputs)."""
    return build_with_registry(tasks, edges, cands, interfaces, taxonomy)[:2]


def build_with_registry(tasks, edges, cands, interfaces, taxonomy=TAX):
    """`build`'s graph and composite, plus the registry the graph was built from."""
    plan = CompositionPlan(frozenset(tasks), frozenset(edges))
    eligible = {
        t: [ScoredService(s, 1, u) for s, u in rows]
        for t, rows in cands.items()
    }
    records = [
        RegistryRecord(sid, task, {}, tuple(ins), tuple(outs))
        for task, rows in cands.items()
        for sid, _ in rows
        for ins, outs in [interfaces[sid]]
    ]
    registry = Registry([], records)
    return (*build_search_graph(plan, eligible, taxonomy, registry), registry)


def test_single_task_picks_highest_utility():
    graph, composite = build(
        ["t1"],
        [],
        {"t1": [("s_low", 0.4), ("s_high", 0.9)]},
        {"s_low": ([], ["A"]), "s_high": ([], ["A"])},
    )
    assert composite.assignment == {"t1": "s_high"}
    assert composite.final_utilities["t1"] == 0.9
    assert composite.link_qualities["t1"] == 1.0


def test_equal_final_utilities_rank_in_service_id_order_on_every_path():
    # t1 is a source task, t2 has the single predecessor t1; candidates come
    # in reverse id order, and equal F arises from unequal U and q too
    graph, composite = build(
        ["t1", "t2"],
        [("t1", "t2")],
        {
            "t1": [("s_c", 0.5), ("s_a", 0.5), ("s_b", 0.5)],
            "t2": [("u_d", 0.4), ("u_c", 0.8), ("u_b", 0.4), ("u_a", 0.8)],
        },
        {
            "s_a": ([], ["A"]), "s_b": ([], ["A"]), "s_c": ([], ["A"]),
            # Exact links (q 1) for u_b, u_d; Subsume links (q 0.5) for u_a, u_c
            "u_a": (["B"], []), "u_b": (["A"], []),
            "u_c": (["B"], []), "u_d": (["A"], []),
        },
    )
    assert [e.service_id for e in graph.queues["t1"]] == ["s_a", "s_b", "s_c"]
    queue = graph.queues["t2"]
    assert [e.service_id for e in queue] == ["u_a", "u_b", "u_c", "u_d"]
    assert {e.final_utility for e in queue} == {0.4}
    assert [e.link_quality for e in queue] == [0.5, 1.0, 0.5, 1.0]
    assert composite.assignment == {"t1": "s_a", "t2": "u_a"}


def test_exact_link_beats_higher_utility_over_subsume():
    graph, composite = build(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("up", 0.9)], "t2": [("exact", 0.8), ("sub", 0.9)]},
        {"up": ([], ["A"]), "exact": (["A"], []), "sub": (["B"], [])},
    )
    # F: 0.8 * 1.0 = 0.8 versus 0.9 * 0.5 = 0.45
    assert composite.assignment["t2"] == "exact"
    assert composite.final_utilities["t2"] == 0.8
    queue = graph.queues["t2"]
    assert [(e.service_id, e.final_utility) for e in queue] == [
        ("exact", 0.8),
        ("sub", 0.9 * 0.5),
    ]


def test_queue_head_dominates_and_ties_break_by_id():
    graph, composite = build(
        ["t1"],
        [],
        {"t1": [("s_b", 0.7), ("s_a", 0.7)]},
        {"s_b": ([], ["A"]), "s_a": ([], ["A"])},
    )
    assert composite.assignment["t1"] == "s_a"
    for task, queue in graph.queues.items():
        head = queue[0]
        assert all(head.final_utility >= e.final_utility for e in queue)


def test_multi_predecessor_quality_is_the_mean():
    graph, composite = build(
        ["a", "b", "c"],
        [("a", "c"), ("b", "c")],
        {"a": [("sa", 0.9)], "b": [("sb", 0.8)], "c": [("sc", 1.0)]},
        {"sa": ([], ["A"]), "sb": ([], ["B"]), "sc": (["A"], [])},
    )
    # a->c is Exact (1.0), b->c is PlugIn (0.75)
    assert composite.link_qualities["c"] == (1.0 + 0.75) / 2
    assert composite.final_utilities["c"] == 1.0 * ((1.0 + 0.75) / 2)


def test_a_three_predecessor_mean_adds_left_to_right():
    # X1..X8 and Y sit under R and share the subclass Z, so Xi->Y is an
    # Intersection (0.25) and R->Y a Subsume (0.5)
    xs = [f"X{i}" for i in range(1, 9)]
    taxonomy = Taxonomy(
        frozenset([*xs, "R", "Y", "Z"]),
        frozenset([(x, "R") for x in xs] + [("Y", "R")] + [("Z", c) for c in [*xs, "Y"]]),
    )
    graph, composite, registry = build_with_registry(
        ["p1", "p2", "p3", "t"],
        [("p1", "t"), ("p2", "t"), ("p3", "t")],
        {
            "p1": [("s1", 1.0)], "p2": [("s2", 1.0)], "p3": [("s3", 1.0)],
            "t": [("ta", 1.0), ("tb", 0.9)],
        },
        {
            "s1": ([], xs[:1]),
            "s2": ([], [*xs[:5], "R"]),
            "s3": ([], [*xs, "R"]),
            "ta": (["Y"], []),
            "tb": (["Y"], []),
        },
        taxonomy,
    )
    a, b, c = 0.25, 7 / 24, 5 / 18
    assert taxonomy.links[tuple(xs[:1])][("Y",)] == a
    assert taxonomy.links[(*xs[:5], "R")][("Y",)] == b
    assert taxonomy.links[(*xs, "R")][("Y",)] == c
    # a compensated sum (Python 3.12+ sum()) rounds this mean differently
    expected = ((a + b) + c) / 3
    assert expected != math.fsum([a, b, c]) / 3
    assert composite.link_qualities["t"] == expected
    replaced = replace_unavailable(graph, composite, ("t", "ta"), taxonomy, registry)
    assert replaced.link_qualities["t"] == expected
    assert replaced.final_utilities["t"] == 0.9 * expected


def test_missing_and_empty_candidate_sets_are_rejected():
    with pytest.raises(NoEligibleCandidate):
        build(["t1"], [], {"t1": []}, {})
    with pytest.raises(NoEligibleCandidate):
        build(["t1", "t2"], [("t1", "t2")], {"t1": [("s", 0.5)]}, {"s": ([], ["A"])})


def test_all_disjoint_candidates_raise_no_admissible_link():
    with pytest.raises(NoAdmissibleLink) as exc:
        build(
            ["t1", "t2"],
            [("t1", "t2")],
            {"t1": [("up", 0.9)], "t2": [("down", 0.8)]},
            {"up": ([], ["A"]), "down": (["C"], [])},
        )
    assert exc.value.task == "t2"


def test_candidate_without_inputs_is_inadmissible_downstream():
    graph, composite = build(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("up", 0.9)], "t2": [("no_in", 0.99), ("ok", 0.5)]},
        {"up": ([], ["A"]), "no_in": ([], []), "ok": (["A"], [])},
    )
    assert composite.assignment["t2"] == "ok"
    assert [e.service_id for e in graph.queues["t2"]] == ["ok"]


@pytest.mark.parametrize("order", list(itertools.permutations("abc")))
@pytest.mark.parametrize("downstream", [False, True], ids=["source", "downstream"])
def test_a_nan_utility_is_refused_naming_its_task_and_service(order, downstream):
    utilities = {"a": 0.5, "b": float("nan"), "c": 0.7}
    cands = {"t2": [(sid, utilities[sid]) for sid in order]}
    interfaces = {sid: (["A"], []) for sid in "abc"}
    edges = []
    if downstream:
        cands["t1"] = [("up", 0.9)]
        interfaces["up"] = ([], ["A"])
        edges = [("t1", "t2")]
    with pytest.raises(InvalidValue, match="task 't2': service 'b' has a NaN utility") as exc:
        build(list(cands), edges, cands, interfaces)
    assert exc.value.exit_code == 18


def test_score_is_the_product_of_final_utilities():
    graph, composite = build(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("up", 0.9)], "t2": [("down", 0.8)]},
        {"up": ([], ["A"]), "down": (["A"], [])},
    )
    assert composite.score == 1.0 * 0.9 * 0.8


def test_alternative_requires_a_second_entry():
    graph, composite = build(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("up", 0.9)], "t2": [("down", 0.8)]},
        {"up": ([], ["A"]), "down": (["A"], [])},
    )
    with pytest.raises(NoAlternative):
        first_alternative(graph, composite)


def test_alternative_swaps_the_smaller_drop():
    graph, composite = build(
        ["t1", "t2", "t3"],
        [],
        {
            "t1": [("x1", 0.9), ("x2", 0.8)],
            "t2": [("y1", 0.9), ("y2", 0.6)],
            "t3": [("z1", 0.5)],
        },
        {s: ([], ["A"]) for s in ["x1", "x2", "y1", "y2", "z1"]},
    )
    alt = first_alternative(graph, composite)
    assert alt.assignment == {"t1": "x2", "t2": "y1", "t3": "z1"}
    assert alt.score == 1.0 * 0.8 * 0.9 * 0.5


def test_alternative_reevaluates_downstream_links():
    graph, composite = build(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("a1", 0.9), ("a2", 0.85)], "t2": [("b1", 1.0)]},
        {"a1": ([], ["A"]), "a2": ([], ["B"]), "b1": (["B"], [])},
    )
    # primary: a1 with a Subsume link into b1 (F 0.5); swapping to a2 turns the
    # link Exact, so the variant scores 0.85 * 1.0 despite the utility drop
    assert composite.assignment["t1"] == "a1"
    assert composite.final_utilities["t2"] == 0.5
    alt = first_alternative(graph, composite)
    assert alt.assignment == {"t1": "a2", "t2": "b1"}
    assert alt.final_utilities["t2"] == 1.0
    assert alt.link_qualities["t2"] == 1.0
    assert alt.score == 0.85 * 1.0


def test_replacement_averages_both_sides():
    graph, composite, registry = build_with_registry(
        ["t1", "t2", "t3"],
        [("t1", "t2"), ("t2", "t3")],
        {
            "t1": [("p", 0.9)],
            "t2": [("m1", 0.9), ("m2", 0.8)],
            "t3": [("n", 0.7)],
        },
        {
            "p": ([], ["A"]),
            "m1": (["A"], ["A"]),
            "m2": (["A"], ["B"]),
            "n": (["B"], []),
        },
    )
    assert composite.assignment["t2"] == "m1"
    replaced = replace_unavailable(graph, composite, ("t2", "m1"), TAX, registry)
    # prev side p->m2 is Exact (1.0), next side m2->n is Exact via B (1.0)
    assert replaced.assignment == {"t1": "p", "t2": "m2", "t3": "n"}
    assert replaced.link_qualities["t2"] == (1.0 + 1.0) / 2
    assert replaced.final_utilities["t2"] == 0.8 * 1.0
    # untouched selections keep their stored utilities
    assert replaced.final_utilities["t1"] == composite.final_utilities["t1"]
    assert replaced.final_utilities["t3"] == composite.final_utilities["t3"]


def test_replacement_at_source_uses_next_side_only():
    graph, composite, registry = build_with_registry(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("p1", 0.9), ("p2", 0.6)], "t2": [("d", 0.8)]},
        {"p1": ([], ["A"]), "p2": ([], ["B"]), "d": (["B"], [])},
    )
    replaced = replace_unavailable(graph, composite, ("t1", "p1"), TAX, registry)
    assert replaced.assignment["t1"] == "p2"
    assert replaced.link_qualities["t1"] == 1.0  # p2->d is Exact
    assert replaced.final_utilities["t1"] == 0.6


def test_replacement_guards():
    graph, composite, registry = build_with_registry(
        ["t1"],
        [],
        {"t1": [("only", 0.9)]},
        {"only": ([], ["A"])},
    )
    with pytest.raises(NotSelectedService):
        replace_unavailable(graph, composite, ("t1", "ghost"), TAX, registry)
    with pytest.raises(UnknownTask):
        replace_unavailable(graph, composite, ("t9", "only"), TAX, registry)
    with pytest.raises(NoReplacementCandidate):
        replace_unavailable(graph, composite, ("t1", "only"), TAX, registry)


def test_replacement_refuses_inputs_the_graph_was_not_built_from():
    graph, composite, registry = build_with_registry(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("p1", 0.9), ("p2", 0.6)], "t2": [("d", 0.8)]},
        {"p1": ([], ["A"]), "p2": ([], ["B"]), "d": (["B"], [])},
    )
    # equal to the graph's own, but other objects: their memos could disagree
    twin_taxonomy = dc_replace(TAX)
    twin_registry = Registry(registry.schema, list(registry.records))
    assert twin_taxonomy == TAX and twin_registry == registry
    for taxonomy, given, name in [
        (twin_taxonomy, registry, "taxonomy"), (TAX, twin_registry, "registry"),
    ]:
        with pytest.raises(InvalidValue, match=f"the {name} is not the one") as exc:
            replace_unavailable(graph, composite, ("t1", "p1"), taxonomy, given)
        assert exc.value.exit_code == 18
    assert "queues" not in vars(graph)
    replaced = replace_unavailable(graph, composite, ("t1", "p1"), TAX, registry)
    assert replaced.assignment["t1"] == "p2"


def test_topological_order_is_lexicographic_kahn():
    tasks = frozenset(["b", "a", "c", "d"])
    edges = frozenset([("a", "d"), ("b", "d")])
    assert CompositionPlan(tasks, edges).order == ["a", "b", "c", "d"]
    with pytest.raises(CycleDetected):
        CompositionPlan(frozenset(["a", "b"]), frozenset([("a", "b"), ("b", "a")]))
    # the order leaves out the cycle and what follows it, and the refusal names both
    cyclic = frozenset([("a", "b"), ("b", "a"), ("b", "c"), ("d", "a")])
    with pytest.raises(CycleDetected, match=re.escape("through ['a', 'b', 'c']")):
        CompositionPlan(frozenset("abcd"), cyclic)


def test_plan_rejects_foreign_edge_endpoints():
    with pytest.raises(UnknownTask):
        CompositionPlan(frozenset(["a"]), frozenset([("a", "b")]))
    with pytest.raises(UnknownTask):
        CompositionPlan(frozenset(["b"]), frozenset([("a", "b")]))


def test_plan_keeps_its_structure_outside_its_fields():
    edges = frozenset([("a", "c"), ("b", "c"), ("c", "d")])
    plan = CompositionPlan(frozenset("abcd"), edges)
    assert plan.order == ["a", "b", "c", "d"]
    assert plan.preds == {"a": [], "b": [], "c": ["a", "b"], "d": ["c"]}
    assert plan.succs == {"a": ["c"], "b": ["c"], "c": ["d"], "d": []}
    assert [f.name for f in fields(plan)] == ["tasks", "edges"]
    twin = CompositionPlan(frozenset("abcd"), edges)
    assert plan == twin and repr(plan) == repr(twin)
    assert "order" not in repr(plan)
    with pytest.raises(FrozenInstanceError):
        plan.order = []
    # selection reads the plan's structure instead of deriving its own
    plan, registry, taxonomy, config, requests = fixture_inputs()
    graph, _, _ = compose_with_graph(requests[0], plan, registry, taxonomy, config)
    assert graph.order is plan.order
    assert graph.preds is plan.preds and graph.succs is plan.succs


def engine_graph(inst):
    """`build_search_graph` over `engine_inputs`, plus the taxonomy and registry
    that replacement must be given with it."""
    plan, eligible, taxonomy, registry = engine_inputs(inst)
    return (*build_search_graph(plan, eligible, taxonomy, registry), taxonomy, registry)


def outcome_views(inst):
    """Run engine and reference; normalize both to comparable tuples."""
    engine, engine_err = engine_outcome(inst)
    ref = ref_select(inst)
    return engine, engine_err, ref


def test_selection_matches_reference_on_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        inst = random_instance(rng)
        engine, engine_err, ref = outcome_views(inst)
        if ref.error:
            assert engine is None, inst
            assert engine_err == (ref.error, ref.error_task), inst
            continue
        assert engine_err is None, inst
        graph, composite = engine
        assert composite.assignment == ref.assignment, inst
        assert composite.final_utilities == ref.finals, inst
        assert composite.score == ref.score, inst
        for task, queue in graph.queues.items():
            ref_rows = [
                (e.service_id, e.utility, e.final_utility, e.link_quality)
                for e in queue
            ]
            assert ref_rows == ref.queues[task], (inst, task)


def test_heads_are_the_first_two_entries_of_the_queues_built_on_first_read():
    """The one-pass head and runner-up against the sorted queues, on instances
    with ties, shared input interfaces, inadmissible links, one-entry queues
    and two-predecessor tasks; the queues against the reference's."""
    rng = random.Random(1313)
    seen = dict.fromkeys(["tied", "shared", "inadmissible", "one_entry", "two_preds"], 0)
    for trial in range(400):
        inst = shared_interface_instance(rng) if trial % 2 else random_instance(rng)
        for rows in inst.candidates.values():
            rng.shuffle(rows)  # so a tie is also met by a lower id coming later
        ref = ref_select(inst)
        if ref.error:
            continue
        graph, composite, _, _ = engine_graph(inst)
        heads = {task: list(entries) for task, entries in graph.heads.items()}
        assert "queues" not in vars(graph)
        for task, queue in graph.queues.items():
            assert heads[task] == queue[:2], (inst, task)
            assert composite.assignment[task] == queue[0].service_id
            rows = [(e.service_id, e.utility, e.final_utility, e.link_quality) for e in queue]
            assert rows == ref.queues[task], (inst, task)
            by_utility = sorted(queue, key=lambda e: (-e.utility, e.service_id))
            index = graph.by_utility(task)
            assert list(index.items()) == [(e.service_id, e.utility) for e in by_utility]
            finals = [e.final_utility for e in queue[:3]]  # a tie the heads meet
            inputs = [inst.interfaces[e.service_id][0] for e in queue]
            seen["tied"] += len(set(finals)) < len(finals)
            seen["shared"] += len(set(inputs)) < len(inputs)
            seen["inadmissible"] += len(queue) < len(inst.candidates[task])
            seen["one_entry"] += len(queue) == 1
            seen["two_preds"] += len(graph.preds[task]) == 2
    assert min(seen.values()) >= 40, seen


def assert_alternative_links(graph, primary, alt):
    """Link qualities: the second entry's at the swapped task, the mean of each
    incoming link's quality in `taxonomy.links` at each successor, the primary's
    elsewhere; every F is U times its q."""
    [swapped] = [t for t in graph.order if alt.assignment[t] != primary.assignment[t]]
    services = graph.services
    for task in graph.order:
        if task == swapped:
            want = graph.queues[task][1].link_quality
        elif task in graph.succs[swapped]:
            inputs = services[alt.assignment[task]].inputs
            qualities = [
                graph.taxonomy.links[services[alt.assignment[pred]].outputs][inputs]
                for pred in graph.preds[task]
            ]
            want = sum(qualities) / len(qualities)
        else:
            want = primary.link_qualities[task]
        assert alt.link_qualities[task] == want, task
        utility = graph.by_utility(task)[alt.assignment[task]]
        assert alt.final_utilities[task] == utility * want, task
    assert alt.link_qualities.keys() == primary.link_qualities.keys()


def check_alternative_against_reference(inst):
    """None when the reference fails selection, else whether an alternative exists."""
    engine, _, ref = outcome_views(inst)
    if ref.error:
        return None
    graph, composite = engine
    ref_alt = ref_first_alternative(inst, ref)
    try:
        alt = first_alternative(graph, composite)
    except NoAlternative:
        assert ref_alt.error == "no-alternative", inst
        return False
    assert ref_alt.error is None, inst
    assert alt.assignment == ref_alt.assignment, inst
    assert alt.final_utilities == ref_alt.finals, inst
    assert alt.score == ref_alt.score, inst
    assert_alternative_links(graph, composite, alt)
    return True


def test_alternative_matches_exhaustive_one_swap_reference():
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        if check_alternative_against_reference(random_instance(rng)) is not None:
            checked += 1


def variant_scores(inst, ref):
    """Each swappable task's one-swap variant score per the reference.

    None marks a variant that breaks a semantic link.
    """
    scores = {}
    for task, queue in ref.queues.items():
        if len(queue) < 2:
            continue
        # with every other queue cut to its head, the reference has one variant
        heads = {t: q if t == task else q[:1] for t, q in ref.queues.items()}
        variant = ref_first_alternative(inst, dc_replace(ref, queues=heads))
        scores[task] = None if variant.error else variant.score
    return scores


def test_alternative_matches_the_reference_on_tie_heavy_instances():
    """Equal utilities and two interfaces per instance make equal variant
    scores, so task order breaks ties; a disjoint interface pair makes
    infeasible variants."""
    rng = random.Random(4242)
    tied = infeasible = found = 0
    for _ in range(500):
        inst = random_instance(rng, max_tasks=6, max_cands=4)
        level = rng.choice([0.5, 0.25])
        profiles = [rng.choice(sorted(inst.interfaces.values())) for _ in range(2)]
        for task, rows in inst.candidates.items():
            inst.candidates[task] = [(sid, level) for sid, _ in rows]
            for sid, _ in rows:
                inst.interfaces[sid] = rng.choice(profiles)
        found += bool(check_alternative_against_reference(inst))
        ref = ref_select(inst)
        if ref.error:
            continue
        scores = list(variant_scores(inst, ref).values())
        feasible = [s for s in scores if s is not None]
        infeasible += len(feasible) < len(scores)
        tied += bool(feasible) and feasible.count(max(feasible)) >= 2
    assert found >= 100 and tied >= 20 and infeasible >= 10, (found, tied, infeasible)


def test_replacement_matches_reference():
    rng = random.Random(309)
    checked = 0
    while checked < 40:
        inst = random_instance(rng)
        ref = ref_select(inst)
        if ref.error:
            continue
        graph, composite, taxonomy, registry = engine_graph(inst)
        task = rng.choice(sorted(composite.assignment))
        failed = composite.assignment[task]
        ref_new = ref_replace(inst, ref, task, failed)
        try:
            new = replace_unavailable(graph, composite, (task, failed), taxonomy, registry)
        except NoReplacementCandidate:
            assert ref_new.error == "no-replacement", inst
            checked += 1
            continue
        assert ref_new.error is None, inst
        assert new.assignment == ref_new.assignment, (inst, task)
        assert new.final_utilities == ref_new.finals, (inst, task)
        assert new.score == ref_new.score, (inst, task)
        assert new.assignment[task] != failed
        changed = {
            t for t in composite.assignment if new.assignment[t] != composite.assignment[t]
        }
        assert changed == {task}, (inst, task)
        checked += 1


def test_a_second_replacement_skips_what_the_patched_predecessor_cannot_feed():
    # B and C are disjoint subclasses of A; m2 entered t2's queue behind p1's
    # B output, and p2's C output cannot feed it
    inst = RefInstance(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("p1", 0.9), ("p2", 0.6)], "t2": [("m1", 1.0), ("m2", 0.7), ("m3", 0.5)]},
        {
            "p1": ((), ("B",)), "p2": ((), ("C",)),
            "m1": (("A",), ()), "m2": (("B",), ()), "m3": (("A",), ()),
        },
        RefTaxonomy({"A", "B", "C"}, {("B", "A"), ("C", "A")}, set(), {("B", "C")}),
    )
    ref = ref_select(inst)
    graph, composite, taxonomy, registry = engine_graph(inst)
    assert [e.service_id for e in graph.queues["t2"]] == ["m1", "m2", "m3"]
    once = replace_unavailable(graph, composite, ("t1", "p1"), taxonomy, registry)
    ref_once = ref_replace(inst, ref, "t1", "p1")
    assert once.assignment == ref_once.assignment == {"t1": "p2", "t2": "m1"}
    patched = dc_replace(ref, assignment=ref_once.assignment, finals=ref_once.finals)
    twice = replace_unavailable(graph, once, ("t2", "m1"), taxonomy, registry)
    ref_twice = ref_replace(inst, patched, "t2", "m1")
    assert twice.assignment == ref_twice.assignment == {"t1": "p2", "t2": "m3"}
    assert twice.final_utilities == ref_twice.finals
    assert twice.score == ref_twice.score


def shared_interface_instance(rng):
    """A random DAG of 5 to 7 tasks in which t02 has two predecessors and at
    least two successors. Each task holds 6 to 16 candidates that draw their interface
    from four profiles and their utility from three values, so many
    candidates share an interface and rescored finals tie."""
    inst = random_instance(rng, max_tasks=7, max_cands=3)
    tasks = [f"t{i:02d}" for i in range(rng.randint(5, 7))]
    edges = {("t00", "t02"), ("t01", "t02"), ("t02", "t03"), ("t02", "t04")}
    for i in range(3, len(tasks)):
        for j in rng.sample(range(i), rng.randint(1, 2)):
            edges.add((tasks[j], tasks[i]))
    pool = sorted(set(inst.interfaces.values()))
    profiles = [rng.choice(pool) for _ in range(4)]
    candidates, interfaces = {}, {}
    for task in tasks:
        rows = [
            (f"{task}_s{j:02d}", rng.choice([0.25, 0.5, 1.0]))
            for j in range(rng.randint(6, 16))
        ]
        candidates[task] = rows
        for sid, _ in rows:
            interfaces[sid] = rng.choice(profiles)
    return dc_replace(
        inst, tasks=tasks, edges=sorted(edges), candidates=candidates, interfaces=interfaces
    )


def hand_link_quality(inst, assignment, task, service_id):
    """Two-sided q of `service_id` at `task` from the reference's per-link
    qualities; None when a side is inadmissible."""
    sides = []
    for links in (
        [(assignment[a], service_id) for a, b in sorted(inst.edges) if b == task],
        [(service_id, assignment[b]) for a, b in sorted(inst.edges) if a == task],
    ):
        if links:
            qualities = [ref_link(inst, f, t) for f, t in links]
            if None in qualities:
                return None
            sides.append(sum(qualities) / len(qualities))
    return sum(sides) / len(sides) if sides else 1.0


def test_replacement_matches_reference_on_shared_interfaces_and_ties():
    """Replace every task's selection; the engine's per-interface side memo and
    one-pass head must agree with the reference's full rescore and sort."""
    rng = random.Random(1717)
    replaced = two_by_two = shared_dead = tied = failed_shares = 0
    for _ in range(300):
        inst = shared_interface_instance(rng)
        ref = ref_select(inst)
        if ref.error:
            continue
        graph, composite, taxonomy, registry = engine_graph(inst)
        for task in graph.order:
            failed = composite.assignment[task]
            # the survivors the engine rescores, grouped by interface
            shared = {}
            for entry in graph.queues[task]:
                if entry.service_id != failed:
                    sid = entry.service_id
                    shared.setdefault(inst.interfaces[sid], []).append(sid)
            qs = {
                sid: hand_link_quality(inst, composite.assignment, task, sid)
                for group in shared.values()
                for sid in group
            }
            shared_dead += any(
                len(group) >= 2 and qs[group[0]] is None for group in shared.values()
            )
            failed_shares += inst.interfaces[failed] in shared
            ref_new = ref_replace(inst, ref, task, failed)
            try:
                new = replace_unavailable(
                    graph, composite, (task, failed), taxonomy, registry
                )
            except NoReplacementCandidate:
                assert ref_new.error == "no-replacement", (inst, task)
                assert set(qs.values()) <= {None}, (inst, task)
                continue
            assert ref_new.error is None, (inst, task)
            assert new.assignment == ref_new.assignment, (inst, task)
            assert new.final_utilities == ref_new.finals, (inst, task)
            assert new.score == ref_new.score, (inst, task)
            # the stand-in's q and F, recomputed link by link
            stand_in = new.assignment[task]
            utilities = dict(inst.candidates[task])
            assert new.link_qualities[task] == qs[stand_in], (inst, task)
            assert new.final_utilities[task] == utilities[stand_in] * qs[stand_in]
            finals = {sid: utilities[sid] * q for sid, q in qs.items() if q is not None}
            best = max(finals.values())
            ties = sorted(sid for sid, f in finals.items() if f == best)
            assert stand_in == ties[0], (inst, task)
            replaced += 1
            tied += len(ties) >= 2
            two_by_two += len(graph.preds[task]) >= 2 and len(graph.succs[task]) >= 2
    counts = (replaced, two_by_two, shared_dead, tied, failed_shares)
    assert replaced >= 350 and two_by_two >= 50 and shared_dead >= 40, counts
    assert tied >= 150 and failed_shares >= 300, counts


# ---------------------------------- replacement's scan stops once none can win

# B and C are disjoint subclasses of A: out A -> in B is Subsume (0.5), out B ->
# in C is inadmissible, every concept feeds itself Exactly (1.0)
STOP_TAX = RefTaxonomy({"A", "B", "C"}, {("B", "A"), ("C", "A")}, set(), {("B", "C")})


class ReadLog(dict):
    """A task's utility index whose `items()` records the service id of every
    pair it hands out."""

    def __init__(self, index, read):
        super().__init__(index)
        self.read = read

    def items(self):
        for service_id, utility in super().items():
            self.read.append(service_id)
            yield service_id, utility


def log_reads(graph):
    """Route every task's utility index through a ReadLog; returns the log."""
    read = []
    for task in graph.order:
        graph.index[task] = ReadLog(graph.by_utility(task), read)
    return read


def replace_like_reference(inst, task):
    """Replace `task`'s selected service in engine and reference and check they
    agree; the engine's composite (None when no candidate is left) and the ids
    its scan read."""
    ref = ref_select(inst)
    graph, composite, taxonomy, registry = engine_graph(inst)
    read = log_reads(graph)
    failed = composite.assignment[task]
    ref_new = ref_replace(inst, ref, task, failed)
    try:
        new = replace_unavailable(graph, composite, (task, failed), taxonomy, registry)
    except NoReplacementCandidate:
        assert ref_new.error == "no-replacement"
        return None, read
    assert ref_new.error is None
    assert new.assignment == ref_new.assignment
    assert new.final_utilities == ref_new.finals
    assert new.score == ref_new.score
    return new, read


def one_edge_instance(downstream):
    """t1 -> t2; p feeds A, and t2's candidates are (service id, U, input concept)."""
    return RefInstance(
        ["t1", "t2"],
        [("t1", "t2")],
        {"t1": [("p", 0.9)], "t2": [(sid, u) for sid, u, _ in downstream]},
        {"p": ((), ("A",)), **{sid: ((concept,), ()) for sid, _, concept in downstream}},
        STOP_TAX,
    )


def test_the_scan_skips_the_failed_highest_utility_entry_and_stops():
    inst = one_edge_instance(
        [("m0", 1.0, "A"), ("m1", 0.8, "A"), ("m2", 0.7, "A"), ("m3", 0.6, "A")]
    )
    new, read = replace_like_reference(inst, "t2")
    assert new.assignment["t2"] == "m1"
    assert read == ["m0", "m1", "m2"]


def test_a_later_entry_whose_utility_equals_the_best_final_utility_can_still_win():
    # m2 reaches F = 0.9 * 0.5 first; m1 has U equal to that F, q = 1 and the
    # smaller id, so a scan stopping at U <= best F would keep m2
    assert 0.9 * 0.5 == 0.45
    inst = one_edge_instance(
        [("m0", 1.0, "A"), ("m2", 0.9, "B"), ("m1", 0.45, "A"), ("m3", 0.4, "A"),
         ("m4", 0.3, "A")]
    )
    new, read = replace_like_reference(inst, "t2")
    assert new.assignment["t2"] == "m1" and new.final_utilities["t2"] == 0.45
    assert read == ["m0", "m2", "m1", "m3"]


def test_equal_utilities_are_all_rescored_whatever_their_link_quality():
    # by utility m1 comes before m2, but its Subsume link halves its F
    inst = one_edge_instance(
        [("m0", 1.0, "A"), ("m1", 0.8, "B"), ("m2", 0.8, "A"), ("m3", 0.5, "A")]
    )
    new, read = replace_like_reference(inst, "t2")
    assert new.assignment["t2"] == "m2" and new.link_qualities["t2"] == 1.0
    assert read == ["m0", "m1", "m2", "m3"]


def test_negative_utilities_never_stop_the_scan():
    # a direct caller may pass U < 0, where F = U * q rises as q falls: m2's U is
    # below m1's F, yet its Subsume link lifts its F above m1's
    inst = one_edge_instance(
        [("m0", 1.0, "A"), ("m1", -0.1, "A"), ("m2", -0.15, "B"), ("m3", -0.4, "A")]
    )
    new, read = replace_like_reference(inst, "t2")
    assert new.assignment["t2"] == "m2"
    assert read == ["m0", "m1", "m2", "m3"]


def test_no_candidate_is_left_when_every_survivor_breaks_a_link():
    # m2 and m3 output B, which cannot feed n's C input
    inst = RefInstance(
        ["t1", "t2", "t3"],
        [("t1", "t2"), ("t2", "t3")],
        {"t1": [("p", 0.9)], "t2": [("m1", 0.9), ("m2", 0.8), ("m3", 0.6)],
         "t3": [("n", 0.7)]},
        {"p": ((), ("A",)), "m1": (("A",), ("C",)), "m2": (("A",), ("B",)),
         "m3": (("A",), ("B",)), "n": (("C",), ())},
        STOP_TAX,
    )
    new, read = replace_like_reference(inst, "t2")
    assert new is None and read == ["m1", "m2", "m3"]


def test_an_isolated_task_rescores_on_utility_alone():
    inst = RefInstance(
        ["t1", "t2", "t3"],
        [("t1", "t2")],
        {"t1": [("p", 0.9)], "t2": [("m", 0.8)],
         "t3": [("a", 0.9), ("c", 0.7), ("b", 0.7), ("d", 0.5), ("e", 0.4)]},
        {"p": ((), ("A",)), "m": (("A",), ()), **{s: (("A",), ("A",)) for s in "abcde"}},
        STOP_TAX,
    )
    new, read = replace_like_reference(inst, "t3")
    assert new.assignment["t3"] == "b" and new.link_qualities["t3"] == 1.0
    assert read == ["a", "b", "c", "d"]


def chain_with_skip_edges(rng):
    """A chain of 4 to 8 tasks plus the skip edges t_i -> t_i+2 (fan-in 2, as in
    perfbench's failover DAG), 5 to 25 candidates a task with utilities from a
    few values and interfaces over one random taxonomy."""
    inst = random_instance(rng, max_tasks=1)
    concepts = sorted(inst.taxonomy.concepts)
    tasks = [f"t{i:02d}" for i in range(rng.randint(4, 8))]
    edges = sorted({*zip(tasks, tasks[1:]), *zip(tasks, tasks[2:])})
    candidates, interfaces = {}, {}
    for task in tasks:
        rows = [(f"{task}_s{j:02d}", rng.choice([0.2, 0.35, 0.5, 0.75, 0.8, 1.0]))
                for j in range(rng.randint(5, 25))]
        candidates[task] = rows
        for sid, _ in rows:
            interfaces[sid] = tuple(tuple(rng.sample(concepts, rng.randint(1, 2)))
                                    for _ in range(2))
    return dc_replace(inst, tasks=tasks, edges=edges, candidates=candidates,
                      interfaces=interfaces)


def test_chained_replacements_on_chains_with_skip_edges_match_the_reference():
    """Each step replaces a random task's selection in the composite the step
    before left, checked against the reference on the patched outcome."""
    rng = random.Random(2317)
    steps = refused = stopped = 0
    while steps < 600:
        inst = chain_with_skip_edges(rng)
        ref = ref_select(inst)
        if ref.error:
            continue
        graph, current, taxonomy, registry = engine_graph(inst)
        read = log_reads(graph)
        for _ in range(20):
            task = rng.choice(graph.order)
            failed = current.assignment[task]
            ref_new = ref_replace(inst, ref, task, failed)
            read.clear()
            try:
                new = replace_unavailable(graph, current, (task, failed), taxonomy, registry)
            except NoReplacementCandidate:
                assert ref_new.error == "no-replacement", (inst, task)
                refused += 1
                continue
            assert ref_new.error is None, (inst, task)
            assert new.assignment == ref_new.assignment, (inst, task)
            assert new.final_utilities == ref_new.finals, (inst, task)
            assert new.score == ref_new.score, (inst, task)
            stopped += len(read) < len(graph.queues[task])
            steps += 1
            current = new
            ref = dc_replace(ref, assignment=ref_new.assignment, finals=ref_new.finals)
    assert refused >= 30 and stopped >= 300, (refused, stopped)


# ------------------------------------------- request-independent caches

def fixture_inputs():
    """Freshly loaded fixtures plus two requests: the shipped one and a stricter one."""
    taxonomy = load_taxonomy(str(FIXTURES / "taxonomy.txt"))
    plan = load_plan(str(FIXTURES / "plan.json"), taxonomy)
    registry = load_registry(str(FIXTURES / "registry.csv"))
    config, request = load_config(str(FIXTURES / "config.json"))
    strict = UserRequest(
        {**request.ranges, "response_time": (50.0, 150.0), "availability": (98.0, 100.0)},
        request.preferences,
    )
    return plan, registry, taxonomy, dc_replace(config, threshold=0.0), [request, strict]


def synthetic_inputs(seed):
    """A freshly generated chain plus its default request and a stricter one."""
    registry, plan, taxonomy = generate_synthetic(12, 6, 3, seed)
    loose = default_request(registry.schema)
    strict = {}
    for attr in registry.schema:
        lo, hi = loose.ranges[attr.name]
        mid = (lo + hi) / 2
        strict[attr.name] = (lo, mid) if attr.polarity is Polarity.NEGATIVE else (mid, hi)
    requests = [loose, UserRequest(strict, loose.preferences)]
    return plan, registry, taxonomy, dc_replace(default_config(), threshold=0.0), requests


def composed(request, plan, registry, taxonomy, config):
    graph, primary, alternative = compose_with_graph(
        request, plan, registry, taxonomy, config
    )
    reports = (
        composite_report(graph, primary),
        composite_report(graph, alternative) if alternative is not None else None,
    )
    return primary, alternative, reports


def oracle_instance(plan, registry, taxonomy, eligible):
    """The reference's view of one compose from its engine inputs."""
    return RefInstance(
        tasks=sorted(plan.tasks),
        edges=sorted(plan.edges),
        candidates={
            task: [(s.service_id, s.utility) for s in scored]
            for task, scored in eligible.items()
        },
        interfaces={rec.service_id: (rec.inputs, rec.outputs) for rec in registry.records},
        taxonomy=RefTaxonomy(
            set(taxonomy.concepts),
            set(taxonomy.edges),
            set(taxonomy.equivalences),
            set(taxonomy.disjointness),
        ),
    )


def assert_matches_oracle(
    request, plan, registry, taxonomy, config, primary, alternative, eligible=None
):
    if eligible is None:
        eligible = rank_candidates(request, registry, config)
    inst = oracle_instance(plan, registry, taxonomy, eligible)
    ref = ref_select(inst)
    assert ref.error is None
    assert (primary.assignment, primary.final_utilities, primary.score) == (
        ref.assignment, ref.finals, ref.score,
    )
    ref_alt = ref_first_alternative(inst, ref)
    if alternative is None:
        assert ref_alt.error == "no-alternative"
    else:
        got = (alternative.assignment, alternative.final_utilities, alternative.score)
        assert got == (ref_alt.assignment, ref_alt.finals, ref_alt.score)


@pytest.mark.parametrize(
    "make_inputs",
    [fixture_inputs] + [lambda seed=seed: synthetic_inputs(seed) for seed in range(3)],
    ids=["fixtures", "synthetic-0", "synthetic-1", "synthetic-2"],
)
def test_warm_caches_compose_like_fresh_inputs(make_inputs):
    plan, registry, taxonomy, config, requests = make_inputs()
    results = []
    for request in requests + requests:
        warm = composed(request, plan, registry, taxonomy, config)
        fresh_plan, fresh_registry, fresh_taxonomy, _, _ = make_inputs()
        fresh = composed(request, fresh_plan, fresh_registry, fresh_taxonomy, config)
        assert warm == fresh
        assert_matches_oracle(
            request, fresh_plan, fresh_registry, fresh_taxonomy, config, *fresh[:2]
        )
        results.append(warm)
    # the two requests level differently, so a cached request result would show
    assert results[0] != results[1]
    assert {"envelope", "_bases"} <= vars(registry).keys()
    assert any(taxonomy.links.values())


def test_failed_scaling_repeats_its_error_and_caches_no_scaling():
    schema = [QoSAttribute("a", Polarity.POSITIVE)]
    records = [
        RegistryRecord("s1", "t1", {"a": 1.0}, (), ("A",)),
        RegistryRecord("s2", "t1", {"a": 2.0}, (), ("A",)),
        RegistryRecord("s3", "t2", {"a": 3.0}, ("A",), ()),
        # a NaN inside the envelope but outside its own task's extremes
        RegistryRecord("s4", "t2", {"a": float("nan")}, ("A",), ()),
    ]
    registry = Registry(schema, records)
    request = UserRequest({"a": (1.0, 3.0)}, {"a": 1})
    config = default_config()
    raised = []
    for _ in range(3):
        with pytest.raises(OutOfRangeValue) as info:
            rank_candidates(request, registry, config)
        raised.append((info.value.stage, str(info.value)))
        assert not vars(registry).get("_bases")
    assert raised == [raised[0]] * 3
    assert raised[0][0] == "scaling"


def test_a_composed_registry_keeps_only_the_listed_values_and_no_scaled_vector():
    """README's `Registry` members, and nothing else: a basis is three columns of
    service ids, level codes and means, with no scaled vector behind them."""
    plan, registry, taxonomy, config, requests = fixture_inputs()
    compose_with_graph(requests[0], plan, registry, taxonomy, config)
    derived = vars(registry).keys() - {"schema", "records"}
    assert derived == {"envelope", "services", "_bases", "compose_memo"}
    assert registry._bases.keys() == {config.bins}
    bases = registry._bases[config.bins].values()
    assert sum(len(ids) for ids, _, _ in bases) == len(registry.records)
    for ids, codes, means in bases:
        assert len(ids) == len(codes) == len(means)
        assert [set(map(type, c)) for c in (ids, codes, means)] == [{str}, {int}, {float}]


def test_registry_validation_reports_the_first_fault_in_record_order():
    registry, plan, taxonomy = generate_synthetic(3, 2, 2, 0)
    request = default_request(registry.schema)
    config = default_config()
    compose_with_graph(request, plan, registry, taxonomy, config)
    # a registry that passed once is still checked against every plan
    last = max(plan.tasks)
    short = CompositionPlan(
        plan.tasks - {last}, frozenset(e for e in plan.edges if last not in e)
    )
    with pytest.raises(UnknownTask) as info:
        compose_with_graph(request, short, registry, taxonomy, config)
    assert info.value.stage == "validation"
    assert f"{last}_s01" in str(info.value)
    # record order decides, and a record's task is checked before its concepts
    first, second, third, *rest = registry.records
    bad_concept = second._replace(outputs=("Nope1",))
    bad_both = third._replace(task_id="tX", inputs=("Nope2",))
    for records, error, name in [
        ([first, bad_concept, bad_both, *rest], UnknownConcept, "Nope1"),
        ([first, bad_both, bad_concept, *rest], UnknownTask, "tX"),
    ]:
        faulty = Registry(registry.schema, records)
        for _ in range(2):
            with pytest.raises(error, match=name) as info:
                compose_with_graph(request, plan, faulty, taxonomy, config)
            assert info.value.stage == "validation"


def test_validation_runs_once_per_triple_while_an_entry_vouches_for_it(monkeypatch):
    plan, registry, taxonomy, config, requests = synthetic_inputs(5)
    calls = []

    def counting_validate(*args):
        calls.append(args)
        return validate(*args)

    validate = composer._validate_registry
    monkeypatch.setattr(composer, "_validate_registry", counting_validate)
    # a refusal stores nothing, so it vouches for nothing
    bogus = UserRequest({"bogus": (0.0, 1.0)}, {"bogus": 1})
    for _ in range(2):
        with pytest.raises(UnknownAttribute):
            compose_with_graph(bogus, plan, registry, taxonomy, config)
        assert not registry.compose_memo
    assert len(calls) == 2
    calls.clear()
    rng = random.Random(8)
    asked = requests + [random_request(rng, registry) for _ in range(6)]
    for request in asked * 2:
        compose_with_graph(request, plan, registry, taxonomy, config)
    assert len(registry.compose_memo) > 2  # several signatures, one triple
    assert len(calls) == 1
    # an equal plan is another object, so it is validated in its own right
    twin = CompositionPlan(plan.tasks, plan.edges)
    compose_with_graph(requests[0], twin, registry, taxonomy, config)
    assert len(calls) == 2
    # overwriting every entry of the first plan leaves nothing to vouch for it
    for request in asked:
        compose_with_graph(request, twin, registry, taxonomy, config)
    assert len(calls) == 2
    assert all(entry[0] is twin for entry in registry.compose_memo.values())
    compose_with_graph(requests[0], plan, registry, taxonomy, config)
    assert len(calls) == 3
    # and so does evicting them as least recently used
    monkeypatch.setattr(composer, "TRAINING_MEMO_SIZE", 2)
    fresh = Registry(registry.schema, registry.records)
    compose_with_graph(requests[0], plan, fresh, taxonomy, config)
    compose_with_graph(requests[1], twin, fresh, taxonomy, config)
    compose_with_graph(asked[2], twin, fresh, taxonomy, config)
    assert len(calls) == 5
    assert [entry[0] for entry in fresh.compose_memo.values()] == [twin, twin]
    compose_with_graph(requests[0], plan, fresh, taxonomy, config)
    assert len(calls) == 6


def test_a_registry_fault_is_refused_before_the_requests_own_fault():
    registry, plan, taxonomy = generate_synthetic(3, 2, 2, 0)
    config = default_config()
    bogus = UserRequest({"bogus": (0.0, 1.0)}, {"bogus": 1})
    first, *rest = registry.records
    stray = Registry(registry.schema, [first, rest[0]._replace(task_id="tX"), *rest[1:]])
    with pytest.raises(UnknownTask, match="tX") as info:
        compose_with_graph(bogus, plan, stray, taxonomy, config)
    assert info.value.stage == "validation"
    # a memo warm for another plan still validates a new one first
    compose_with_graph(default_request(registry.schema), plan, registry, taxonomy, config)
    last = max(plan.tasks)
    short = CompositionPlan(plan.tasks - {last}, frozenset(e for e in plan.edges if last not in e))
    for _ in range(2):
        with pytest.raises(UnknownTask) as info:
            compose_with_graph(bogus, short, registry, taxonomy, config)
        assert info.value.stage == "validation"


def test_replaced_objects_start_with_empty_caches():
    plan, registry, taxonomy, config, requests = synthetic_inputs(4)
    graph, primary, _ = compose_with_graph(requests[0], plan, registry, taxonomy, config)
    assert config.bins in registry._bases
    first, *rest = registry.records
    changed = dc_replace(registry, records=[first._replace(values={
        name: value * 2 for name, value in first.values.items()
    })] + rest)
    assert vars(changed).keys() == {"schema", "records"}
    assert changed.services[first.service_id] is not first
    assert any(taxonomy.links.values()) and not dc_replace(taxonomy).links
    fresh = Registry(registry.schema, changed.records)
    assert composed(requests[0], plan, changed, taxonomy, config) == composed(
        requests[0], plan, fresh, taxonomy, config
    )


# ----------------------------- per-bins leveling basis and per-task link memo

def dag_inputs(seed, fan_in):
    """A generated 10-task chain; fan-in 2 adds the skip edges t_i -> t_i+2."""
    registry, plan, taxonomy = generate_synthetic(10, 8, 3, seed)
    order = plan.order
    edges = set(plan.edges)
    if fan_in == 2:
        edges |= set(zip(order, order[2:]))
    return CompositionPlan(plan.tasks, frozenset(edges)), registry, taxonomy


def random_request(rng, registry):
    """Ranges inside the registry's value envelope, so no request is degenerate."""
    ranges = {}
    for attr in registry.schema:
        values = [rec.values[attr.name] for rec in registry.records]
        lo, hi = sorted(rng.uniform(min(values), max(values)) for _ in range(2))
        ranges[attr.name] = (lo, hi)
    return UserRequest(ranges, {a.name: i + 1 for i, a in enumerate(registry.schema)})


def normalized_tasks(registry):
    """task -> its records through the public `normalize` against their own
    task's extremes, tasks and records in record order."""
    by_task = {}
    for rec in registry.records:
        by_task.setdefault(rec.task_id, []).append(rec)
    return {
        task: [normalize(rec, compute_extremes(recs), registry.schema) for rec in recs]
        for task, recs in by_task.items()
    }


def fresh_eligible(request, registry, config):
    """Per-request leveling from scratch: per-task scaling, score_candidates, filter."""
    fresh = Registry(registry.schema, list(registry.records))
    classifier = train_classifier(
        synthesize_training_set(request, fresh.envelope, config.scheme, config.bins, fresh.schema),
        config.mining,
    )
    by_task = {}
    for rec in fresh.records:
        by_task.setdefault(rec.task_id, []).append(QoSVector(rec.service_id, rec.values))
    eligible = {}
    for task, cands in by_task.items():
        extremes = compute_extremes(cands)
        normalized = [normalize(c, extremes, fresh.schema) for c in cands]
        scored = score_candidates(normalized, classifier, config.scheme, config.bins)
        eligible[task] = filter_eligible(scored, config.threshold)
    return fresh, eligible


@pytest.mark.parametrize("fan_in", [1, 2])
def test_reused_registry_levels_and_selects_like_fresh_objects(fan_in):
    rng = random.Random(77 + fan_in)
    plan, registry, taxonomy = dag_inputs(fan_in + 10, fan_in)
    config = dc_replace(default_config(), threshold=0.0)
    checked = 0
    for _ in range(20):
        request = random_request(rng, registry)
        for bins in (3, 4, 5, 3):
            cfg = dc_replace(config, bins=bins)
            warm = rank_candidates(request, registry, cfg)
            fresh_registry, eligible = fresh_eligible(request, registry, cfg)
            assert warm == eligible
            _, _, fresh_taxonomy = generate_synthetic(10, 8, 3, fan_in + 10)
            try:
                want = build_search_graph(plan, eligible, fresh_taxonomy, fresh_registry)
            except NoAdmissibleLink:
                with pytest.raises(NoAdmissibleLink):
                    compose_with_graph(request, plan, registry, taxonomy, cfg)
                continue
            graph, primary, alternative = compose_with_graph(
                request, plan, registry, taxonomy, cfg
            )
            assert graph.queues == want[0].queues
            assert primary == want[1]
            assert_matches_oracle(
                request, plan, fresh_registry, fresh_taxonomy, cfg,
                primary, alternative, eligible,
            )
            checked += 1
    assert checked >= 60
    assert registry._bases.keys() == {3, 4, 5}


@pytest.mark.parametrize("fan_in", [1, 2])
def test_inputs_and_graph_are_freed_by_reference_counting(fan_in):
    """No reference cycle holds a used taxonomy, registry or search graph: with
    the cycle collector off, each goes as soon as its last name is deleted."""
    plan, registry, taxonomy = dag_inputs(61 + fan_in, fan_in)
    config = dc_replace(default_config(), threshold=0.0)
    request = default_request(registry.schema)
    gc.disable()
    try:
        graph, primary, alternative = compose_with_graph(
            request, plan, registry, taxonomy, config
        )
        task = next(t for t in graph.order if graph.preds[t] and graph.succs[t])
        replaced = replace_unavailable(
            graph, primary, (task, primary.assignment[task]), taxonomy, registry
        )
        composite_report(graph, replaced)
        assert alternative is not None and taxonomy.links and graph.queues
        refs = [weakref.ref(obj) for obj in (taxonomy, registry, graph)]
        del taxonomy, registry, graph
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


# ------------------------------------------------ queues built on first read

@pytest.mark.parametrize("fan_in", [1, 2])
def test_compose_and_its_reports_build_no_queue(fan_in):
    plan, registry, taxonomy = dag_inputs(41 + fan_in, fan_in)
    config = dc_replace(default_config(), threshold=0.0)
    request = default_request(registry.schema)
    graph, primary, alternative = compose_with_graph(request, plan, registry, taxonomy, config)
    assert alternative is not None
    reports = [composite_report(graph, c) for c in (primary, alternative)]
    assert "queues" not in vars(graph) and not graph.index
    # a fresh build over fresh inputs, read in full
    plan, registry, taxonomy = dag_inputs(41 + fan_in, fan_in)
    eligible = rank_candidates(request, registry, config)
    fresh, fresh_primary = build_search_graph(plan, eligible, taxonomy, registry)
    assert fresh_primary == primary
    assert graph.queues == fresh.queues
    assert type(graph.queues) is dict and graph.queues is graph.queues
    assert [composite_report(graph, c) for c in (primary, alternative)] == reports
    assert not graph.index
    # a service outside the heads is looked up in its task's index, built on that read
    task = next(t for t in graph.order if len(graph.queues[t]) >= 3)
    third = graph.queues[task][2]
    assert graph.utility(task, third.service_id) == third.utility
    assert graph.index.keys() == {task}


@pytest.mark.parametrize("fan_in", [1, 2])
def test_replacement_and_its_report_build_no_queue(fan_in):
    """Only the replaced task's utility index is built; the queues read later
    still equal the reference's."""
    plan, registry, taxonomy = dag_inputs(43 + fan_in, fan_in)
    config = dc_replace(default_config(), threshold=0.0)
    request = default_request(registry.schema)
    graph, primary, _ = compose_with_graph(request, plan, registry, taxonomy, config)
    task = next(t for t in graph.order if graph.preds[t] and graph.succs[t])
    replaced = replace_unavailable(
        graph, primary, (task, primary.assignment[task]), taxonomy, registry
    )
    composite_report(graph, replaced)
    assert "queues" not in vars(graph)
    assert graph.index.keys() == {task}
    ref = ref_select(oracle_instance(plan, registry, taxonomy,
                                     rank_candidates(request, registry, config)))
    rows = {
        t: [(e.service_id, e.utility, e.final_utility, e.link_quality) for e in q]
        for t, q in graph.queues.items()
    }
    assert rows == ref.queues


# --------------------------------------- one leveling basis for every scheme

def test_schemes_sharing_a_registry_share_one_basis():
    rng = random.Random(515)
    plan, registry, taxonomy = dag_inputs(21, 2)
    base = dc_replace(default_config(), threshold=0.0)
    configs = [
        dc_replace(base, scheme=LevelScheme(3, (1.0, 0.75, 0.25))),
        dc_replace(base, scheme=LevelScheme(3, (1.0, 0.5, 0.125))),
        dc_replace(base, scheme=LevelScheme(4, (1.0, 0.75, 0.5, 0.25))),
    ]
    differ = 0
    for _ in range(50):
        request = random_request(rng, registry)
        got = []
        for config in configs:
            fresh = Registry(registry.schema, list(registry.records))
            warm = rank_candidates(request, registry, config)
            assert warm == rank_candidates(request, fresh, config)
            try:
                want = composed(request, plan, fresh, taxonomy, config)
            except NoAdmissibleLink:
                with pytest.raises(NoAdmissibleLink):
                    compose_with_graph(request, plan, registry, taxonomy, config)
            else:
                assert composed(request, plan, registry, taxonomy, config) == want
            got.append(warm)
        # equal levels under the two 3-level schemes, different utilities
        differ += got[0] != got[1]
    assert differ >= 40
    assert registry._bases.keys() == {base.bins}


def test_rank_candidates_equals_filtered_score_candidates():
    rng = random.Random(616)
    plan, registry, taxonomy = dag_inputs(31, 1)
    config = default_config()
    for _ in range(200):
        request = random_request(rng, registry)
        classifier = train_classifier(
            synthesize_training_set(
                request, registry.envelope, config.scheme, config.bins, registry.schema
            ),
            config.mining,
        )
        got = rank_candidates(request, registry, config)
        scaled = normalized_tasks(registry)
        assert got.keys() == scaled.keys()
        for task, normalized in scaled.items():
            want = filter_eligible(
                score_candidates(normalized, classifier, config.scheme, config.bins),
                config.threshold,
            )
            assert got[task] == want


def test_a_warm_signature_levels_without_predict(monkeypatch):
    plan, registry, taxonomy, config, requests = synthetic_inputs(8)
    calls = []

    def counting_predict(classifier, instance):
        calls.append(instance)
        return predict(classifier, instance)

    monkeypatch.setattr(leveling, "predict", counting_predict)
    request = requests[0]
    cold = rank_candidates(request, registry, config)
    # a memo miss predicts each training row once
    assert len(calls) == config.bins ** len(registry.schema)
    calls.clear()
    twin = UserRequest(dict(request.ranges), dict(request.preferences))
    for again in (request, twin):
        assert rank_candidates(again, registry, config) == cold
    assert calls == []
    assert leveling._trained.cache_info().misses == 1


def test_trained_levels_equal_predict_at_each_candidates_level_code():
    rng = random.Random(1212)
    for trial in range(60):
        n_attrs, bins, n_levels = rng.randint(1, 4), rng.randint(2, 6), rng.randint(3, 5)
        names = tuple(rng.sample("abcdef", n_attrs))
        signature = (names, tuple(rng.randrange(bins) for _ in names), bins, n_levels)
        mining = MiningConfig(
            min_support=rng.choice([0.0, 0.01, 0.2]),
            min_confidence=rng.choice([0.0, 0.5, 0.9]),
            max_antecedent_size=rng.choice([None, 1, 2]),
        )
        levels = leveling._trained(signature, mining)
        rows = _training_rows(signature)
        want = train_classifier(rows, mining)
        assert len(levels) == len(rows) == bins**n_attrs, trial
        combos = list(itertools.product(range(bins), repeat=n_attrs))
        rng.shuffle(combos)
        candidates = [
            QoSVector(f"s{i}", {
                name: 1.0 if label == bins - 1 and rng.random() < 0.2
                else (label + rng.uniform(0.05, 0.95)) / bins
                for name, label in zip(names, combo)
            })
            for i, combo in enumerate(combos)
        ]
        # two more candidates at 0 and 1 make unit extremes of positive
        # attributes, under which `scale` is the identity
        schema = [QoSAttribute(name, Polarity.POSITIVE) for name in names]
        records = [
            RegistryRecord(cand.service_id, "t", cand.values, (), ())
            for cand in candidates + [QoSVector("lo", dict.fromkeys(names, 0.0)),
                                      QoSVector("hi", dict.fromkeys(names, 1.0))]
        ]
        _, codes, _ = Registry(schema, records).level_bases(bins)["t"]
        for combo, code in zip(combos, codes):
            items = frozenset(Item(name, str(label)) for name, label in zip(names, combo))
            assert rows[code].items == items, trial
            assert levels[code] == int(predict(want, items)), trial


def out_of_range_classifier(schema):
    """Level 9 (outside every scheme) for label 1 of the first attribute, else level 1."""
    rule = ClassAssociationRule(frozenset([Item(schema[0].name, "1")]), "9", 0.5, 1.0)
    return Classifier([rule], "1", tuple(sorted(attr.name for attr in schema)))


def test_level_out_of_range_names_the_first_service(monkeypatch):
    plan, registry, taxonomy, config, requests = synthetic_inputs(6)
    attribute = registry.schema[0].name
    scaled = normalized_tasks(registry)
    first = next(
        vector.service_id
        for vectors in scaled.values()
        for vector in vectors
        if discretize(vector.values[attribute], config.bins) == 1
    )
    # leveling each task from scratch, in registry order, names `first`
    with pytest.raises(LevelOutOfRange, match=repr(first)) as want:
        for normalized in scaled.values():
            score_candidates(
                normalized,
                out_of_range_classifier(registry.schema),
                config.scheme,
                config.bins,
            )
    monkeypatch.setattr(
        leveling, "train_classifier", lambda *_: out_of_range_classifier(registry.schema)
    )
    for _ in range(2):  # cold and warm basis
        with pytest.raises(LevelOutOfRange) as got:
            rank_candidates(requests[0], registry, config)
        assert str(got.value) == str(want.value)
        assert got.value.stage == "classification"
