"""Match typing over the taxonomy lattice plus randomized raw-axiom cross-checks."""

import dataclasses
import random

import pytest

from qoscompose import MatchType, Taxonomy
from qoscompose.ontology import interface_quality, match_type
from qoscompose.errors import CycleDetected, InconsistentTaxonomy, UnknownConcept
from reference import REF_QUALITY, RefTaxonomy, engine_inputs, random_instance, ref_match


def tax(concepts, edges=(), equiv=(), disjoint=()):
    return Taxonomy(
        frozenset(concepts), frozenset(edges), frozenset(equiv), frozenset(disjoint)
    )


VEHICLES = tax(
    ["Vehicle", "Car", "Boat", "AmphibiousCar", "Auto"],
    edges=[("Car", "Vehicle"), ("Boat", "Vehicle"),
           ("AmphibiousCar", "Car"), ("AmphibiousCar", "Boat")],
    equiv=[("Auto", "Car")],
)


def test_exact_same_and_equivalent_concepts():
    assert match_type(VEHICLES, "Car", "Car") is MatchType.EXACT
    assert match_type(VEHICLES, "Auto", "Car") is MatchType.EXACT
    assert match_type(VEHICLES, "Car", "Auto") is MatchType.EXACT


def test_plugin_and_subsume_are_mirror_images():
    assert match_type(VEHICLES, "Car", "Vehicle") is MatchType.PLUGIN
    assert match_type(VEHICLES, "Vehicle", "Car") is MatchType.SUBSUME
    # transitively as well
    assert match_type(VEHICLES, "AmphibiousCar", "Vehicle") is MatchType.PLUGIN


def test_intersection_via_common_descendant():
    assert match_type(VEHICLES, "Car", "Boat") is MatchType.INTERSECTION
    assert match_type(VEHICLES, "Boat", "Auto") is MatchType.INTERSECTION


def test_declared_disjointness_dominates_intersection():
    separated = tax(
        ["Vehicle", "Car", "Boat", "AmphibiousCar"],
        edges=[("Car", "Vehicle"), ("Boat", "Vehicle"),
               ("AmphibiousCar", "Car"), ("AmphibiousCar", "Boat")],
        disjoint=[("Car", "Boat")],
    )
    assert match_type(separated, "Car", "Boat") is MatchType.DISJOINT
    assert match_type(separated, "Boat", "Car") is MatchType.DISJOINT


def test_unrelated_concepts_are_disjoint():
    isolated = tax(["A", "B"])
    assert match_type(isolated, "A", "B") is MatchType.DISJOINT


def test_unknown_concept_rejected():
    with pytest.raises(UnknownConcept):
        match_type(VEHICLES, "Car", "Spaceship")
    with pytest.raises(UnknownConcept):
        tax(["A"], edges=[("A", "B")])


def test_cycle_rejected_after_equivalence_collapse():
    with pytest.raises(CycleDetected):
        tax(["A", "B", "C"], edges=[("A", "B"), ("B", "C"), ("C", "A")])
    # collapsing X=Z makes X -> Y -> Z circular
    with pytest.raises(CycleDetected):
        tax(["X", "Y", "Z"], edges=[("X", "Y"), ("Y", "Z")], equiv=[("X", "Z")])


def test_subsumed_disjoint_pair_is_inconsistent():
    with pytest.raises(InconsistentTaxonomy):
        tax(["Car", "Vehicle"], edges=[("Car", "Vehicle")],
            disjoint=[("Car", "Vehicle")])


def test_equivalence_self_loop_edge_tolerated():
    t = tax(["A", "B"], edges=[("A", "B")], equiv=[("A", "B")])
    assert match_type(t, "A", "B") is MatchType.EXACT


def test_matching_quality_constants():
    # a one-pair link's quality is its match kind's constant
    assert interface_quality(VEHICLES, ("Car",), ("Car",)) == 1.0
    assert interface_quality(VEHICLES, ("Car",), ("Vehicle",)) == 0.75
    assert interface_quality(VEHICLES, ("Vehicle",), ("Car",)) == 0.5
    assert interface_quality(VEHICLES, ("Car",), ("Boat",)) == 0.25
    assert interface_quality(tax(["A", "B"]), ("A",), ("B",)) is None


def test_link_quality_averages_pairs():
    # outputs x inputs: (Car, Car)
    assert interface_quality(VEHICLES, ("Car",), ("Car",)) == 1.0
    # (Car, Car), (Vehicle, Car)
    assert interface_quality(VEHICLES, ("Car", "Vehicle"), ("Car",)) == (1.0 + 0.5) / 2
    # (Car, Vehicle), (Car, Vehicle), (Car, Boat)
    three = interface_quality(VEHICLES, ("Car",), ("Vehicle", "Vehicle", "Boat"))
    assert three == (0.75 + 0.75 + 0.25) / 3


def test_link_quality_rejects_disjoint_and_empty():
    isolated = tax(["A", "B"])
    assert interface_quality(isolated, ("A",), ("B",)) is None
    # a disjoint pair makes the whole link inadmissible, wherever it stands
    assert interface_quality(isolated, ("A", "B"), ("A",)) is None
    assert interface_quality(isolated, ("A", "A"), ("A", "B")) is None
    for outputs, inputs in [((), ()), (("A",), ()), ((), ("B",))]:
        assert interface_quality(isolated, outputs, inputs) is None
    # an unknown concept raises and leaves both memos without the failed key
    with pytest.raises(UnknownConcept):
        interface_quality(isolated, ("A",), ("Z",))
    assert ("Z",) not in isolated.links[("A",)] and ("A", "Z") not in isolated.matches


def test_match_type_agrees_with_raw_axiom_walks():
    rng = random.Random(4242)
    label = {
        MatchType.EXACT: "exact",
        MatchType.PLUGIN: "plugin",
        MatchType.SUBSUME: "subsume",
        MatchType.INTERSECTION: "intersection",
        MatchType.DISJOINT: "disjoint",
    }
    for _ in range(60):
        n = rng.randint(3, 12)
        concepts = [f"K{i}" for i in range(n)]
        edges = set()
        for i in range(1, n):
            for j in rng.sample(range(i), rng.randint(0, min(2, i))):
                edges.add((concepts[i], concepts[j]))

        def reaches(a, b):
            frontier, seen = [a], {a}
            while frontier:
                cur = frontier.pop()
                if cur == b:
                    return True
                for child, parent in edges:
                    if child == cur and parent not in seen:
                        seen.add(parent)
                        frontier.append(parent)
            return False

        disjoint = set()
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(concepts, 2)
            if not reaches(a, b) and not reaches(b, a):
                disjoint.add((a, b))
        engine = tax(concepts, edges=edges, disjoint=disjoint)
        raw = RefTaxonomy(set(concepts), edges, set(), disjoint)
        for a in concepts:
            for b in concepts:
                assert label[match_type(engine, a, b)] == ref_match(raw, a, b), (
                    a, b, edges, disjoint
                )


def uncached_quality(taxonomy, outputs, inputs):
    """Mean REF_QUALITY over the raw-axiom matches of every output x input pair."""
    kinds = [ref_match(taxonomy, o, i) for o in outputs for i in inputs]
    if not kinds or "disjoint" in kinds:
        return None
    total = 0.0
    for kind in kinds:
        total += REF_QUALITY[kind]
    return total / len(kinds)


def test_memoized_interface_quality_equals_link_quality():
    rng = random.Random(919)
    kinds = {"quality": 0, "disjoint": 0, "no-pairs": 0}
    for _ in range(40):
        instance = random_instance(rng)
        _, _, memoized, _ = engine_inputs(instance)
        concepts = sorted(memoized.concepts)
        # interfaces of 0 to 3 concepts, so some links share no parameter
        interfaces = [
            tuple(rng.sample(concepts, rng.randint(0, 3))) for _ in range(12)
        ]
        expected = {
            (outputs, inputs): uncached_quality(instance.taxonomy, outputs, inputs)
            for outputs in interfaces
            for inputs in interfaces
        }
        for _ in range(2):  # cold memo, then warm
            for (outputs, inputs), want in expected.items():
                got = interface_quality(memoized, outputs, inputs)
                assert got == want, (outputs, inputs)
                if got is not None:
                    kinds["quality"] += 1
                elif outputs and inputs:
                    kinds["disjoint"] += 1
                else:
                    kinds["no-pairs"] += 1
    assert min(kinds.values()) > 0, kinds


def test_replace_copy_builds_its_own_index_and_leaves_the_original():
    concepts = ["A", "B", "C", "D"]
    edges = [("B", "A"), ("C", "A"), ("D", "B"), ("D", "C")]

    def answers(taxonomy):
        return {(x, y): match_type(taxonomy, x, y) for x in concepts for y in concepts}

    changes = [
        {"disjointness": frozenset({("B", "C")})},
        {"edges": frozenset({("B", "A"), ("C", "A")})},  # D leaves the hierarchy
        {"equivalences": frozenset({("B", "D")}), "edges": frozenset({("B", "A")})},
    ]
    for change in changes:
        original = tax(concepts, edges)
        copy = dataclasses.replace(original, **change)
        fresh = Taxonomy(**{"concepts": frozenset(concepts), "edges": frozenset(edges), **change})
        assert answers(copy) == answers(fresh), change
        assert answers(original) == answers(tax(concepts, edges)), change
    assert match_type(original, "B", "C") is MatchType.INTERSECTION
    assert match_type(original, "D", "A") is MatchType.PLUGIN
