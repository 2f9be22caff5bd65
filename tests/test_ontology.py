"""Match typing over the taxonomy lattice plus randomized raw-axiom cross-checks."""

import dataclasses
import gc
import random
import subprocess
import sys
import weakref
from graphlib import CycleError, TopologicalSorter

import pytest

from qoscompose import MatchType, Taxonomy
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
    assert VEHICLES.matches["Car", "Car"] is MatchType.EXACT
    assert VEHICLES.matches["Auto", "Car"] is MatchType.EXACT
    assert VEHICLES.matches["Car", "Auto"] is MatchType.EXACT


def test_plugin_and_subsume_are_mirror_images():
    assert VEHICLES.matches["Car", "Vehicle"] is MatchType.PLUGIN
    assert VEHICLES.matches["Vehicle", "Car"] is MatchType.SUBSUME
    # transitively as well
    assert VEHICLES.matches["AmphibiousCar", "Vehicle"] is MatchType.PLUGIN


def test_intersection_via_common_descendant():
    assert VEHICLES.matches["Car", "Boat"] is MatchType.INTERSECTION
    assert VEHICLES.matches["Boat", "Auto"] is MatchType.INTERSECTION


def test_declared_disjointness_dominates_intersection():
    separated = tax(
        ["Vehicle", "Car", "Boat", "AmphibiousCar"],
        edges=[("Car", "Vehicle"), ("Boat", "Vehicle"),
               ("AmphibiousCar", "Car"), ("AmphibiousCar", "Boat")],
        disjoint=[("Car", "Boat")],
    )
    assert separated.matches["Car", "Boat"] is MatchType.DISJOINT
    assert separated.matches["Boat", "Car"] is MatchType.DISJOINT


def test_unrelated_concepts_are_disjoint():
    isolated = tax(["A", "B"])
    assert isolated.matches["A", "B"] is MatchType.DISJOINT


def test_unknown_concept_rejected():
    with pytest.raises(UnknownConcept):
        VEHICLES.matches["Car", "Spaceship"]
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


@pytest.mark.parametrize(
    "edges, equiv",
    [([("B", "A")], [("D", "C")]), ([("D", "C")], [("B", "A")])],
    ids=["least-pair-subsumed", "least-pair-equivalent"],
)
def test_an_inconsistent_taxonomy_names_its_least_inconsistent_pair(edges, equiv):
    """Of two declared pairs that cannot be disjoint, one through `subclass` and
    one through `equiv`, the refusal names the least in sorted order."""
    with pytest.raises(InconsistentTaxonomy) as caught:
        tax(["A", "B", "C", "D"], edges=edges, equiv=equiv,
            disjoint=[("C", "D"), ("A", "B")])
    assert str(caught.value) == "'A' and 'B' are declared disjoint but one subsumes the other"


def test_equivalence_self_loop_edge_tolerated():
    t = tax(["A", "B"], edges=[("A", "B")], equiv=[("A", "B")])
    assert t.matches["A", "B"] is MatchType.EXACT


def test_matching_quality_constants():
    # a one-pair link's quality is its match kind's constant
    assert VEHICLES.links[("Car",)][("Car",)] == 1.0
    assert VEHICLES.links[("Car",)][("Vehicle",)] == 0.75
    assert VEHICLES.links[("Vehicle",)][("Car",)] == 0.5
    assert VEHICLES.links[("Car",)][("Boat",)] == 0.25
    assert tax(["A", "B"]).links[("A",)][("B",)] is None


def test_link_quality_averages_pairs():
    # outputs x inputs: (Car, Car)
    assert VEHICLES.links[("Car",)][("Car",)] == 1.0
    # (Car, Car), (Vehicle, Car)
    assert VEHICLES.links[("Car", "Vehicle")][("Car",)] == (1.0 + 0.5) / 2
    # (Car, Vehicle), (Car, Vehicle), (Car, Boat)
    three = VEHICLES.links[("Car",)][("Vehicle", "Vehicle", "Boat")]
    assert three == (0.75 + 0.75 + 0.25) / 3


def test_link_quality_rejects_disjoint_and_empty():
    isolated = tax(["A", "B"])
    assert isolated.links[("A",)][("B",)] is None
    # a disjoint pair makes the whole link inadmissible, wherever it stands
    assert isolated.links[("A", "B")][("A",)] is None
    assert isolated.links[("A", "A")][("A", "B")] is None
    for outputs, inputs in [((), ()), (("A",), ()), ((), ("B",))]:
        assert isolated.links[outputs][inputs] is None
    # an unknown concept raises and leaves both memos without the failed key
    with pytest.raises(UnknownConcept):
        isolated.links[("A",)][("Z",)]
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
    seen = {"plain": 0, "equivalences": 0, CycleDetected: 0, InconsistentTaxonomy: 0}
    for _ in range(120):
        n = rng.randint(3, 12)
        concepts = [f"K{i}" for i in range(n)]
        edges = set()
        for i in range(1, n):
            for j in rng.sample(range(i), rng.randint(0, min(2, i))):
                edges.add((concepts[i], concepts[j]))
        tree = RefTaxonomy(set(concepts), edges)
        disjoint = set()
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(concepts, 2)
            if b not in tree.upward(a) and a not in tree.upward(b):
                disjoint.add((a, b))
        equiv = {tuple(rng.sample(concepts, 2)) for _ in range(rng.randint(0, 2))}
        raw = RefTaxonomy(set(concepts), edges, equiv, disjoint)
        axioms = (concepts, edges, equiv, disjoint)
        # collapsing equivalences can close a cycle through two classes, or put
        # a disjoint pair into one class or onto one chain; the engine refuses both
        if any(
            b in raw.upward(a) and a in raw.upward(b) and b not in raw.eq_class(a)
            for a in concepts
            for b in concepts
        ):
            refusal = CycleDetected
        elif any(b in raw.upward(a) or a in raw.upward(b) for a, b in disjoint):
            refusal = InconsistentTaxonomy
        else:
            engine = tax(concepts, edges=edges, equiv=equiv, disjoint=disjoint)
            for a in concepts:
                for b in concepts:
                    assert label[engine.matches[a, b]] == ref_match(raw, a, b), (a, b, axioms)
            seen["equivalences" if equiv else "plain"] += 1
            continue
        with pytest.raises(refusal):
            tax(concepts, edges=edges, equiv=equiv, disjoint=disjoint)
        seen[refusal] += 1
    assert min(seen.values()) > 0, seen


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
                got = memoized.links[outputs][inputs]
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
        return {(x, y): taxonomy.matches[x, y] for x in concepts for y in concepts}

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
    assert original.matches["B", "C"] is MatchType.INTERSECTION
    assert original.matches["D", "A"] is MatchType.PLUGIN


def random_dag(rng, n):
    concepts = [f"K{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        for j in rng.sample(range(i), rng.randint(0, min(2, i))):
            edges.add((concepts[i], concepts[j]))
    return concepts, edges


def test_matches_agree_with_ref_match_with_intersection_and_disjoint_pairs():
    rng = random.Random(20)
    label = {kind: kind.name.lower() for kind in MatchType}
    seen = {kind: 0 for kind in MatchType}
    declared = deep = 0
    for _ in range(150):
        concepts, edges = random_dag(rng, rng.randint(4, 14))
        tree = RefTaxonomy(set(concepts), edges)
        disjoint = set()
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(concepts, 2)
            if b not in tree.upward(a) and a not in tree.upward(b):
                disjoint.add((a, b))
        raw = RefTaxonomy(set(concepts), edges, disjoint=disjoint)
        engine = tax(concepts, edges=edges, disjoint=disjoint)
        for a in concepts:
            for b in concepts:
                got = engine.matches[a, b]
                assert label[got] == ref_match(raw, a, b), (a, b, edges, disjoint)
                seen[got] += 1
                common = {c for c in concepts if a in tree.upward(c) and b in tree.upward(c)}
                # a declared pair that would otherwise intersect
                declared += got is MatchType.DISJOINT and bool(common)
                # an intersection whose every common descendant is two or more
                # levels below both concepts, so the downward walks go deep
                deep += got is MatchType.INTERSECTION and not any(
                    parent in (a, b) for child, parent in edges if child in common
                )
    assert min(seen.values()) > 0 and declared > 0 and deep > 0, (seen, declared, deep)


CHAIN_CHECK = """
import resource, sys
from qoscompose.data_io import load_taxonomy
from qoscompose.ontology import MatchType
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
taxonomy = load_taxonomy(sys.argv[1])
assert taxonomy.matches[sys.argv[2], sys.argv[3]] is MatchType.PLUGIN
assert taxonomy.matches[sys.argv[3], sys.argv[2]] is MatchType.SUBSUME
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_a_long_chain_loads_in_memory_linear_in_its_length(tmp_path):
    """Ancestor sets on a 4 000-concept chain held 8 million names, +332 MB."""
    n = 4000
    lines = [f"concept C{i}" for i in range(n)]
    lines += [f"subclass C{i + 1} C{i}" for i in range(n - 1)]
    path = tmp_path / "chain.txt"
    path.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-c", CHAIN_CHECK, str(path), f"C{n - 1}", "C0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 40, proc.stdout


def test_filled_memos_keep_no_dropped_taxonomy_alive():
    taxonomy = tax(["A", "B", "C"], edges=[("C", "A"), ("C", "B")])
    assert taxonomy.links[("A",)][("B",)] == 0.25  # walks the children of A and B
    matches, links = taxonomy.matches, taxonomy.links
    ref = weakref.ref(taxonomy)
    gc.disable()
    try:
        del taxonomy
        assert ref() is None
    finally:
        gc.enable()
    assert matches["A", "B"] is MatchType.INTERSECTION and links


def test_a_cycle_names_what_graphlib_names():
    rng = random.Random(7)
    cycles = 0
    for _ in range(400):
        concepts = [f"K{i}" for i in rng.sample(range(12), rng.randint(2, 8))]
        edges = {tuple(rng.sample(concepts, 2)) for _ in range(rng.randint(1, 10))}
        equiv = {tuple(rng.sample(concepts, 2)) for _ in range(rng.randint(0, 1))}
        rep = tax(concepts, equiv=equiv)._rep
        parents = {r: set() for r in rep.values()}
        for child, parent in edges:
            if rep[child] != rep[parent]:
                parents[rep[child]].add(rep[parent])
        sorter = TopologicalSorter({r: sorted(parents[r]) for r in sorted(parents)})
        try:
            sorter.prepare()
        except CycleError as exc:
            cycles += 1
            with pytest.raises(CycleDetected) as info:
                tax(concepts, edges=edges, equiv=equiv)
            assert str(info.value) == f"subsumption hierarchy contains a cycle: {exc.args[1]}"
        else:
            tax(concepts, edges=edges, equiv=equiv)
    assert 50 < cycles < 350, cycles
