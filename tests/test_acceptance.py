"""Acceptance gate: nine end-to-end criteria, each printing one PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass;
a failing criterion shows up as a failed test for that criterion.
"""

import json
import pathlib
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

from scipy.stats import spearmanr

from qoscompose import (
    Classifier,
    MatchType,
    Polarity,
    QoSAttribute,
    QoSVector,
    build_classifier,
    build_search_graph,
    compute_extremes,
    first_alternative,
    mine_cars,
    normalize,
    replace_unavailable,
    score_candidates,
    sort_rules,
)
from qoscompose.cli import run_bench
from qoscompose.errors import NoAlternative, NoReplacementCandidate
from qoscompose.leveling import default_scheme
from qoscompose.ontology import MATCH_QUALITY
from reference import (
    brute_force_cars,
    engine_inputs,
    engine_outcome,
    random_instance,
    random_training_set,
    ref_first_alternative,
    ref_match,
    ref_replace,
    ref_select,
    REF_QUALITY,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def report(number: int, title: str) -> None:
    print(f"[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_matching_quality_constants():
    start = time.perf_counter()
    values = (
        MATCH_QUALITY[MatchType.EXACT],
        MATCH_QUALITY[MatchType.PLUGIN],
        MATCH_QUALITY[MatchType.SUBSUME],
        MATCH_QUALITY[MatchType.INTERSECTION],
    )
    elapsed = time.perf_counter() - start
    assert values == (1.0, 0.75, 0.5, 0.25)
    assert values == (1, 3 / 4, 1 / 2, 1 / 4)
    assert elapsed < 0.001
    report(1, "matching-quality constants, < 1 ms")


def test_criterion_2_normalization_suite():
    rng = random.Random(20260814)
    suites = []
    for _ in range(1000):
        m = rng.randint(1, 5)
        schema = [
            QoSAttribute(f"q{k}", rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE]))
            for k in range(m)
        ]
        n = rng.randint(1, 20)
        vectors = [
            QoSVector(f"s{j:02d}", {a.name: rng.uniform(-1000.0, 1000.0) for a in schema})
            for j in range(n)
        ]
        degenerate = set()
        for attr in schema:
            if rng.random() < 0.3:
                constant = rng.uniform(-10.0, 10.0)
                for vec in vectors:
                    vec.values[attr.name] = constant
                degenerate.add(attr.name)
        suites.append((schema, vectors, degenerate))

    start = time.perf_counter()
    outputs = []
    for schema, vectors, _ in suites:
        extremes = compute_extremes(vectors)
        outputs.append([normalize(vec, extremes, schema) for vec in vectors])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"normalizing 1000 candidate sets took {elapsed:.3f}s"

    for (schema, vectors, degenerate), normed in zip(suites, outputs):
        for attr in schema:
            raw = [vec.values[attr.name] for vec in vectors]
            scaled = [nv.values[attr.name] for nv in normed]
            assert all(0.0 <= v <= 1.0 for v in scaled)
            if attr.name in degenerate:
                assert all(v == 1.0 for v in scaled)
            ranked = sorted(zip(raw, scaled))
            for (_, lo_scaled), (_, hi_scaled) in zip(ranked, ranked[1:]):
                if attr.polarity is Polarity.POSITIVE:
                    assert lo_scaled <= hi_scaled
                else:
                    assert lo_scaled >= hi_scaled
    report(2, "1000 normalization sets in [0,1], order preserved, < 1 s")


def test_criterion_3_mining_matches_brute_force():
    start = time.perf_counter()
    rng = random.Random(31415)
    for _ in range(200):
        data, config = random_training_set(rng)
        mined = mine_cars(data, config)
        assert set(mined) == brute_force_cars(data, config)
        for rule in mined:
            matched = [inst for inst in data if rule.antecedent <= inst.items]
            hits = sum(
                1 for inst in matched if inst.class_label == rule.consequent_class
            )
            assert rule.support == hits / len(data)
            assert rule.confidence == hits / len(matched)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"200 brute-force comparisons took {elapsed:.1f}s"
    report(3, "mining set-equals brute force on 200 sets, < 30 s")


def test_criterion_4_coverage_replay():
    rng = random.Random(31415)  # identical 200 training sets as criterion 3
    for _ in range(200):
        data, config = random_training_set(rng)
        classifier = build_classifier(data, sort_rules(mine_cars(data, config)))
        covered = [False] * len(data)
        for rule in classifier.rules:
            matched = [
                i
                for i, inst in enumerate(data)
                if not covered[i] and rule.antecedent <= inst.items
            ]
            assert any(
                data[i].class_label == rule.consequent_class for i in matched
            ), "kept rule never correctly classified an uncovered instance"
            for i in matched:
                covered[i] = True
        uncovered = [inst.class_label for i, inst in enumerate(data) if not covered[i]]
        pool = uncovered if uncovered else [inst.class_label for inst in data]
        counts = Counter(pool)
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        assert classifier.default_class == expected
    report(4, "coverage pass and default class replayed on the same 200 sets")


def test_criterion_5_utility_and_level_constants():
    assert default_scheme().coefficients == (1, 3 / 4, 1 / 4)
    assert default_scheme().coefficients == (1.0, 0.75, 0.25)

    def utility(service_id, values, level):
        # a rule-free classifier puts every candidate at its default level
        classifier = Classifier([], str(level), attributes=tuple(values))
        candidate = QoSVector(service_id, values)
        [scored] = score_candidates([candidate], classifier, default_scheme(), 4)
        assert scored.level == level
        return scored.utility

    level1 = utility("a", {"x": 0.8, "y": 0.6}, 1)
    assert level1 == (0.8 + 0.6) / 2 == 0.7
    level2 = utility("b", {"x": 1.0, "y": 1.0, "z": 1.0}, 2)
    assert level2 == 0.75
    report(5, "default coefficients (1, 3/4, 1/4) and utility spot values exact")


def test_criterion_6_greedy_oracle():
    rng = random.Random(60606)
    compared = 0
    while compared < 100:
        inst = random_instance(rng, max_tasks=5, max_cands=5)
        engine, engine_err = engine_outcome(inst)
        ref = ref_select(inst)
        if ref.error:
            assert engine is None
            assert engine_err == (ref.error, ref.error_task)
            continue
        assert engine_err is None
        graph, composite = engine
        assert composite.assignment == ref.assignment
        assert composite.final_utilities == ref.finals
        assert composite.score == ref.score

        ref_alt = ref_first_alternative(inst, ref)
        try:
            alt = first_alternative(graph, composite)
        except NoAlternative:
            assert ref_alt.error == "no-alternative"
        else:
            assert ref_alt.error is None
            assert alt.assignment == ref_alt.assignment
            assert alt.final_utilities == ref_alt.finals
            assert alt.score == ref_alt.score
        compared += 1
    report(6, "primary and one-swap alternative equal the naive reference, 100 runs")


def test_criterion_7_replacement_correctness():
    rng = random.Random(70707)
    replaced_cases = []
    while len(replaced_cases) < 100:
        inst = random_instance(rng, max_tasks=5, max_cands=5)
        ref = ref_select(inst)
        if ref.error:
            continue
        # replacement takes the taxonomy and registry the graph was built from
        plan, eligible, taxonomy, registry = engine_inputs(inst)
        graph, composite = build_search_graph(plan, eligible, taxonomy, registry)
        middles = [
            t
            for t in inst.tasks
            if any(b == t for _, b in inst.edges) and any(a == t for a, _ in inst.edges)
        ]
        task = rng.choice(middles or inst.tasks)
        failed = composite.assignment[task]
        ref_new = ref_replace(inst, ref, task, failed)
        try:
            new = replace_unavailable(
                graph, composite, (task, failed), taxonomy, registry
            )
        except NoReplacementCandidate:
            assert ref_new.error == "no-replacement"
            continue
        assert ref_new.error is None
        assert new.assignment == ref_new.assignment
        assert new.final_utilities == ref_new.finals
        assert new.score == ref_new.score
        assert new.assignment[task] != failed
        changed = {
            t
            for t in composite.assignment
            if new.assignment[t] != composite.assignment[t]
        }
        assert changed == {task}
        replaced_cases.append((inst, composite, task, new))

    # hand-recompute the replacement's F for 10 sampled cases
    for inst, composite, task, new in replaced_cases[::10]:
        stand_in = new.assignment[task]
        utility = dict(inst.candidates[task])[stand_in]
        sides = []
        preds = sorted(a for a, b in inst.edges if b == task)
        succs = sorted(b for a, b in inst.edges if a == task)
        if preds:
            qualities = []
            for pred in preds:
                _, outs = inst.interfaces[composite.assignment[pred]]
                ins, _ = inst.interfaces[stand_in]
                pair_qs = [
                    REF_QUALITY[ref_match(inst.taxonomy, o, i)] for o in outs for i in ins
                ]
                qualities.append(sum(pair_qs) / len(pair_qs))
            sides.append(sum(qualities) / len(qualities))
        if succs:
            qualities = []
            for succ in succs:
                _, outs = inst.interfaces[stand_in]
                ins, _ = inst.interfaces[composite.assignment[succ]]
                pair_qs = [
                    REF_QUALITY[ref_match(inst.taxonomy, o, i)] for o in outs for i in ins
                ]
                qualities.append(sum(pair_qs) / len(pair_qs))
            sides.append(sum(qualities) / len(qualities))
        two_sided = sum(sides) / len(sides) if sides else 1.0
        assert new.final_utilities[task] == utility * two_sided
        assert new.link_qualities[task] == two_sided
    report(7, "replacement swaps exactly one task with two-sided link quality, 100 runs")


def test_criterion_8_benchmark_trend():
    sizes = [10, 20, 30, 40, 50]
    results = run_bench(sizes, sizes, attributes=4, repetitions=20, seed=0)
    assert len(results) == len(sizes) ** 2
    # each grid point's median repetition, so a burst of host contention in a few
    # repetitions cannot swap two points' ranks as it can with the mean
    table = {(r.tasks, r.candidates): statistics.median(r.ranking_ms) for r in results}
    by_tasks = [sum(table[(t, c)] for c in sizes) / len(sizes) for t in sizes]
    by_cands = [sum(table[(t, c)] for t in sizes) / len(sizes) for c in sizes]
    rho_tasks = spearmanr(sizes, by_tasks).statistic
    rho_cands = spearmanr(sizes, by_cands).statistic
    assert rho_tasks > 0.8, f"task-axis trend rho={rho_tasks:.3f}"
    assert rho_cands > 0.8, f"candidate-axis trend rho={rho_cands:.3f}"

    start = time.perf_counter()
    run_bench([50], [50], attributes=4, repetitions=20, seed=0)
    largest = time.perf_counter() - start
    assert largest < 5.0, f"50x50 benchmark run took {largest:.2f}s"
    report(8, f"Spearman {rho_tasks:.3f}/{rho_cands:.3f} > 0.8, 50x50 in {largest:.2f} s")


def test_criterion_9_compose_is_byte_identical():
    argv = [
        sys.executable,
        "-m",
        "qoscompose.cli",
        "compose",
        "--registry", str(FIXTURES / "registry.csv"),
        "--plan", str(FIXTURES / "plan.json"),
        "--taxonomy", str(FIXTURES / "taxonomy.txt"),
        "--config", str(FIXTURES / "config.json"),
    ]
    outputs = []
    for _ in range(10):
        proc = subprocess.run(argv, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(set(outputs)) == 1
    assert json.loads(outputs[0])["primary"]["score"] == 0.5625
    report(9, "10 consecutive compose runs byte-identical")
