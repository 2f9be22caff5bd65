"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles: rule mining by
exhaustive enumeration, taxonomy queries by raw-axiom graph walks, and the
selection procedure as a literal step-by-step transcription. None of it
shares logic with the package beyond the public data types it checks.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from qoscompose import (
    ClassAssociationRule,
    Classifier,
    CompositionPlan,
    Item,
    MiningConfig,
    Registry,
    RegistryRecord,
    ScoredService,
    Taxonomy,
    TrainingInstance,
    build_search_graph,
)
from qoscompose.errors import NoAdmissibleLink, NoEligibleCandidate

Q_EXACT = 1.0
Q_PLUGIN = 0.75
Q_SUBSUME = 0.5
Q_INTERSECTION = 0.25


# ------------------------------------------------------------- CBA brute force

def brute_force_cars(
    data: list[TrainingInstance], config: MiningConfig
) -> set[ClassAssociationRule]:
    """Enumerate every (antecedent, class) pair and keep those passing thresholds."""
    n = len(data)
    attrs = sorted({it.attribute for it in data[0].items})
    values = {
        a: sorted({it.value for inst in data for it in inst.items if it.attribute == a})
        for a in attrs
    }
    classes = sorted({inst.class_label for inst in data})
    max_size = config.max_antecedent_size
    if max_size is None:
        max_size = len(attrs)
    rules: set[ClassAssociationRule] = set()
    for size in range(1, min(len(attrs), max_size) + 1):
        for combo in itertools.combinations(attrs, size):
            for chosen in itertools.product(*(values[a] for a in combo)):
                antecedent = frozenset(Item(a, v) for a, v in zip(combo, chosen))
                matched = [inst for inst in data if antecedent <= inst.items]
                if not matched:
                    continue
                total = len(matched)
                for cls in classes:
                    hits = sum(1 for inst in matched if inst.class_label == cls)
                    if hits == 0:
                        continue
                    support = hits / n
                    confidence = hits / total
                    if support >= config.min_support and confidence >= config.min_confidence:
                        rules.add(
                            ClassAssociationRule(antecedent, cls, support, confidence)
                        )
    return rules


def ref_build_classifier(
    data: list[TrainingInstance], rules: list[ClassAssociationRule]
) -> Classifier:
    """Row-by-row coverage pass: a rule is kept when it correctly classifies an
    uncovered row, then every uncovered row it matches is covered; the default
    is the majority label of the rows left (of all rows if none), ties by label.
    """
    covered = [False] * len(data)
    kept: list[ClassAssociationRule] = []
    for rule in rules:
        matched = [
            i
            for i, inst in enumerate(data)
            if not covered[i] and rule.antecedent <= inst.items
        ]
        if any(data[i].class_label == rule.consequent_class for i in matched):
            kept.append(rule)
            for i in matched:
                covered[i] = True
    uncovered = [inst.class_label for i, inst in enumerate(data) if not covered[i]]
    if not uncovered:
        uncovered = [inst.class_label for inst in data]
    counts = Counter(uncovered)
    default = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    schema = tuple(sorted(it.attribute for it in data[0].items))
    return Classifier(kept, default, schema)


def random_training_set(
    rng: random.Random,
) -> tuple[list[TrainingInstance], MiningConfig]:
    n_attrs = rng.randint(1, 4)
    attrs = [f"a{i}" for i in range(n_attrs)]
    n_labels = {a: rng.randint(2, 4) for a in attrs}
    classes = [f"c{i}" for i in range(rng.randint(1, 3))]
    rows = []
    for _ in range(rng.randint(1, 30)):
        items = frozenset(
            Item(a, str(rng.randrange(n_labels[a]))) for a in attrs
        )
        rows.append(TrainingInstance(items, rng.choice(classes)))
    config = MiningConfig(
        min_support=rng.choice([0.01, 0.05, 0.1, 0.2, 0.3]),
        min_confidence=rng.choice([0.3, 0.5, 0.6, 0.8]),
        max_antecedent_size=rng.choice([None, 1, 2, 3, 4]),
    )
    return rows, config


# ------------------------------------------------- training-set synthesis

def ref_synthesize_training_set(request, extremes, scheme, bins, schema):
    """Row-by-row synthesis: every label combination, classed by its worst attribute.

    Assumes a request the engine accepts (schema match, non-degenerate
    ranges, within the row limit).
    """
    names = [a.name for a in schema]
    floors = {}
    for attr in schema:
        lo, hi = extremes[attr.name]
        spread = hi - lo
        ends = []
        for raw in request.ranges[attr.name]:
            if spread == 0:
                ends.append(1.0)
            elif attr.polarity.value == "-":
                ends.append((hi - raw) / spread)
            else:
                ends.append((raw - lo) / spread)
        floor_norm = min(max(min(ends), 0.0), 1.0)
        floors[attr.name] = min(int(floor_norm * bins), bins - 1)
    data = []
    for combo in itertools.product(range(bins), repeat=len(names)):
        worst = 1
        for name, label in zip(names, combo):
            gap = floors[name] - label
            if gap > 0:
                band = -(-gap * (scheme.n_levels - 1) // bins)
                worst = max(worst, min(scheme.n_levels - 1, band) + 1)
        items = frozenset(Item(name, str(label)) for name, label in zip(names, combo))
        data.append(TrainingInstance(items, str(worst)))
    return data


def ref_shortfall_levels(signature) -> list[int]:
    """The level the labelling rule gives each label combination of a training
    signature `(names, floors, bins, n_levels)`, in row order: first attribute's
    label most significant.

    An attribute `gap` labels below its demand floor falls
    ceil(gap / bins * (n_levels - 1)) levels below level 1, computed over
    exact fractions and capped at the last level; a row takes its worst
    attribute's level.
    """
    names, floors, bins, n_levels = signature
    levels = []
    for labels in itertools.product(range(bins), repeat=len(names)):
        worst = 1
        for floor, label in zip(floors, labels):
            if label < floor:
                drop = math.ceil(Fraction(floor - label, bins) * (n_levels - 1))
                worst = max(worst, min(1 + drop, n_levels))
        levels.append(worst)
    return levels


# ----------------------------------------------------- raw-axiom taxonomy walks

@dataclass
class RefTaxonomy:
    concepts: set[str]
    subclass: set[tuple[str, str]]
    equiv: set[tuple[str, str]] = field(default_factory=set)
    disjoint: set[tuple[str, str]] = field(default_factory=set)

    def eq_class(self, concept: str) -> frozenset[str]:
        members = {concept}
        frontier = [concept]
        while frontier:
            cur = frontier.pop()
            for a, b in self.equiv:
                for other, one in ((a, b), (b, a)):
                    if one == cur and other not in members:
                        members.add(other)
                        frontier.append(other)
        return frozenset(members)

    def upward(self, concept: str) -> frozenset[str]:
        """All concepts at or above one concept, expanding through equivalences."""
        seen = set(self.eq_class(concept))
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for child, parent in self.subclass:
                if child == cur:
                    for member in self.eq_class(parent):
                        if member not in seen:
                            seen.add(member)
                            frontier.append(member)
        return frozenset(seen)

    def declared_disjoint(self, a: str, b: str) -> bool:
        ea, eb = self.eq_class(a), self.eq_class(b)
        for x, y in self.disjoint:
            if (x in ea and y in eb) or (x in eb and y in ea):
                return True
        return False


def ref_match(tax: RefTaxonomy, out_concept: str, in_concept: str) -> str:
    if in_concept in tax.eq_class(out_concept):
        return "exact"
    if in_concept in tax.upward(out_concept):
        return "plugin"
    if out_concept in tax.upward(in_concept):
        return "subsume"
    if tax.declared_disjoint(out_concept, in_concept):
        return "disjoint"
    for concept in tax.concepts:
        above = tax.upward(concept)
        if out_concept in above and in_concept in above:
            return "intersection"
    return "disjoint"


REF_QUALITY = {
    "exact": Q_EXACT,
    "plugin": Q_PLUGIN,
    "subsume": Q_SUBSUME,
    "intersection": Q_INTERSECTION,
}


# ------------------------------------------------- step-by-step greedy procedure

@dataclass
class RefInstance:
    tasks: list[str]
    edges: list[tuple[str, str]]
    # task -> [(service_id, utility)]
    candidates: dict[str, list[tuple[str, float]]]
    # service -> (input concepts, output concepts)
    interfaces: dict[str, tuple[tuple[str, ...], tuple[str, ...]]]
    taxonomy: RefTaxonomy


@dataclass
class RefOutcome:
    error: str | None = None
    error_task: str | None = None
    assignment: dict[str, str] | None = None
    finals: dict[str, float] | None = None
    score: float | None = None
    # task -> candidates ordered the way the priority queue would hold them
    queues: dict[str, list[tuple[str, float, float, float]]] | None = None


def ref_topological(tasks: list[str], edges: list[tuple[str, str]]) -> list[str]:
    remaining = set(tasks)
    order = []
    while remaining:
        ready = sorted(
            t for t in remaining if not any(b == t and a in remaining for a, b in edges)
        )
        assert ready, "cycle in reference plan"
        order.append(ready[0])
        remaining.remove(ready[0])
    return order


def ref_link(inst: RefInstance, from_service: str, to_service: str) -> float | None:
    """Mean pair quality across the full output x input cross product, or None."""
    _, outs = inst.interfaces[from_service]
    ins, _ = inst.interfaces[to_service]
    pairs = [(o, i) for o in outs for i in ins]
    if not pairs:
        return None
    total = 0.0
    for out_concept, in_concept in pairs:
        kind = ref_match(inst.taxonomy, out_concept, in_concept)
        if kind == "disjoint":
            return None
        total += REF_QUALITY[kind]
    return total / len(pairs)


def ref_mean(values: list[float]) -> float:
    """Arithmetic mean added left to right; from Python 3.12 on, sum() compensates
    rounding error, so it can differ in the last bit between versions."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def ref_select(inst: RefInstance) -> RefOutcome:
    order = ref_topological(inst.tasks, inst.edges)
    preds = {t: sorted(a for a, b in inst.edges if b == t) for t in order}
    selected: dict[str, str] = {}
    finals: dict[str, float] = {}
    queues: dict[str, list[tuple[str, float, float, float]]] = {}
    for task in order:
        cands = inst.candidates.get(task, [])
        if not cands:
            return RefOutcome(error="no-eligible", error_task=task)
        scored: list[tuple[str, float, float, float]] = []
        for service_id, utility in cands:
            if not preds[task]:
                scored.append((service_id, utility, utility, 1.0))
                continue
            qualities = []
            dead = False
            for pred in preds[task]:
                quality = ref_link(inst, selected[pred], service_id)
                if quality is None:
                    dead = True
                    break
                qualities.append(quality)
            if dead:
                continue
            q = ref_mean(qualities)
            scored.append((service_id, utility, utility * q, q))
        if not scored:
            return RefOutcome(error="no-admissible", error_task=task)
        scored.sort(key=lambda row: (-row[2], row[0]))
        queues[task] = scored
        selected[task] = scored[0][0]
        finals[task] = scored[0][2]
    score = 1.0
    for task in order:
        score *= finals[task]
    return RefOutcome(
        assignment=selected, finals=finals, score=score, queues=queues
    )


def ref_first_alternative(inst: RefInstance, primary: RefOutcome) -> RefOutcome:
    """Exhaustive enumeration of the one-swap (second queue entry) variants."""
    order = ref_topological(inst.tasks, inst.edges)
    preds = {t: sorted(a for a, b in inst.edges if b == t) for t in order}
    succs = {t: sorted(b for a, b in inst.edges if a == t) for t in order}
    assert primary.assignment is not None and primary.queues is not None
    swappable = [t for t in order if len(primary.queues[t]) >= 2]
    if not swappable:
        return RefOutcome(error="no-alternative")
    best: RefOutcome | None = None
    best_key = None
    for task in swappable:
        second_id, second_u, second_f, second_q = primary.queues[task][1]
        assignment = dict(primary.assignment)
        assignment[task] = second_id
        finals = dict(primary.finals)
        finals[task] = second_f
        ok = True
        for succ in succs[task]:
            qualities = []
            for pred in preds[succ]:
                quality = ref_link(inst, assignment[pred], assignment[succ])
                if quality is None:
                    ok = False
                    break
                qualities.append(quality)
            if not ok:
                break
            q = ref_mean(qualities)
            utility = next(
                row[1] for row in primary.queues[succ] if row[0] == assignment[succ]
            )
            finals[succ] = utility * q
        if not ok:
            continue
        score = 1.0
        for t in order:
            score *= finals[t]
        key = (-score, order.index(task), second_id)
        if best_key is None or key < best_key:
            best_key = key
            best = RefOutcome(assignment=assignment, finals=finals, score=score)
    if best is None:
        return RefOutcome(error="no-alternative")
    return best


def ref_replace(
    inst: RefInstance, primary: RefOutcome, task: str, failed_service: str
) -> RefOutcome:
    order = ref_topological(inst.tasks, inst.edges)
    preds = sorted(a for a, b in inst.edges if b == task)
    succs = sorted(b for a, b in inst.edges if a == task)
    assert primary.assignment is not None and primary.queues is not None
    rescored: list[tuple[str, float, float, float]] = []
    for service_id, utility, _, _ in primary.queues[task]:
        if service_id == failed_service:
            continue
        sides = []
        dead = False
        if preds:
            qualities = []
            for pred in preds:
                quality = ref_link(inst, primary.assignment[pred], service_id)
                if quality is None:
                    dead = True
                    break
                qualities.append(quality)
            if dead:
                continue
            sides.append(ref_mean(qualities))
        if succs:
            qualities = []
            for succ in succs:
                quality = ref_link(inst, service_id, primary.assignment[succ])
                if quality is None:
                    dead = True
                    break
                qualities.append(quality)
            if dead:
                continue
            sides.append(ref_mean(qualities))
        q = ref_mean(sides) if sides else 1.0
        rescored.append((service_id, utility, utility * q, q))
    if not rescored:
        return RefOutcome(error="no-replacement", error_task=task)
    rescored.sort(key=lambda row: (-row[2], row[0]))
    head = rescored[0]
    assignment = dict(primary.assignment)
    finals = dict(primary.finals)
    assignment[task] = head[0]
    finals[task] = head[2]
    score = 1.0
    for t in order:
        score *= finals[t]
    return RefOutcome(assignment=assignment, finals=finals, score=score)


# ----------------------------------------------------- random instance builder

def random_instance(rng: random.Random, max_tasks: int = 5, max_cands: int = 5) -> RefInstance:
    n_tasks = rng.randint(1, max_tasks)
    tasks = [f"t{i:02d}" for i in range(n_tasks)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n_tasks):
        n_preds = rng.randint(1, min(2, i))
        for j in rng.sample(range(i), n_preds):
            edges.append((tasks[j], tasks[i]))
    edges.sort()

    n_concepts = rng.randint(6, 14)
    concepts = [f"K{i:02d}" for i in range(n_concepts)]
    subclass: set[tuple[str, str]] = set()
    for i in range(1, n_concepts):
        for j in rng.sample(range(i), rng.randint(0, min(2, i))):
            subclass.add((concepts[i], concepts[j]))
    # aliases are fresh edge-free concepts, so equivalence never forms a cycle
    equiv: set[tuple[str, str]] = set()
    for i in range(rng.randint(0, 2)):
        alias = f"A{i:02d}"
        concepts.append(alias)
        equiv.add((alias, rng.choice(concepts[:n_concepts])))

    def reaches(a: str, b: str) -> bool:
        frontier, seen = [a], {a}
        while frontier:
            cur = frontier.pop()
            if cur == b:
                return True
            for child, parent in subclass:
                if child == cur and parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return False

    disjoint: set[tuple[str, str]] = set()
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(concepts[:n_concepts], 2)
        if not reaches(a, b) and not reaches(b, a):
            disjoint.add((a, b))
    taxonomy = RefTaxonomy(set(concepts), subclass, equiv, disjoint)

    candidates: dict[str, list[tuple[str, float]]] = {}
    interfaces: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for task in tasks:
        rows = []
        for j in range(rng.randint(1, max_cands)):
            service_id = f"{task}_s{j:02d}"
            # occasional duplicate utilities exercise the id tie-break
            utility = round(rng.uniform(0.05, 1.0), rng.choice([1, 3, 6]))
            rows.append((service_id, utility))
            n_in = 0 if rng.random() < 0.05 else rng.randint(1, 2)
            n_out = 0 if rng.random() < 0.05 else rng.randint(1, 2)
            interfaces[service_id] = (
                tuple(rng.sample(concepts, n_in)),
                tuple(rng.sample(concepts, n_out)),
            )
        candidates[task] = rows
    return RefInstance(tasks, edges, candidates, interfaces, taxonomy)


# --------------------------------------------------- adapters into the engine

def engine_inputs(inst: RefInstance):
    """Express a reference instance as the engine's own input structures."""
    taxonomy = Taxonomy(
        frozenset(inst.taxonomy.concepts),
        frozenset(inst.taxonomy.subclass),
        frozenset(inst.taxonomy.equiv),
        frozenset(inst.taxonomy.disjoint),
    )
    plan = CompositionPlan(frozenset(inst.tasks), frozenset(inst.edges))
    records = []
    eligible = {}
    for task, rows in inst.candidates.items():
        eligible[task] = [
            ScoredService(sid, 1, utility)
            for sid, utility in rows
        ]
        for sid, _ in rows:
            ins, outs = inst.interfaces[sid]
            records.append(RegistryRecord(sid, task, {}, ins, outs))
    return plan, eligible, taxonomy, Registry([], records)


def engine_outcome(inst: RefInstance):
    """Engine build result as (graph, composite) or a (kind, task) error marker."""
    plan, eligible, taxonomy, registry = engine_inputs(inst)
    try:
        graph, composite = build_search_graph(plan, eligible, taxonomy, registry)
    except NoEligibleCandidate as err:
        return None, ("no-eligible", err.task)
    except NoAdmissibleLink as err:
        return None, ("no-admissible", err.task)
    return (graph, composite), None
