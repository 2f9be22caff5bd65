"""Greedy composite selection over a task DAG of priority queues.

Tasks are processed in topological order. Source-task queues rank candidates
by utility alone; every later queue ranks them by final utility
F = U * q(link), where q is the mean semantic quality of the links coming in
from the already-selected predecessor services. The composite is the chain of
queue heads; a one-swap variant reads each queue's runner-up, and an
availability-replacement rule rescores one task's queue candidates.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    CycleDetected,
    InvalidValue,
    NoAdmissibleLink,
    NoAlternative,
    NoEligibleCandidate,
    NoReplacementCandidate,
    NotSelectedService,
    UnknownConcept,
    UnknownTask,
    stage,
)
from .leveling import (
    TRAINING_MEMO_SIZE, ScoredService, UserRequest, request_signature, signature_ranker,
)
from .ontology import MatchType, Memo, Taxonomy, topological_order

if TYPE_CHECKING:
    from .data_io import EngineConfig, Registry, RegistryRecord


MATCH_LABELS: dict[MatchType, str] = {
    MatchType.EXACT: "Exact",
    MatchType.PLUGIN: "PlugIn",
    MatchType.SUBSUME: "Subsume",
    MatchType.INTERSECTION: "Intersection",
    MatchType.DISJOINT: "Disjoint",
}


@dataclass(frozen=True)
class CompositionPlan:
    """Tasks and data-flow edges of a composite, checked to form a DAG.

    Construction also keeps the plan's structure, read-only and outside the
    dataclass fields (so equality and repr see only the fields): `order`, the
    tasks in topological order with ties broken lexicographically, and
    `preds`/`succs`, each task's direct predecessors and successors in sorted
    edge order. A cycle raises CycleDetected.
    """

    tasks: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            for task in (a, b):
                if task not in self.tasks:
                    raise UnknownTask(f"edge endpoint {task!r} is not a plan task")
        preds: dict[str, list[str]] = {t: [] for t in sorted(self.tasks)}
        succs: dict[str, list[str]] = {t: [] for t in preds}
        for a, b in sorted(self.edges):
            preds[b].append(a)
            succs[a].append(b)
        order = topological_order(preds)
        if len(order) != len(preds):
            stuck = sorted(preds.keys() - set(order))
            raise CycleDetected(f"plan edges form a cycle through {stuck}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "preds", preds)
        object.__setattr__(self, "succs", succs)


class QueueEntry(NamedTuple):
    service_id: str
    utility: float
    final_utility: float
    link_quality: float


@dataclass
class SearchGraph:
    """One selection: each queue's head and runner-up, and what the rest is built
    from, a task at a time, on first read; replacement and reports read a task's
    utility index, not its queue. `compose_with_graph` shares it among the
    requests of one training signature; nothing it holds may be mutated."""

    # order, preds and succs are the plan's own, read-only
    order: list[str]
    preds: dict[str, list[str]]
    succs: dict[str, list[str]]
    taxonomy: Taxonomy
    services: dict[str, "RegistryRecord"]
    # task -> its eligible services, in record order
    rank: Callable[[str], list[ScoredService]]
    # task -> the first two entries of its queue (or its only one), head first
    heads: dict[str, list[QueueEntry]]
    # task -> service id -> utility, for the tasks `by_utility` has read
    index: dict[str, dict[str, float]] = field(default_factory=dict)

    def _scored(
        self, task: str, eligible: list[ScoredService]
    ) -> Iterator[tuple[float, str, float, float]]:
        """(-F, service id, U, q) of each admissible candidate, in eligible order.

        Rows sort in queue order: final utility descending, then service id.
        The predecessors' selections are fixed for this task, so a candidate's
        link quality depends on its inputs alone. A source task's q is 1.
        """
        side = _side(self, [self.heads[pred][0].service_id for pred in self.preds[task]], True)
        services = self.services
        for cand in eligible:
            q = side[services[cand.service_id].inputs]
            if q is not None:
                yield -cand.utility * q, cand.service_id, cand.utility, q

    @cached_property
    def queues(self) -> dict[str, list[QueueEntry]]:
        """task -> entries sorted by final utility desc, service_id asc."""
        queues = {}
        for task in self.order:
            rows = sorted(self._scored(task, self.rank(task)))
            queues[task] = [QueueEntry(s, u, -f, q) for f, s, u, q in rows]
        return queues

    def by_utility(self, task: str) -> dict[str, float]:
        """Service id -> utility of each candidate in `task`'s queue, by utility
        desc, service_id asc; built on the task's first read and kept in `index`."""
        index = self.index.get(task)
        if index is None:
            rows = sorted((-u, s, u) for _, s, u, _ in self._scored(task, self.rank(task)))
            index = self.index[task] = {s: u for _, s, u in rows}
        return index

    def utility(self, task: str, service_id: str) -> float:
        """A service's utility; only a service outside the heads reads `by_utility`."""
        for head in self.heads[task]:
            if head.service_id == service_id:
                return head.utility
        return self.by_utility(task)[service_id]


class CompositeService(NamedTuple):
    assignment: dict[str, str]
    final_utilities: dict[str, float]
    link_qualities: dict[str, float]
    score: float


def _side(graph: SearchGraph, neighbours: list[str], downstream: bool) -> dict:
    """Mean link quality between a candidate and the fixed `neighbours` services,
    keyed by the candidate's inputs when it is `downstream` of them, else by its outputs.

    None as soon as one link is inadmissible; 1.0 with no neighbours. A single
    upstream neighbour's map is the taxonomy's memo of its outputs; any other
    side is memoized for this call only.
    """
    links, services = graph.taxonomy.links, graph.services
    if downstream and len(neighbours) == 1:
        return links[services[neighbours[0]].outputs]

    def mean(interface: tuple[str, ...]) -> float | None:
        # added left to right, as `leveling.level_bases` adds a mean
        total = 0.0
        for neighbour in neighbours:
            record = services[neighbour]
            q = links[record.outputs][interface] if downstream else links[interface][record.inputs]
            if q is None:
                return None
            total += q
        return total / len(neighbours) if neighbours else 1.0

    return Memo(mean)


def _score(order: list[str], final_utilities: dict[str, float]) -> float:
    score = 1.0
    for task in order:
        score *= final_utilities[task]
    return score


def _patched(graph: SearchGraph, base: CompositeService, assignment: dict[str, str],
             finals: dict[str, float], links: dict[str, float]) -> CompositeService:
    """A new composite that shares no dict with `base`: `base` with the given tasks'
    service, F and q replaced, scored by `_score`."""
    finals = {**base.final_utilities, **finals}
    return CompositeService({**base.assignment, **assignment}, finals,
                            {**base.link_qualities, **links}, _score(graph.order, finals))


def build_search_graph(
    plan: CompositionPlan,
    eligible_per_task: dict[str, list[ScoredService]],
    taxonomy: Taxonomy,
    registry: "Registry",
) -> tuple[SearchGraph, CompositeService]:
    """One greedy pass in topological order; returns the graph and its head composite.

    Each task keeps its queue's first two entries; the rest is built on first read.
    A NaN utility has no rank, so it is refused with InvalidValue.
    """
    return _build(plan, eligible_per_task.get, taxonomy, registry)


def _build(plan: CompositionPlan, rank: Callable[[str], list[ScoredService] | None],
           taxonomy: Taxonomy, registry: "Registry") -> tuple[SearchGraph, CompositeService]:
    """`build_search_graph`, asking `rank` for a task's eligible list as selection reaches it."""
    graph = SearchGraph(plan.order, plan.preds, plan.succs, taxonomy, registry.services, rank, {})
    for task in plan.order:
        candidates = rank(task)
        if not candidates:
            raise NoEligibleCandidate(task)
        nan = [cand.service_id for cand in candidates if cand.utility != cand.utility]
        if nan:
            raise InvalidValue(f"task {task!r}: service {nan[0]!r} has a NaN utility")
        rows = heapq.nsmallest(2, graph._scored(task, candidates))
        if not rows:
            raise NoAdmissibleLink(task)
        graph.heads[task] = [QueueEntry(s, u, -f, q) for f, s, u, q in rows]
    return graph, _head_composite(graph)


def _head_composite(graph: SearchGraph) -> CompositeService:
    """The composite of every queue's head, new on each call."""
    heads = {task: entries[0] for task, entries in graph.heads.items()}
    finals = {task: head.final_utility for task, head in heads.items()}
    return CompositeService(
        {task: head.service_id for task, head in heads.items()}, finals,
        {task: head.link_quality for task, head in heads.items()}, _score(graph.order, finals),
    )


def first_alternative(
    graph: SearchGraph, primary: CompositeService
) -> CompositeService:
    """Best composite that swaps exactly one task to its queue's second entry.

    The swapped task's direct successors get their F re-evaluated against the
    new service; selections everywhere else stay as in the primary. Each
    variant is scored by `_score`, and only the best one is built.
    """
    order, chosen, finals = graph.order, primary.assignment, primary.final_utilities
    swappable = [(i, t) for i, t in enumerate(order) if len(graph.heads[t]) >= 2]
    if not swappable:
        raise NoAlternative("every queue has exactly one entry")
    variants = []  # (-score, position, service id, new finals, new links); positions differ
    for position, task in swappable:
        second = graph.heads[task][1]
        # the F and link qualities where the variant differs from the primary
        new_finals = {task: second.final_utility}
        new_links = {task: second.link_quality}
        for succ in graph.succs[task]:
            neighbours = [second.service_id if pred == task else chosen[pred]
                          for pred in graph.preds[succ]]
            q = _side(graph, neighbours, True)[graph.services[chosen[succ]].inputs]
            if q is None:
                break
            new_finals[succ] = graph.utility(succ, chosen[succ]) * q
            new_links[succ] = q
        else:
            score = _score(order, {**finals, **new_finals})
            variants.append((-score, position, second.service_id, new_finals, new_links))
    if not variants:
        raise NoAlternative("every one-swap variant breaks a semantic link")
    _, position, service_id, new_finals, new_links = min(variants)
    return _patched(graph, primary, {order[position]: service_id}, new_finals, new_links)


def replace_unavailable(
    graph: SearchGraph,
    composite: CompositeService,
    failed: tuple[str, str],
    taxonomy: Taxonomy,
    registry: "Registry",
) -> CompositeService:
    """Swap out a failed selected service using two-sided neighbor link quality.

    Remaining candidates at the failed task are re-scored on F = U * q with
    q = mean(prev-side mean, next-side mean); a boundary node keeps its single
    side and an isolated node falls back to q = 1. Every neighbor's selection
    stays fixed, so the prev side is probed once per distinct input interface
    and the next side once per distinct output interface. No queue is built:
    the head is the least (-F, service id) row. Candidates are visited in the
    task's `by_utility` index, highest first, and the scan stops at the first whose
    U is below a positive best F so far. That stop is exact: q is a mean of
    `MATCH_QUALITY` values, so 0 < q <= 1 and F <= max(U, 0) under rounding.
    It is strict, since a candidate with U equal to the best F and q = 1 ties
    on F and wins with a smaller service id. `taxonomy` and `registry` must be
    the graph's own (InvalidValue).
    """
    if taxonomy is not graph.taxonomy:
        raise InvalidValue("the taxonomy is not the one the search graph was built from")
    if registry.services is not graph.services:
        raise InvalidValue("the registry is not the one the search graph was built from")
    task, service_id = failed
    if task not in graph.preds:
        raise UnknownTask(f"task {task!r} is not part of the search graph")
    if composite.assignment.get(task) != service_id:
        raise NotSelectedService(
            f"{service_id!r} is not the selected service of task {task!r}"
        )
    services, selected = graph.services, composite.assignment
    preds, succs = graph.preds[task], graph.succs[task]
    sides = []  # (side memo, the candidate interface that keys it) of each side with neighbours
    if preds:
        sides.append((_side(graph, [selected[pred] for pred in preds], True), "inputs"))
    if succs:
        sides.append((_side(graph, [selected[succ] for succ in succs], False), "outputs"))
    best = None  # the least (-F, service id, q) so far heads the rescored queue
    for candidate, utility in graph.by_utility(task).items():
        if best is not None and utility < -best[0] > 0:  # F <= max(U, 0) < best F
            break
        if candidate == service_id:
            continue
        record, total = services[candidate], 0.0
        for side, key in sides:
            q = side[getattr(record, key)]
            if q is None:
                break
            total += q
        else:
            q = total / len(sides) if sides else 1.0
            row = (-utility * q, candidate, q)
            if best is None or row < best:
                best = row
    if best is None:
        raise NoReplacementCandidate(task)
    final, candidate, q = best
    return _patched(graph, composite, {task: candidate}, {task: -final}, {task: q})


def _validate_registry(
    plan: CompositionPlan, registry: "Registry", taxonomy: Taxonomy
) -> None:
    """Each service has a unique id, targets a plan task and names declared concepts.

    One walk over the records in record order, each record's id before its
    task, its inputs and then its outputs, raising the first miss.
    """
    tasks, concepts, seen = plan.tasks, taxonomy.concepts, set()
    for rec in registry.records:
        if rec.service_id in seen:
            raise InvalidValue(f"service id {rec.service_id!r} is repeated")
        seen.add(rec.service_id)
        if rec.task_id not in tasks:
            raise UnknownTask(
                f"service {rec.service_id!r} targets unknown task {rec.task_id!r}"
            )
        for concept in rec.inputs + rec.outputs:
            if concept not in concepts:
                raise UnknownConcept(
                    f"service {rec.service_id!r} names undeclared concept {concept!r}"
                )


def compose_with_graph(
    request: UserRequest,
    plan: CompositionPlan,
    registry: "Registry",
    taxonomy: Taxonomy,
    config: "EngineConfig",
) -> tuple[SearchGraph, CompositeService, CompositeService | None]:
    """Full pipeline, also exposing the search graph for reporting/replacement.

    With the inputs loaded, the result depends on the request only through
    its training signature, so it is memoized per (signature, config) in
    `registry.compose_memo`, keeping the `TRAINING_MEMO_SIZE` most recently
    used. An entry is a hit only for the plan and taxonomy objects it was
    built with; any other pair recomputes and overwrites it. Validation (until
    an entry holds the pair) and the signature's checks run first, so a
    refusal is never stored. Selection ranks a task when it reaches it; the graph,
    shared by every hit, re-ranks it on a read past the heads; composites are new.
    """
    # an entry is stored only after its plan and taxonomy passed validation
    # against this registry, so while one is held the triple is valid
    if not any(e[0] is plan and e[1] is taxonomy for e in registry.compose_memo.values()):
        with stage("validation"):
            _validate_registry(plan, registry, taxonomy)
    signature = request_signature(request, registry, config)
    memo, key = registry.compose_memo, (signature, config)
    entry = memo.get(key)
    if entry is None or entry[0] is not plan or entry[1] is not taxonomy:
        rank = signature_ranker(signature, registry, config)
        with stage("selection"):
            graph, primary = _build(plan, rank, taxonomy, registry)
        with stage("alternative"):
            try:
                alternative: CompositeService | None = first_alternative(graph, primary)
            except NoAlternative:
                alternative = None
        entry = (plan, taxonomy, graph, alternative)
    else:
        graph, alternative = entry[2], entry[3]
        primary = _head_composite(graph)
    # reinserted last, so the first key is the least recently used
    memo.pop(key, None)
    if len(memo) >= TRAINING_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = entry
    if alternative is not None:
        alternative = _patched(graph, alternative, {}, {}, {})
    return graph, primary, alternative


def composite_report(graph: SearchGraph, composite: CompositeService) -> dict:
    """JSON-ready view of a composite with stable key and task ordering."""
    tasks, taxonomy, services = [], graph.taxonomy, graph.services
    for task in graph.order:
        service_id = composite.assignment[task]
        links = []
        for pred in graph.preds[task]:
            from_service = composite.assignment[pred]
            links.append(
                {
                    "from_task": pred,
                    "from_service": from_service,
                    "pairs": [
                        {
                            "out": out,
                            "in": inp,
                            "match": MATCH_LABELS[taxonomy.matches[out, inp]],
                        }
                        for out in services[from_service].outputs
                        for inp in services[service_id].inputs
                    ],
                }
            )
        tasks.append(
            {
                "task": task,
                "service": service_id,
                "utility": graph.utility(task, service_id),
                "link_quality": composite.link_qualities[task],
                "final_utility": composite.final_utilities[task],
                "links": links,
            }
        )
    return {"tasks": tasks, "score": composite.score}
