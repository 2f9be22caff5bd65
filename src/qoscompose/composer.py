"""Greedy composite selection over a task DAG of priority queues.

Tasks are processed in topological order. Source-task queues rank candidates
by utility alone; every later queue ranks them by final utility
F = U * q(link), where q is the mean semantic quality of the links coming in
from the already-selected predecessor services. The composite is the chain of
queue heads; a one-swap variant and an availability-replacement rule reuse
the same queues.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

from .cba import Classifier, train_classifier
from .errors import (
    CycleDetected,
    EngineError,
    NoAdmissibleLink,
    NoAlternative,
    NoEligibleCandidate,
    NoReplacementCandidate,
    NotSelectedService,
    UnknownTask,
)
from .leveling import (
    Basis,
    LevelKey,
    ScoredService,
    UserRequest,
    filter_eligible,
    level_basis,
    score_basis,
    synthesize_training_set,
)
from .ontology import MatchType, Taxonomy, interface_quality, match_type
from .qos import NormalizedQoSVector, QoSVector, compute_extremes, normalize

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
    tasks: frozenset[str]
    edges: frozenset[tuple[str, str]]
    # edge -> declared (out_concept, in_concept) pairs; documents the intended
    # data flow, the operative pairs come from the concrete service interfaces
    link_pairs: dict[tuple[str, str], tuple[tuple[str, str], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for a, b in self.edges:
            for task in (a, b):
                if task not in self.tasks:
                    raise UnknownTask(f"edge endpoint {task!r} is not a plan task")
        for edge in self.link_pairs:
            if edge not in self.edges:
                raise UnknownTask(f"link pairs declared for non-edge {edge!r}")
        topological_order(self.tasks, self.edges)


def topological_order(
    tasks: frozenset[str], edges: frozenset[tuple[str, str]]
) -> list[str]:
    """Kahn's algorithm; ready tasks leave in lexicographic order."""
    indeg = {t: 0 for t in tasks}
    succs: dict[str, list[str]] = {t: [] for t in tasks}
    for a, b in sorted(edges):
        indeg[b] += 1
        succs[a].append(b)
    ready = [t for t in sorted(tasks) if indeg[t] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        task = heapq.heappop(ready)
        order.append(task)
        for nxt in succs[task]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(tasks):
        stuck = sorted(t for t in tasks if indeg[t] > 0)
        raise CycleDetected(f"plan edges form a cycle through {stuck}")
    return order


@dataclass(slots=True)
class QueueEntry:
    service_id: str
    utility: float
    final_utility: float
    link_quality: float


@dataclass
class SearchGraph:
    order: list[str]
    # task -> entries sorted by final utility desc, service_id asc
    queues: dict[str, list[QueueEntry]]
    preds: dict[str, list[str]]
    succs: dict[str, list[str]]
    taxonomy: Taxonomy
    services: dict[str, "RegistryRecord"]
    # task -> service_id -> its queue entry
    entries: dict[str, dict[str, QueueEntry]]


@dataclass
class CompositeService:
    assignment: dict[str, str]
    final_utilities: dict[str, float]
    link_qualities: dict[str, float]
    score: float


def _mean_link(
    taxonomy: Taxonomy,
    services: dict[str, "RegistryRecord"],
    links: Iterable[tuple[str, str]],
) -> float | None:
    """Mean quality over one side's (from_service, to_service) links.

    Each link's quality comes from the taxonomy's memo over the two services'
    interfaces. None as soon as one link is inadmissible; `links` must not be
    empty.
    """
    qualities: list[float] = []
    for from_service, to_service in links:
        quality = interface_quality(
            taxonomy, services[from_service].outputs, services[to_service].inputs
        )
        if quality is None:
            return None
        qualities.append(quality)
    return sum(qualities) / len(qualities)


def _rank_queue(entries: list[QueueEntry]) -> None:
    """Sort by final utility descending, then service id ascending, in place.

    Two stable passes on plain attributes; a reversed sort keeps the order of
    equal keys, so ties stay in service id order.
    """
    entries.sort(key=attrgetter("service_id"))
    entries.sort(key=attrgetter("final_utility"), reverse=True)


def _score(order: list[str], final_utilities: dict[str, float]) -> float:
    score = 1.0
    for task in order:
        score *= final_utilities[task]
    return score


def build_search_graph(
    plan: CompositionPlan,
    eligible_per_task: dict[str, list[ScoredService]],
    taxonomy: Taxonomy,
    registry: "Registry",
) -> tuple[SearchGraph, CompositeService]:
    """One greedy pass in topological order; returns the graph and its head composite."""
    order = topological_order(plan.tasks, plan.edges)
    preds: dict[str, list[str]] = {t: [] for t in order}
    succs: dict[str, list[str]] = {t: [] for t in order}
    for a, b in sorted(plan.edges):
        preds[b].append(a)
        succs[a].append(b)
    services = registry.services()
    queues: dict[str, list[QueueEntry]] = {}
    selected: dict[str, str] = {}
    final_utilities: dict[str, float] = {}
    link_qualities: dict[str, float] = {}
    for task in order:
        candidates = eligible_per_task.get(task, [])
        if not candidates:
            raise NoEligibleCandidate(task)
        entries: list[QueueEntry] = []
        if not preds[task]:
            for cand in candidates:
                entries.append(QueueEntry(cand.service_id, cand.utility, cand.utility, 1.0))
        else:
            # the predecessors' selections are fixed for this task, so a
            # candidate's link quality depends on its inputs alone
            link_memo: dict[tuple[str, ...], float | None] = {}
            for cand in candidates:
                inputs = services[cand.service_id].inputs
                if inputs in link_memo:
                    q = link_memo[inputs]
                else:
                    q = link_memo[inputs] = _mean_link(
                        taxonomy,
                        services,
                        ((selected[pred], cand.service_id) for pred in preds[task]),
                    )
                if q is not None:
                    entries.append(
                        QueueEntry(cand.service_id, cand.utility, cand.utility * q, q)
                    )
        if not entries:
            raise NoAdmissibleLink(task)
        _rank_queue(entries)
        queues[task] = entries
        head = entries[0]
        selected[task] = head.service_id
        final_utilities[task] = head.final_utility
        link_qualities[task] = head.link_quality
    index = {
        task: {e.service_id: e for e in entries} for task, entries in queues.items()
    }
    graph = SearchGraph(order, queues, preds, succs, taxonomy, services, index)
    composite = CompositeService(
        selected, final_utilities, link_qualities, _score(order, final_utilities)
    )
    return graph, composite


def first_alternative(
    graph: SearchGraph, primary: CompositeService
) -> CompositeService:
    """Best composite that swaps exactly one task to its queue's second entry.

    The swapped task's direct successors get their F re-evaluated against the
    new service; selections everywhere else stay as in the primary.
    """
    swappable = [t for t in graph.order if len(graph.queues[t]) >= 2]
    if not swappable:
        raise NoAlternative("every queue has exactly one entry")
    best: CompositeService | None = None
    best_key: tuple[float, int, str] | None = None
    for task in swappable:
        second = graph.queues[task][1]
        assignment = dict(primary.assignment)
        assignment[task] = second.service_id
        finals = dict(primary.final_utilities)
        links = dict(primary.link_qualities)
        finals[task] = second.final_utility
        links[task] = second.link_quality
        feasible = True
        for succ in graph.succs[task]:
            q = _mean_link(
                graph.taxonomy,
                graph.services,
                ((assignment[pred], assignment[succ]) for pred in graph.preds[succ]),
            )
            if q is None:
                feasible = False
                break
            finals[succ] = graph.entries[succ][assignment[succ]].utility * q
            links[succ] = q
        if not feasible:
            continue
        candidate = CompositeService(
            assignment, finals, links, _score(graph.order, finals)
        )
        key = (-candidate.score, graph.order.index(task), second.service_id)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    if best is None:
        raise NoAlternative("every one-swap variant breaks a semantic link")
    return best


def replace_unavailable(
    graph: SearchGraph,
    composite: CompositeService,
    failed: tuple[str, str],
    taxonomy: Taxonomy,
    registry: "Registry",
) -> CompositeService:
    """Swap out a failed selected service using two-sided neighbor link quality.

    Remaining candidates at the failed task are re-scored with
    q = mean(prev-side mean, next-side mean); a boundary node keeps its single
    side and an isolated node falls back to q = 1.
    """
    task, service_id = failed
    if task not in graph.queues:
        raise UnknownTask(f"task {task!r} is not part of the search graph")
    if composite.assignment.get(task) != service_id:
        raise NotSelectedService(
            f"{service_id!r} is not the selected service of task {task!r}"
        )
    services = registry.services()
    selected = composite.assignment
    rescored: list[QueueEntry] = []
    for entry in graph.queues[task]:
        candidate = entry.service_id
        if candidate == service_id:
            continue
        sides: list[float] = []
        if graph.preds[task]:
            prev_side = _mean_link(
                taxonomy,
                services,
                ((selected[pred], candidate) for pred in graph.preds[task]),
            )
            if prev_side is None:
                continue
            sides.append(prev_side)
        if graph.succs[task]:
            next_side = _mean_link(
                taxonomy,
                services,
                ((candidate, selected[succ]) for succ in graph.succs[task]),
            )
            if next_side is None:
                continue
            sides.append(next_side)
        q = sum(sides) / len(sides) if sides else 1.0
        rescored.append(QueueEntry(entry.service_id, entry.utility, entry.utility * q, q))
    if not rescored:
        raise NoReplacementCandidate(task)
    _rank_queue(rescored)
    head = rescored[0]
    assignment = dict(composite.assignment)
    finals = dict(composite.final_utilities)
    links = dict(composite.link_qualities)
    assignment[task] = head.service_id
    finals[task] = head.final_utility
    links[task] = head.link_quality
    return CompositeService(assignment, finals, links, _score(graph.order, finals))


@contextmanager
def _stage(name: str):
    """Tag engine errors with the pipeline stage that raised them."""
    try:
        yield
    except EngineError as err:
        if err.stage is None:
            err.stage = name
        raise


def _validate_registry(
    plan: CompositionPlan, registry: "Registry", taxonomy: Taxonomy
) -> None:
    """Every service targets a plan task and names only declared concepts.

    The registry's distinct tasks and concepts are cached on it, so a valid
    registry costs two subset tests; an invalid one is walked record by
    record to raise its first error.
    """
    distinct = registry._cache.get("tasks_concepts")
    if distinct is None:
        distinct = registry._cache["tasks_concepts"] = (
            frozenset(rec.task_id for rec in registry.records),
            frozenset(c for rec in registry.records for c in rec.inputs + rec.outputs),
        )
    tasks, concepts = distinct
    if tasks <= plan.tasks and concepts <= taxonomy.concepts:
        return
    for rec in registry.records:
        if rec.task_id not in plan.tasks:
            raise UnknownTask(
                f"service {rec.service_id!r} targets unknown task {rec.task_id!r}"
            )
        for concept in list(rec.inputs) + list(rec.outputs):
            taxonomy.rep(concept)


def _request_classifier(
    request: UserRequest, registry: "Registry", config: "EngineConfig"
) -> Classifier:
    """Train the request's classifier; errors carry the "training" stage.

    Extremes are taken across the whole registry, so the synthesized demand
    bands cover every task; this envelope is cached on the registry.
    """
    with _stage("training"):
        envelope = registry._cache.get("envelope")
        if envelope is None:
            envelope = registry._cache["envelope"] = compute_extremes(
                [QoSVector(rec.service_id, rec.values) for rec in registry.records]
            )
        training = synthesize_training_set(
            request, envelope, config.scheme, config.bins, registry.schema
        )
        return train_classifier(training, config.mining)


def _scaled_tasks(registry: "Registry") -> dict[str, list[NormalizedQoSVector]]:
    """Every task's candidates normalized against their own task's extremes.

    Cached on the registry once every task has scaled; a failure caches nothing.
    """
    scaled = registry._cache.get("scaled")
    if scaled is None:
        by_task: dict[str, list[QoSVector]] = {}
        for rec in registry.records:
            by_task.setdefault(rec.task_id, []).append(
                QoSVector(rec.service_id, rec.values)
            )
        scaled = {}
        for task, cands in by_task.items():
            extremes = compute_extremes(cands)
            scaled[task] = [normalize(c, extremes, registry.schema) for c in cands]
        registry._cache["scaled"] = scaled
    return scaled


def _level_bases(registry: "Registry", bins: int) -> dict[str, Basis]:
    """Every task's request-independent leveling inputs at `bins` (see `level_basis`).

    Cached on the registry per `bins`; equal level keys are interned across
    the whole registry.
    """
    bases = registry._cache.get(("basis", bins))
    if bases is None:
        interned: dict[LevelKey, LevelKey] = {}
        bases = registry._cache[("basis", bins)] = {
            task: level_basis(normalized, bins, interned)
            for task, normalized in _scaled_tasks(registry).items()
        }
    return bases


def rank_candidates(
    request: UserRequest, registry: "Registry", config: "EngineConfig"
) -> dict[str, list[ScoredService]]:
    """Scale, level, and threshold-filter every task's candidates.

    Only training and the per-candidate level lookup depend on the request:
    scaling, discretization and each candidate's mean are computed once per
    registry (see `_scaled_tasks` and `_level_bases`).
    """
    classifier = _request_classifier(request, registry, config)
    with _stage("scaling"):
        _scaled_tasks(registry)
    with _stage("classification"):
        return {
            task: filter_eligible(
                score_basis(basis, classifier, config.scheme), config.threshold
            )
            for task, basis in _level_bases(registry, config.bins).items()
        }


def compose_with_graph(
    request: UserRequest,
    plan: CompositionPlan,
    registry: "Registry",
    taxonomy: Taxonomy,
    config: "EngineConfig",
) -> tuple[SearchGraph, CompositeService, CompositeService | None]:
    """Full pipeline, also exposing the search graph for reporting/replacement."""
    with _stage("validation"):
        _validate_registry(plan, registry, taxonomy)
    eligible = rank_candidates(request, registry, config)
    with _stage("selection"):
        graph, primary = build_search_graph(plan, eligible, taxonomy, registry)
    with _stage("alternative"):
        try:
            alternative: CompositeService | None = first_alternative(graph, primary)
        except NoAlternative:
            alternative = None
    return graph, primary, alternative


def compose(
    request: UserRequest,
    plan: CompositionPlan,
    registry: "Registry",
    taxonomy: Taxonomy,
    config: "EngineConfig",
) -> tuple[CompositeService, CompositeService | None]:
    """End-to-end selection: primary composite plus best one-swap alternative (or None)."""
    _, primary, alternative = compose_with_graph(
        request, plan, registry, taxonomy, config
    )
    return primary, alternative


def composite_report(graph: SearchGraph, composite: CompositeService) -> dict:
    """JSON-ready view of a composite with stable key and task ordering."""
    tasks = []
    for task in graph.order:
        service_id = composite.assignment[task]
        entry = graph.entries[task][service_id]
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
                            "match": MATCH_LABELS[match_type(graph.taxonomy, out, inp)],
                        }
                        for out in graph.services[from_service].outputs
                        for inp in graph.services[service_id].inputs
                    ],
                }
            )
        tasks.append(
            {
                "task": task,
                "service": service_id,
                "utility": entry.utility,
                "link_quality": composite.link_qualities[task],
                "final_utility": composite.final_utilities[task],
                "links": links,
            }
        )
    return {"tasks": tasks, "score": composite.score}
