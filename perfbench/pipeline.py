"""Spans and the traced replica of the engine's compose pipeline.

The engine has no spans of its own yet, so the traced run records them here,
around each public call that `compose_with_graph` and `rank_candidates`
make, in the same order. The replica skips only the private registry
validation and `precompute_matches`; that time stays in the untraced op and
shows up as `trace.unattributed_ms`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter_ns

from qoscompose import (
    QoSVector,
    build_classifier,
    build_search_graph,
    composite_report,
    compute_extremes,
    filter_eligible,
    first_alternative,
    mine_cars,
    normalize,
    score_candidates,
    sort_rules,
    synthesize_training_set,
)
from qoscompose.errors import NoAlternative

# span name (the public call it wraps) -> per-layer metric it adds to
LAYER_METRIC: dict[str, str] = {
    "load_taxonomy": "ontology.taxonomy_ms",
    "load_plan": "data_io.load_ms",
    "load_registry": "data_io.load_ms",
    "load_config": "data_io.load_ms",
    "compute_extremes": "qos.scale_ms",
    "normalize": "qos.scale_ms",
    "synthesize_training_set": "leveling.synthesize_ms",
    "mine_cars": "cba.mine_ms",
    "sort_rules": "cba.sort_ms",
    "build_classifier": "cba.cover_ms",
    "score_candidates": "leveling.classify_ms",
    "filter_eligible": "leveling.filter_ms",
    "build_search_graph": "composer.select_ms",
    "first_alternative": "composer.alternative_ms",
    "replace_unavailable": "composer.replace_ms",
    "composite_report": "composer.report_ms",
}
TIME_METRICS: list[str] = sorted(set(LAYER_METRIC.values()))


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op: int | str
    name: str
    start_ns: int
    end_ns: int


@dataclass
class Tracer:
    """In-memory span recorder; spans opened inside a span become its children."""

    spans: list[Span] = field(default_factory=list)
    op: int | str | None = None
    current: int | None = None
    next_id: int = 0

    def span(self, name: str, op: int | str | None = None) -> "_Scope":
        return _Scope(self, name, op)


class _Scope:
    __slots__ = ("tracer", "name", "op", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, op: int | str | None) -> None:
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self) -> "_Scope":
        t = self.tracer
        if self.op is not None:
            t.op = self.op
        self.span_id = t.next_id
        t.next_id += 1
        self.parent = t.current
        t.current = self.span_id
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        t = self.tracer
        t.current = self.parent
        t.spans.append(Span(self.span_id, self.parent, t.op, self.name, self.start, end))


def render(graph, primary, alternative) -> str:
    """The `compose` CLI's report text."""
    report = {
        "primary": composite_report(graph, primary),
        "alternative": (
            composite_report(graph, alternative) if alternative is not None else None
        ),
    }
    return json.dumps(report, indent=2) + "\n"


def render_one(graph, composite) -> str:
    """The `replace` CLI's report text."""
    return json.dumps(composite_report(graph, composite), indent=2) + "\n"


def traced_compose(t: Tracer, request, plan, registry, taxonomy, config):
    """`compose_with_graph` step by step, with a span around each public call.

    Returns (graph, primary, alternative, counts).
    """
    schema = registry.schema
    vectors = [QoSVector(rec.service_id, dict(rec.values)) for rec in registry.records]
    with t.span("compute_extremes"):
        envelope = compute_extremes(vectors)
    with t.span("synthesize_training_set"):
        training = synthesize_training_set(
            request, envelope, config.scheme, config.bins, schema
        )
    with t.span("mine_cars"):
        mined = mine_cars(training, config.mining)
    with t.span("sort_rules"):
        rules = sort_rules(mined)
    with t.span("build_classifier"):
        classifier = build_classifier(training, rules)
    by_task: dict[str, list[QoSVector]] = {}
    for vec, rec in zip(vectors, registry.records):
        by_task.setdefault(rec.task_id, []).append(vec)
    eligible = {}
    for task, cands in by_task.items():
        with t.span("compute_extremes"):
            extremes = compute_extremes(cands)
        with t.span("normalize"):
            normalized = [normalize(c, extremes, schema) for c in cands]
        with t.span("score_candidates"):
            scored = score_candidates(normalized, classifier, config.scheme, config.bins)
        with t.span("filter_eligible"):
            eligible[task] = filter_eligible(scored, config.threshold)
    with t.span("build_search_graph"):
        graph, primary = build_search_graph(plan, eligible, taxonomy, registry)
    with t.span("first_alternative"):
        try:
            alternative = first_alternative(graph, primary)
        except NoAlternative:
            alternative = None
    counts = {
        "training_rows": len(training),
        "rules_mined": len(mined),
        "rules_kept": len(classifier.rules),
        "vectors": len(vectors),
        "eligible": sum(len(v) for v in eligible.values()),
        "queue_entries": sum(len(q) for q in graph.queues.values()),
        "swappable_tasks": sum(1 for q in graph.queues.values() if len(q) >= 2),
    }
    return graph, primary, alternative, counts
