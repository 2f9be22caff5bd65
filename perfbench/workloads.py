"""The three workloads: how each sets up, what one op does, and its records.

Every op's inputs come from the run seed and the op index only, so two runs
with one seed make the same ops. `op` is the untraced engine call that the
end-to-end metrics time; `traced_op` does the same work through the traced
replica and also returns the op's work counts.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from qoscompose import (
    CompositeService,
    UserRequest,
    compose_with_graph,
    load_config,
    load_plan,
    load_registry,
    load_taxonomy,
    replace_unavailable,
)

from inputs import FILES, Shape, draw_ranges, write_inputs
from pipeline import Tracer, render, render_one, traced_compose

FIXTURE_SCORE = 0.5625


def op_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def load_inputs(input_dir: Path, tracer: Tracer | None = None):
    """Load the four input files the way `qoscompose compose` does."""
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    with span("load_taxonomy"):
        taxonomy = load_taxonomy(str(input_dir / "taxonomy.txt"))
    with span("load_plan"):
        plan = load_plan(str(input_dir / "plan.json"), taxonomy)
    with span("load_registry"):
        registry = load_registry(str(input_dir / "registry.csv"))
    with span("load_config"):
        config, request = load_config(str(input_dir / "config.json"))
    return taxonomy, plan, registry, config, request


@dataclass
class Composed:
    primary: CompositeService
    alternative: CompositeService | None
    text: str
    graph: object = None

    def same(self, other: "Composed") -> bool:
        return (self.primary, self.alternative, self.text) == (
            other.primary, other.alternative, other.text,
        )

    def kept(self) -> "Composed":
        """The result without its search graph, small enough to keep."""
        return Composed(self.primary, self.alternative, self.text)


def _score_consistent(graph, composite: CompositeService) -> bool:
    score = 1.0
    for task in graph.order:
        score *= composite.final_utilities[task]
    return score == composite.score and set(composite.assignment) == set(graph.order)


@dataclass
class Fixture:
    """`qoscompose compose` on the shipped fixtures, minus interpreter start."""

    root: Path
    seed: int
    name: str = "fixture"
    expected: str | None = None
    # op index -> result, for the sampled ops
    records: dict[int, Composed] = field(default_factory=dict)

    @property
    def input_dir(self) -> Path:
        return self.root / "fixtures"

    def generate(self) -> None:
        pass

    def setup(self, tracer: Tracer | None = None) -> None:
        pass

    def prepare(self, i: int) -> None:
        return None

    def op(self, _args) -> Composed:
        taxonomy, plan, registry, config, request = load_inputs(self.input_dir)
        graph, primary, alternative = compose_with_graph(
            request, plan, registry, taxonomy, config
        )
        return Composed(primary, alternative, render(graph, primary, alternative), graph)

    def traced_op(self, _args, t: Tracer) -> tuple[Composed, dict]:
        taxonomy, plan, registry, config, request = load_inputs(self.input_dir, t)
        graph, primary, alternative, counts = traced_compose(
            t, request, plan, registry, taxonomy, config
        )
        with t.span("composite_report"):
            text = render(graph, primary, alternative)
        return Composed(primary, alternative, text, graph), counts

    def after_op(self, i: int, args, result: Composed, sampled: bool) -> bool:
        """Cheap check on every op; keeps what the oracle check needs."""
        if result is None:
            return False
        if self.expected is None:
            self.expected = result.text
        if sampled:
            self.records[i] = result.kept()
        return result.text == self.expected and result.primary.score == FIXTURE_SCORE

    def recorded(self):
        """Yield (op index, op arguments, result) for every sampled op."""
        for i, result in self.records.items():
            yield i, None, result

    def compose_inputs(self, _args):
        """(request, plan, registry, taxonomy, config) of one op."""
        taxonomy, plan, registry, config, request = load_inputs(self.input_dir)
        return request, plan, registry, taxonomy, config


@dataclass
class Catalog:
    """A broker's loaded catalog answering a stream of distinct requests."""

    root: Path
    seed: int
    name: str = "catalog"
    shape: Shape = Shape(tasks=100, candidates=50, attributes=3, skip_edges=False)
    records: dict[int, tuple[UserRequest, Composed]] = field(default_factory=dict)

    @property
    def input_dir(self) -> Path:
        return self.root / ".perfbench_work" / f"{self.name}-{self.seed}"

    def generate(self) -> None:
        write_inputs(self.input_dir, self.shape, self.seed)

    def setup(self, tracer: Tracer | None = None) -> None:
        (self.taxonomy, self.plan, self.registry, self.config, _) = load_inputs(
            self.input_dir, tracer
        )

    def prepare(self, i: int) -> UserRequest:
        ranges = draw_ranges(op_rng(self.seed, i), self.shape.attributes)
        return UserRequest(
            {k: (lo, hi) for k, (lo, hi) in ranges.items()},
            {k: rank + 1 for rank, k in enumerate(ranges)},
        )

    def op(self, request: UserRequest) -> Composed:
        graph, primary, alternative = compose_with_graph(
            request, self.plan, self.registry, self.taxonomy, self.config
        )
        return Composed(primary, alternative, render(graph, primary, alternative), graph)

    def traced_op(self, request: UserRequest, t: Tracer) -> tuple[Composed, dict]:
        graph, primary, alternative, counts = traced_compose(
            t, request, self.plan, self.registry, self.taxonomy, self.config
        )
        with t.span("composite_report"):
            text = render(graph, primary, alternative)
        return Composed(primary, alternative, text, graph), counts

    def after_op(self, i: int, request, result: Composed, sampled: bool) -> bool:
        if result is None:
            return False
        if sampled:
            self.records[i] = (request, result.kept())
        ok = _score_consistent(result.graph, result.primary)
        if result.alternative is not None:
            ok = ok and _score_consistent(result.graph, result.alternative)
        return ok

    def recorded(self):
        for i, (request, result) in self.records.items():
            yield i, request, result

    def compose_inputs(self, request):
        return request, self.plan, self.registry, self.taxonomy, self.config


@dataclass
class Replaced:
    composite: CompositeService
    text: str

    def same(self, other: "Replaced") -> bool:
        return (self.composite, self.text) == (other.composite, other.text)


@dataclass
class Failover:
    """Repeated failures of selected services in one composed 40-task DAG."""

    root: Path
    seed: int
    name: str = "failover"
    shape: Shape = Shape(tasks=40, candidates=400, attributes=4, skip_edges=True)
    # per op: (task, failed, service, final utility, link quality, score), None
    # for a failed op; the cheap check proves nothing else changed, so these
    # small diffs rebuild every composite of the run
    steps: list[tuple | None] = field(default_factory=list)
    sampled: set[int] = field(default_factory=set)
    traced_setup_same: bool | None = None  # set by a traced set-up

    @property
    def input_dir(self) -> Path:
        return self.root / ".perfbench_work" / f"{self.name}-{self.seed}"

    def generate(self) -> None:
        write_inputs(self.input_dir, self.shape, self.seed)

    def setup(self, tracer: Tracer | None = None) -> None:
        (self.taxonomy, self.plan, self.registry, self.config, self.request) = (
            load_inputs(self.input_dir, tracer)
        )
        self.graph, self.initial, self.initial_alternative = compose_with_graph(
            self.request, self.plan, self.registry, self.taxonomy, self.config
        )
        self.current = self.initial
        if tracer is not None:
            # spans for the layers that only set-up runs here (they add to setup_s)
            _, primary, alternative, _ = traced_compose(
                tracer, self.request, self.plan, self.registry, self.taxonomy, self.config
            )
            self.traced_setup_same = (primary, alternative) == (
                self.initial, self.initial_alternative,
            )

    def prepare(self, i: int) -> tuple[CompositeService, str, str]:
        task = op_rng(self.seed, i).choice(self.graph.order)
        return self.current, task, self.current.assignment[task]

    def op(self, args) -> Replaced:
        before, task, failed = args
        after = replace_unavailable(
            self.graph, before, (task, failed), self.taxonomy, self.registry
        )
        return Replaced(after, render_one(self.graph, after))

    def traced_op(self, args, t: Tracer) -> tuple[Replaced, dict]:
        before, task, failed = args
        with t.span("replace_unavailable"):
            after = replace_unavailable(
                self.graph, before, (task, failed), self.taxonomy, self.registry
            )
        with t.span("composite_report"):
            text = render_one(self.graph, after)
        return Replaced(after, text), {"rescored_entries": len(self.graph.queues[task]) - 1}

    def after_op(self, i: int, args, result: Replaced | None, sampled: bool) -> bool:
        """Carry the patched composite into the next op; check only `task` moved."""
        before, task, failed = args
        if sampled:
            self.sampled.add(i)
        if result is None:
            self.steps.append(None)
            return False
        after = result.composite
        self.steps.append(
            (task, failed, after.assignment[task], after.final_utilities[task],
             after.link_qualities[task], after.score)
        )
        self.current = after
        others = [t for t in self.graph.order if t != task]
        return after.assignment[task] != failed and all(
            after.assignment[t] == before.assignment[t]
            and after.final_utilities[t] == before.final_utilities[t]
            and after.link_qualities[t] == before.link_qualities[t]
            for t in others
        )

    def history(self):
        """Yield (op index, composite before, task, failed, composite after)."""
        before = self.initial
        for i, step in enumerate(self.steps):
            if step is None:
                continue
            task, failed, service, final, link, score = step
            after = CompositeService(
                {**before.assignment, task: service},
                {**before.final_utilities, task: final},
                {**before.link_qualities, task: link},
                score,
            )
            yield i, before, task, failed, after
            before = after

    def recorded(self):
        for i, before, task, failed, after in self.history():
            if i in self.sampled:
                yield i, (before, task, failed), Replaced(after, render_one(self.graph, after))


WORKLOADS = {"fixture": Fixture, "catalog": Catalog, "failover": Failover}


def input_files(workload) -> list[Path]:
    return [workload.input_dir / f for f in FILES]
