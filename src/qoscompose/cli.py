"""Command-line front end: compose, bench, generate, classify, replace."""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace as dc_replace

from .composer import (
    build_search_graph,
    compose_with_graph,
    composite_report,
    first_alternative,
    replace_unavailable,
)
from .data_io import (
    EngineConfig,
    config_field,
    default_config,
    default_request,
    generate_synthetic,
    load_composite,
    load_config,
    load_plan,
    load_registry,
    load_taxonomy,
    render_classifier,
    save_config,
    save_plan,
    save_registry,
    save_taxonomy,
)
from .errors import EngineError, NoAlternative, NotSelectedService, stage
from .leveling import default_scheme, rank_candidates, request_training


@dataclass
class BenchResult:
    tasks: int
    candidates: int
    repetitions: int
    ranking_ms: list[float]
    selection_ms: list[float]
    alternative_ms: list[float]
    classification_ms: float | None = None

    @property
    def mean_ranking_ms(self) -> float:
        return statistics.fmean(self.ranking_ms)

    @property
    def mean_selection_ms(self) -> float:
        return statistics.fmean(self.selection_ms)

    @property
    def mean_alternative_ms(self) -> float:
        return statistics.fmean(self.alternative_ms)


def _apply_overrides(args: argparse.Namespace, base: EngineConfig) -> EngineConfig:
    """Config with the command-line overrides; a bad value raises ParseError."""
    cfg = base
    if getattr(args, "threshold", None) is not None:
        with config_field("--threshold"):
            cfg = dc_replace(cfg, threshold=args.threshold)
    if getattr(args, "bins", None) is not None:
        with config_field("--bins"):
            cfg = dc_replace(cfg, bins=args.bins)
    if getattr(args, "levels", None) is not None:
        with config_field("--levels"):
            cfg = dc_replace(cfg, scheme=default_scheme(args.levels))
    return cfg


def _load_inputs(args: argparse.Namespace):
    taxonomy = load_taxonomy(args.taxonomy)
    plan = load_plan(args.plan, taxonomy)
    registry = load_registry(args.registry)
    config, request = load_config(args.config)
    config = _apply_overrides(args, config)
    return taxonomy, plan, registry, config, request


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compose(args: argparse.Namespace) -> int:
    taxonomy, plan, registry, config, request = _load_inputs(args)
    graph, primary, alternative = compose_with_graph(
        request, plan, registry, taxonomy, config
    )
    report = {
        "primary": composite_report(graph, primary),
        "alternative": (
            composite_report(graph, alternative) if alternative is not None else None
        ),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_replace(args: argparse.Namespace) -> int:
    taxonomy, plan, registry, config, request = _load_inputs(args)
    saved = load_composite(args.composite) if args.composite else None
    graph, composite, _ = compose_with_graph(request, plan, registry, taxonomy, config)
    if saved is not None:
        for task, service_id in saved.assignment.items():
            if service_id not in graph.entries.get(task, {}):
                raise NotSelectedService(
                    f"saved composite assigns {service_id!r} to {task!r}, which the "
                    f"current inputs cannot produce"
                )
        missing = [task for task in graph.order if task not in saved.assignment]
        if missing:
            raise NotSelectedService(f"saved composite assigns no service to {missing}")
        composite = saved
    with stage("replacement"):
        replaced = replace_unavailable(
            graph, composite, (args.task, args.service), taxonomy, registry
        )
    _emit(json.dumps(composite_report(graph, replaced), indent=2) + "\n", args.out)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    registry = load_registry(args.registry)
    config, request = load_config(args.config)
    config = _apply_overrides(args, config)
    _emit(render_classifier(request_training(request, registry, config)[0]), args.out)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    registry, plan, taxonomy = generate_synthetic(
        args.tasks, args.candidates, args.attributes, args.seed
    )
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    save_registry(registry, os.path.join(out_dir, "registry.csv"))
    save_plan(plan, os.path.join(out_dir, "plan.json"))
    save_taxonomy(taxonomy, os.path.join(out_dir, "taxonomy.txt"))
    save_config(
        default_config(), default_request(registry.schema), os.path.join(out_dir, "config.json")
    )
    sys.stdout.write(
        f"wrote registry.csv ({len(registry.records)} services), plan.json "
        f"({len(plan.tasks)} tasks), taxonomy.txt, config.json to {out_dir}\n"
    )
    return 0


def _parse_grid(text: str) -> tuple[list[int], list[int]]:
    task_part, sep, cand_part = text.partition("x")
    try:
        tasks = [int(tok) for tok in task_part.split(",") if tok]
        cands = [int(tok) for tok in cand_part.split(",") if tok] if sep else tasks
    except ValueError:
        raise ValueError(f"malformed benchmark grid {text!r}") from None
    if not tasks or not cands:
        raise ValueError(f"empty benchmark grid {text!r}")
    if min(tasks) < 1 or min(cands) < 1:
        raise ValueError(f"benchmark grid sizes must be positive: {text!r}")
    return tasks, cands


def run_bench(
    task_sizes: list[int],
    candidate_sizes: list[int],
    attributes: int = 4,
    repetitions: int = 20,
    seed: int = 0,
    threshold: float = 0.0,
    include_classification: bool = False,
) -> list[BenchResult]:
    """Time the ranking phase (graph build + selection + first alternative).

    The classification pipeline runs once per grid point outside the timed
    region; pass include_classification to record its one-off cost as well.
    The repetitions go round-robin over the grid points, so a burst of host
    contention spreads over every point rather than one run of them. The
    first repetition fills the taxonomy's match and link memos.
    """
    points: list[tuple] = []  # (plan, eligible, taxonomy, registry, result)
    for tasks in task_sizes:
        for cands in candidate_sizes:
            point_seed = seed * 1_000_003 + tasks * 1000 + cands
            registry, plan, taxonomy = generate_synthetic(
                tasks, cands, attributes, point_seed
            )
            request = default_request(registry.schema)
            config = dc_replace(default_config(), threshold=threshold)
            t0 = time.perf_counter()
            eligible = rank_candidates(request, registry, config)
            classification_ms = (time.perf_counter() - t0) * 1000.0
            result = BenchResult(
                tasks, cands, repetitions, [], [], [],
                classification_ms if include_classification else None,
            )
            points.append((plan, eligible, taxonomy, registry, result))
    gc.collect()  # so no garbage of earlier work is collected in the timed loop
    for _ in range(repetitions):
        for plan, eligible, taxonomy, registry, result in points:
            t1 = time.perf_counter()
            graph, primary = build_search_graph(plan, eligible, taxonomy, registry)
            t2 = time.perf_counter()
            try:
                first_alternative(graph, primary)
            except NoAlternative:
                pass
            t3 = time.perf_counter()
            result.selection_ms.append((t2 - t1) * 1000.0)
            result.alternative_ms.append((t3 - t2) * 1000.0)
            result.ranking_ms.append((t3 - t1) * 1000.0)
    return [point[-1] for point in points]


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        task_sizes, candidate_sizes = _parse_grid(args.grid)
        if args.reps < 1:
            raise ValueError(f"--reps must be at least 1, got {args.reps}")
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    results = run_bench(
        task_sizes,
        candidate_sizes,
        attributes=args.attributes,
        repetitions=args.reps,
        seed=args.seed,
        threshold=args.threshold,
        include_classification=args.include_classification,
    )
    lines = []
    header = "tasks,candidates,repetitions,mean_ranking_ms,mean_selection_ms,mean_alternative_ms"
    if args.include_classification:
        header += ",classification_ms"
    lines.append(header)
    for res in results:
        row = (
            f"{res.tasks},{res.candidates},{res.repetitions},"
            f"{res.mean_ranking_ms:.3f},{res.mean_selection_ms:.3f},"
            f"{res.mean_alternative_ms:.3f}"
        )
        if args.include_classification:
            row += f",{res.classification_ms:.3f}"
        lines.append(row)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoscompose",
        description=(
            "QoS-aware service composition: level candidates with an associative "
            "classifier, rank them over the plan's semantic links, and select a "
            "near-optimal composite plus its best one-swap alternative."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--registry", required=True, help="service registry CSV")
        p.add_argument("--plan", required=True, help="composition plan JSON")
        p.add_argument("--taxonomy", required=True, help="concept taxonomy file")
        p.add_argument("--config", required=True, help="engine config JSON")
        add_override_flags(p)

    def add_override_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--threshold", type=float, default=None, help="override eligibility threshold"
        )
        p.add_argument(
            "--levels", type=int, default=None, help="override number of QoS levels"
        )
        p.add_argument(
            "--bins", type=int, default=None, help="override discretization bins"
        )

    p_compose = sub.add_parser("compose", help="select a composite for a plan")
    add_io_flags(p_compose)
    p_compose.add_argument("--out", default=None, help="write the report here")
    p_compose.set_defaults(func=cmd_compose)

    p_replace = sub.add_parser("replace", help="simulate a failed selected service")
    add_io_flags(p_replace)
    p_replace.add_argument("--task", required=True, help="task of the failed service")
    p_replace.add_argument("--service", required=True, help="failed service id")
    p_replace.add_argument(
        "--composite", default=None, help="saved composite report to patch"
    )
    p_replace.add_argument("--out", default=None, help="write the report here")
    p_replace.set_defaults(func=cmd_replace)

    p_classify = sub.add_parser(
        "classify", help="train the request classifier and dump its rules"
    )
    p_classify.add_argument("--registry", required=True, help="service registry CSV")
    p_classify.add_argument("--config", required=True, help="engine config JSON")
    add_override_flags(p_classify)
    p_classify.add_argument("--out", default=None, help="write the classifier here")
    p_classify.set_defaults(func=cmd_classify)

    p_generate = sub.add_parser("generate", help="write a synthetic workload")
    p_generate.add_argument("--tasks", type=int, default=10)
    p_generate.add_argument("--candidates", type=int, default=10)
    p_generate.add_argument("--attributes", type=int, default=4)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--out", default=".", help="output directory")
    p_generate.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="time the ranking phase over a size grid")
    p_bench.add_argument(
        "--grid",
        default="10,20,30,40,50",
        help="task sizes, optionally 'tasksxcandidates' lists (e.g. 10,20x10,30)",
    )
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--attributes", type=int, default=4)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--threshold", type=float, default=0.0)
    p_bench.add_argument(
        "--include-classification",
        action="store_true",
        help="also report the one-off classification pipeline time",
    )
    p_bench.add_argument("--out", default=None, help="write the CSV here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as err:
        sys.stderr.write(f"error [{err.stage or 'load'}]: {err}\n")
        return err.exit_code
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
