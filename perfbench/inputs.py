"""Seeded input files for the generated workloads.

The files follow the shape of the engine's synthetic generator (a random
concept tree whose first six concepts form a subclass chain, services that
draw their interfaces from that chain, and the same four QoS value ranges),
but the code here is the benchmark's own: a change to the engine's
generator cannot change a workload. Everything is written with plain
csv/json/text code and read back by the engine's `load_*` functions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# (name, polarity, lo, hi): the value ranges of the engine's synthetic generator
ATTRIBUTES: list[tuple[str, str, float, float]] = [
    ("response_time", "-", 37.0, 4990.0),
    ("availability", "+", 7.0, 100.0),
    ("throughput", "+", 0.1, 43.1),
    ("reliability", "+", 33.0, 89.0),
]
BACKBONE = 6
FILES = ("registry.csv", "plan.json", "taxonomy.txt", "config.json")


@dataclass(frozen=True)
class Shape:
    tasks: int
    candidates: int
    attributes: int
    # a chain t1->t2->...; skip edges add t_i -> t_{i+2}, so fan-in is 2
    skip_edges: bool
    bins: int = 4
    threshold: float = 0.25


def draw_ranges(rng: random.Random, attributes: int) -> dict[str, list[float]]:
    """A request inside the value ranges whose demand floor sits below 60 %.

    The weak end of every range stays in the lower 60 % of the attribute's
    quality scale and the strong end reaches past its middle, so no
    candidate is more than two of four labels short (level 3 never occurs)
    and every task keeps eligible candidates: no operation fails.
    """
    ranges: dict[str, list[float]] = {}
    for name, polarity, lo, hi in ATTRIBUTES[:attributes]:
        span = hi - lo
        if polarity == "+":
            weak = rng.uniform(lo, lo + 0.6 * span)
            strong = rng.uniform(max(weak, lo + 0.5 * span), hi)
            ranges[name] = [weak, strong]
        else:
            weak = rng.uniform(hi - 0.6 * span, hi)
            strong = rng.uniform(lo, min(weak, hi - 0.5 * span))
            ranges[name] = [strong, weak]
    return ranges


def config_doc(shape: Shape, ranges: dict[str, list[float]], seed: int) -> dict:
    names = list(ranges)
    return {
        "request": {
            "ranges": ranges,
            "preferences": {name: i + 1 for i, name in enumerate(names)},
        },
        "levels": {"n_levels": 3, "coefficients": [1.0, 0.75, 0.25]},
        "mining": {
            "min_support": 0.01,
            "min_confidence": 0.5,
            "max_antecedent_size": None,
        },
        "bins": shape.bins,
        "threshold": shape.threshold,
        "seed": seed,
    }


def _ancestors(parents: dict[str, str], concept: str) -> set[str]:
    seen = {concept}
    while concept in parents:
        concept = parents[concept]
        seen.add(concept)
    return seen


def write_inputs(out_dir: Path, shape: Shape, seed: int) -> None:
    """Write registry.csv, plan.json, taxonomy.txt and config.json for one seed."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(2, len(str(shape.tasks)))
    cand_width = max(2, len(str(shape.candidates)))
    task_ids = [f"t{i + 1:0{width}d}" for i in range(shape.tasks)]

    concepts = [f"C{i + 1:03d}" for i in range(4 * shape.tasks)]
    backbone = concepts[:BACKBONE]
    parents = dict(zip(backbone[1:], backbone))
    for i, concept in enumerate(concepts[BACKBONE:], start=BACKBONE):
        parents[concept] = rng.choice(concepts[:i])
    off_backbone = concepts[BACKBONE:]
    disjoint: set[tuple[str, str]] = set()
    for _ in range(len(concepts) // 8):
        a, b = rng.sample(off_backbone, 2)
        if a in _ancestors(parents, b) or b in _ancestors(parents, a):
            continue
        disjoint.add((min(a, b), max(a, b)))
    with open(out_dir / "taxonomy.txt", "w") as fh:
        fh.writelines(f"concept {c}\n" for c in concepts)
        fh.writelines(f"subclass {c} {p}\n" for c, p in sorted(parents.items()))
        fh.writelines(f"disjoint {a} {b}\n" for a, b in sorted(disjoint))

    attrs = ATTRIBUTES[: shape.attributes]
    with open(out_dir / "registry.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["service_id", "task_id"]
            + [f"{name}:{pol}" for name, pol, _, _ in attrs]
            + ["inputs", "outputs"]
        )
        for task_id in task_ids:
            for j in range(shape.candidates):
                values = [repr(rng.uniform(lo, hi)) for _, _, lo, hi in attrs]
                inputs = rng.sample(backbone, rng.randint(1, 2))
                outputs = rng.sample(backbone, rng.randint(1, 2))
                writer.writerow(
                    [f"{task_id}_s{j + 1:0{cand_width}d}", task_id]
                    + values
                    + [";".join(inputs), ";".join(outputs)]
                )

    edges = [[a, b] for a, b in zip(task_ids, task_ids[1:])]
    if shape.skip_edges:
        edges += [[a, b] for a, b in zip(task_ids, task_ids[2:])]
    with open(out_dir / "plan.json", "w") as fh:
        json.dump({"tasks": task_ids, "edges": sorted(edges)}, fh, indent=2)
        fh.write("\n")

    with open(out_dir / "config.json", "w") as fh:
        json.dump(config_doc(shape, draw_ranges(rng, shape.attributes), seed), fh, indent=2)
        fh.write("\n")


def digest(paths: list[Path]) -> str:
    """sha256 over the named files, in order; equal digests mean equal inputs."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
