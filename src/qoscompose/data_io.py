"""File formats and synthetic data: registry CSV, plan/config JSON, taxonomy records.

Floats are written with repr so every format round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

from .cba import Classifier, MiningConfig, render_items
from .composer import CompositeService, CompositionPlan
from .errors import EmptyRegistry, InvalidValue, NonFiniteValue, ParseError, UnknownAttribute
from .leveling import Basis, LevelScheme, UserRequest, default_scheme, level_bases
from .ontology import Memo, Taxonomy
from .qos import AttributeExtremes, Polarity, QoSAttribute, compute_extremes


class RegistryRecord(NamedTuple):
    service_id: str
    task_id: str
    values: dict[str, float]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Registry:
    """Services plus request-independent values derived from them on first use.

    A registry must not be mutated after its first use. A failed computation
    keeps nothing, and a dataclasses.replace copy computes its own values.
    """

    schema: list[QoSAttribute]
    records: list[RegistryRecord]

    @cached_property
    def services(self) -> dict[str, RegistryRecord]:
        """service_id -> record."""
        return {rec.service_id: rec for rec in self.records}

    @cached_property
    def envelope(self) -> AttributeExtremes:
        """Extremes across the whole registry, so demand bands cover every task:
        `compute_extremes` over the records themselves, in record order."""
        return compute_extremes(self.records)

    @cached_property
    def _bases(self) -> Memo:
        # a partial, not a bound method, so the memo forms no cycle with the registry
        return Memo(partial(level_bases, self.schema, self.records))

    def level_bases(self, bins: int) -> dict[str, Basis]:
        """`leveling.level_bases` of the records, kept per `bins`; a failed sweep keeps nothing."""
        return self._bases[bins]

    @cached_property
    def compose_memo(self) -> dict[tuple, tuple]:
        """`compose_with_graph`'s results: (training signature, `EngineConfig`) ->
        (plan, taxonomy, graph, alternative), least recently used first."""
        return {}


@dataclass(frozen=True)
class EngineConfig:
    scheme: LevelScheme
    mining: MiningConfig
    bins: int = 4
    threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.bins < 2:
            raise InvalidValue("discretization needs at least 2 bins")
        if not 0.0 <= self.threshold <= 1.0:
            raise InvalidValue("eligibility threshold must lie in [0, 1]")


def default_config() -> EngineConfig:
    return EngineConfig(default_scheme(), MiningConfig())


# ---------------------------------------------------------------- registry CSV

def _parse_header(columns: list[str]) -> list[QoSAttribute]:
    if len(columns) < 5 or columns[:2] != ["service_id", "task_id"]:
        raise ParseError(
            "registry header must start with service_id,task_id and end with "
            "inputs,outputs",
            line=1,
        )
    if columns[-2:] != ["inputs", "outputs"]:
        raise ParseError("registry header must end with inputs,outputs", line=1)
    schema: list[QoSAttribute] = []
    for column in columns[2:-2]:
        name, sep, polarity = column.rpartition(":")
        if not sep or polarity not in ("+", "-") or not name:
            raise UnknownAttribute(
                f"attribute column {column!r} must look like name:+ or name:-"
            )
        if any(attr.name == name for attr in schema):
            raise ParseError(f"attribute column {column!r} repeats {name!r}", line=1)
        schema.append(QoSAttribute(name, Polarity(polarity)))
    return schema


def _row_reader(
    schema: list[QoSAttribute], line: Callable[[], int]
) -> Callable[[list[str]], RegistryRecord]:
    """The registry format's rules for one CSV row, as a function from the row to
    its record; a refusal names the line `line()` gives. Services repeat task ids
    and interfaces; equal ones share one object."""
    width, names = len(schema) + 4, [attr.name for attr in schema]
    seen: set[str] = set()
    task_ids: dict[str, str] = {}
    interfaces: dict[str, tuple[str, ...]] = {}

    def concepts(text: str) -> tuple[str, ...]:
        parsed = interfaces.get(text)
        if parsed is None:
            parsed = tuple(text.split(";")) if text else ()
            if "" in parsed:
                raise ParseError("empty concept in semicolon list", line=line())
            interfaces[text] = parsed
        return parsed

    def read(row: list[str]) -> RegistryRecord:
        if len(row) != width:
            raise ParseError(f"expected {width} columns, found {len(row)}", line=line())
        service_id, task_id = row[0], task_ids.setdefault(row[1], row[1])
        if not service_id or not task_id:
            raise ParseError("service_id and task_id must be non-empty", line=line())
        if service_id in seen:
            raise ParseError(f"duplicate service_id {service_id!r}", line=line())
        seen.add(service_id)
        values: dict[str, float] = {}
        for name, token in zip(names, row[2:-2]):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"bad numeric value {token!r} for {name}", line=line())
            if not math.isfinite(value):
                raise NonFiniteValue(f"line {line()}: {name} of {service_id!r} is {token}")
            values[name] = value
        return RegistryRecord(service_id, task_id, values, concepts(row[-2]), concepts(row[-1]))

    return read


class parse_errors:
    """Report an exception of `kinds` raised in the scope as a ParseError whose
    message is `prefix` followed by the exception's."""

    __slots__ = ("kinds", "prefix")

    def __init__(self, kinds: type | tuple[type, ...], prefix: str) -> None:
        self.kinds, self.prefix = kinds, prefix

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, self.kinds):
            raise ParseError(f"{self.prefix}{exc}") from None


def _undecodable(path: str) -> parse_errors:
    """Bytes of `path` that are not UTF-8 as a ParseError naming it."""
    return parse_errors(UnicodeDecodeError, f"{path} is not UTF-8 text: ")


def load_registry(path: str) -> Registry:
    """The registry in the CSV file at `path`; malformed CSV, such as an oversized
    field, raises ParseError at the line the reader stopped on."""
    with _undecodable(path), open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("registry file is empty", line=1)
            schema = _parse_header(header)
            records = list(map(_row_reader(schema, lambda: reader.line_num), reader))
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    if not records:
        raise EmptyRegistry(f"{path} declares a schema but no services")
    return Registry(schema, records)


def _utf8(text: str) -> bool:
    """Whether a UTF-8 file can hold `text`: a lone surrogate cannot be encoded."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _row_text(cells: list[str]) -> str:
    """`cells` joined; InvalidValue for a cell that the CSV file cannot hold as it
    is: a carriage return, which the writer leaves unquoted, a NUL, which Python
    3.10's reader refuses, a lone surrogate, or more than the reader's field limit."""
    text, limit = "".join(cells), csv.field_size_limit()
    if "\r" in text or "\0" in text or not _utf8(text) or len(text) > limit:
        for cell in cells:
            if len(cell) > limit or "\r" in cell or "\0" in cell or not _utf8(cell):
                raise InvalidValue(f"cell {cell[:40]!r} cannot be stored in the registry file")
    return text


def _cells(rec: RegistryRecord, schema: list[QoSAttribute]) -> list[str]:
    """The CSV cells `save_registry` writes for `rec`."""
    values = [repr(rec.values.get(attr.name)) for attr in schema]
    interface = [";".join(rec.inputs), ";".join(rec.outputs)]
    return [str(rec.service_id), str(rec.task_id), *values, *interface]


def save_registry(registry: Registry, path: str) -> None:
    """Write `registry` as CSV. Before the file is opened, the header goes through
    `_parse_header` and each row, as written, through `_row_reader`; a row refused
    or read back unequal to its record raises InvalidValue naming the service."""
    columns = [f"{attr.name}:{attr.polarity.value}" for attr in registry.schema]
    header = ["service_id", "task_id", *columns, "inputs", "outputs"]
    try:
        line = _row_text(header).count("\n") + 1
        schema = _parse_header(header)
    except (ParseError, UnknownAttribute, InvalidValue) as exc:
        raise InvalidValue(f"the registry header cannot be written: {exc}") from None
    if schema != list(registry.schema):
        raise InvalidValue(f"attributes {registry.schema} would read back as {schema}")
    if not registry.records:
        raise InvalidValue("a registry file needs at least one service")
    read = _row_reader(schema, lambda: line)
    for rec in registry.records:
        try:
            cells = _cells(rec, schema)
            line += _row_text(cells).count("\n") + 1
            back = read(cells)
        except (ParseError, NonFiniteValue, TypeError, ValueError) as exc:
            raise InvalidValue(f"service {rec.service_id!r} cannot be written: {exc}") from None
        if back != rec:
            raise InvalidValue(f"service {rec.service_id!r} would read back as {back}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(_cells(rec, schema) for rec in registry.records)


# -------------------------------------------------------------------- plan JSON

def _json_load(path: str) -> dict:
    with _undecodable(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}", getattr(exc, "lineno", None))
    except RecursionError:
        raise ParseError(f"{path} nests JSON too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return doc


def load_plan(path: str, taxonomy: Taxonomy | None = None) -> CompositionPlan:
    """The plan's `tasks` and `edges`. Any other key, such as the link pairs
    that earlier releases wrote, is ignored, and so is `taxonomy`."""
    doc = _json_load(path)
    tasks = doc.get("tasks")
    edges = doc.get("edges")
    if not isinstance(tasks, list) or not all(isinstance(t, str) for t in tasks):
        raise ParseError("plan tasks must be a list of strings")
    if not isinstance(edges, list):
        raise ParseError("plan edges must be a list of [from, to] pairs")
    edge_set: set[tuple[str, str]] = set()
    for pair in edges:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(t, str) for t in pair)
        ):
            raise ParseError(f"malformed plan edge {pair!r}")
        edge_set.add((pair[0], pair[1]))
    return CompositionPlan(frozenset(tasks), frozenset(edge_set))


def save_plan(plan: CompositionPlan, path: str) -> None:
    doc = {"tasks": sorted(plan.tasks), "edges": [list(e) for e in sorted(plan.edges)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# -------------------------------------------------------- composite report JSON

def load_composite(path: str) -> CompositeService:
    """A composite from a saved `compose` report (its primary) or `replace` report.

    A file that holds no such report, or names a task twice, raises ParseError naming it;
    a NaN or infinite number, which Python's JSON reader accepts, NonFiniteValue.
    """
    doc = _json_load(path)
    section = doc.get("primary", doc)
    try:
        tasks = section["tasks"]
        composite = CompositeService(
            {_text(t["task"]): _text(t["service"]) for t in tasks},
            {t["task"]: _number(t["final_utility"]) for t in tasks},
            {t["task"]: _number(t["link_quality"]) for t in tasks},
            _number(section["score"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(
            f"{path} does not hold a composite report: {type(exc).__name__} {exc}"
        ) from None
    for field, values in (
        ("final_utility", composite.final_utilities),
        ("link_quality", composite.link_qualities),
    ):
        for task, value in values.items():
            if not math.isfinite(value):
                raise NonFiniteValue(f"{path}: {field} of task {task!r} is {value!r}")
    if not math.isfinite(composite.score):
        raise NonFiniteValue(f"{path}: score is {composite.score!r}")
    seen: set[str] = set()
    for task in (t["task"] for t in tasks):
        if task in seen:
            raise ParseError(f"{path} names task {task!r} more than once")
        seen.add(task)
    return composite


# -------------------------------------------------------------- taxonomy records

def load_taxonomy(path: str) -> Taxonomy:
    concepts: set[str] = set()
    edges: set[tuple[str, str]] = set()
    equivalences: set[tuple[str, str]] = set()
    disjointness: set[tuple[str, str]] = set()
    with _undecodable(path), open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            kind, args = tokens[0], tokens[1:]
            if kind == "concept" and len(args) == 1:
                concepts.add(args[0])
            elif kind == "subclass" and len(args) == 2:
                edges.add((args[0], args[1]))
            elif kind == "equiv" and len(args) == 2:
                equivalences.add((args[0], args[1]))
            elif kind == "disjoint" and len(args) == 2:
                disjointness.add((args[0], args[1]))
            else:
                raise ParseError(f"unrecognized taxonomy record {line!r}", line=line_no)
    return Taxonomy(
        frozenset(concepts),
        frozenset(edges),
        frozenset(equivalences),
        frozenset(disjointness),
    )


def save_taxonomy(taxonomy: Taxonomy, path: str) -> None:
    """Write `taxonomy` as records; InvalidValue, before the file is opened, for
    a concept that is empty or holds whitespace, which splits a record."""
    for concept in sorted(taxonomy.concepts):
        if not concept or any(ch.isspace() for ch in concept) or not _utf8(concept):
            raise InvalidValue(f"concept {concept!r} cannot be written as a taxonomy record")
    with open(path, "w", encoding="utf-8") as fh:
        for concept in sorted(taxonomy.concepts):
            fh.write(f"concept {concept}\n")
        for child, parent in sorted(taxonomy.edges):
            fh.write(f"subclass {child} {parent}\n")
        for a, b in sorted(taxonomy.equivalences):
            fh.write(f"equiv {a} {b}\n")
        for a, b in sorted(taxonomy.disjointness):
            fh.write(f"disjoint {a} {b}\n")


# ------------------------------------------------------------------- config JSON

def config_field(name: str) -> parse_errors:
    """Report a bad config value (ValueError, TypeError) as a ParseError naming `name`."""
    return parse_errors((ValueError, TypeError), f"bad value for {name}: ")


def _number(value, convert=float):
    """`convert(value)`, refusing a JSON boolean, which Python counts as 0 or 1, a
    JSON string, which `convert` would parse, and an integer too large for a
    float (ValueError)."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    if isinstance(value, str):
        raise ValueError(f"{value!r} is not a number")
    try:
        return convert(value)
    except OverflowError:
        raise ValueError("the number is too large for a float") from None


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _whole(value) -> int:
    """`int(value)`, refusing a float with a fractional part instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return _number(value, int)


def load_config(path: str) -> tuple[EngineConfig, UserRequest]:
    """Read a config file; a missing or bad value raises ParseError.

    A top-level `seed` key, written by earlier releases, is ignored.
    """
    doc = _json_load(path)
    request_doc = doc.get("request")
    if not isinstance(request_doc, dict):
        raise ParseError("config must hold a request object")
    ranges_doc = request_doc.get("ranges")
    prefs_doc = request_doc.get("preferences")
    if not isinstance(ranges_doc, dict) or not ranges_doc:
        raise ParseError("request.ranges must map attributes to [lo, hi]")
    ranges: dict[str, tuple[float, float]] = {}
    for name, pair in ranges_doc.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"request range for {name!r} must be [lo, hi]")
        with config_field(f"request.ranges.{name}"):
            ranges[name] = (_number(pair[0]), _number(pair[1]))
    if prefs_doc is None:
        prefs = {name: i + 1 for i, name in enumerate(ranges)}
    elif isinstance(prefs_doc, dict):
        with config_field("request.preferences"):
            prefs = {name: _whole(rank) for name, rank in prefs_doc.items()}
    else:
        raise ParseError("request.preferences must map attributes to ranks")
    with config_field("request"):
        request = UserRequest(ranges, prefs)
    levels_doc = doc.get("levels")
    if levels_doc is None:
        scheme = default_scheme()
    else:
        try:
            with config_field("levels"):
                scheme = LevelScheme(
                    _whole(levels_doc["n_levels"]),
                    tuple(_number(c) for c in levels_doc["coefficients"]),
                )
        except KeyError as exc:
            raise ParseError(f"malformed levels section: {exc}")
    mining_doc = doc.get("mining", {})
    if not isinstance(mining_doc, dict):
        raise ParseError("config mining section must be an object")
    with config_field("mining"):
        mining = MiningConfig(
            min_support=_number(mining_doc.get("min_support", MiningConfig.min_support)),
            min_confidence=_number(mining_doc.get("min_confidence", MiningConfig.min_confidence)),
            max_antecedent_size=(
                _whole(mining_doc["max_antecedent_size"])
                if mining_doc.get("max_antecedent_size") is not None
                else None
            ),
        )
    # each field read and checked before the next, so an error names its field
    with config_field("bins"):
        config = EngineConfig(scheme, mining, _whole(doc.get("bins", EngineConfig.bins)))
    with config_field("threshold"):
        config = replace(config, threshold=_number(doc.get("threshold", EngineConfig.threshold)))
    return config, request


def save_config(config: EngineConfig, request: UserRequest, path: str) -> None:
    doc = {
        "request": {
            "ranges": {k: list(v) for k, v in request.ranges.items()},
            "preferences": dict(request.preferences),
        },
        "levels": {
            "n_levels": config.scheme.n_levels,
            "coefficients": list(config.scheme.coefficients),
        },
        "mining": {
            "min_support": config.mining.min_support,
            "min_confidence": config.mining.min_confidence,
            "max_antecedent_size": config.mining.max_antecedent_size,
        },
        "bins": config.bins,
        "threshold": config.threshold,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ------------------------------------------------------------ classifier format

def render_classifier(classifier: Classifier) -> str:
    """The classifier file's text: one rule a line, then the DEFAULT line."""
    lines = [
        f"{render_items(rule.antecedent)} => {rule.consequent_class} "
        f"[{rule.support!r} {rule.confidence!r}]\n"
        for rule in classifier.rules
    ]
    return "".join(lines) + f"DEFAULT {classifier.default_class}\n"


# --------------------------------------------------------------- synthetic data

# (name, polarity, lo, hi) of the generator's value ranges, shaped after public
# QoS measurement corpora; documented policy, not ground truth
SYNTHETIC_ATTRIBUTES: list[tuple[str, str, float, float]] = [
    ("response_time", "-", 37.0, 4990.0),
    ("availability", "+", 7.0, 100.0),
    ("throughput", "+", 0.1, 43.1),
    ("reliability", "+", 33.0, 89.0),
]


# Most QoS values (tasks x candidates x attributes) one generated workload
# holds: 100 000 four-attribute services took 61-74 MB and 1.4-1.7 s to generate
# (Python 3.11), so a larger size is refused before any draw.
MAX_GENERATED_VALUES = 400_000

# Most tasks one generated workload holds: its taxonomy has 4 concepts per task,
# and 6 000 x 1 x 4 took 65 MB and 1 s to generate (Python 3.11), about what the
# values limit allows, so more tasks are refused before any draw.
MAX_GENERATED_TASKS = 6_000


def _attribute_template(index: int) -> tuple[str, str, float, float]:
    name, polarity, lo, hi = SYNTHETIC_ATTRIBUTES[index % len(SYNTHETIC_ATTRIBUTES)]
    if index >= len(SYNTHETIC_ATTRIBUTES):
        name = f"{name}_{index // len(SYNTHETIC_ATTRIBUTES) + 1}"
    return name, polarity, lo, hi


def check_generated_sizes(sizes: list[tuple[int, int]], attributes: int) -> None:
    """Refuse, with InvalidValue, to generate workloads of these (tasks, candidates)
    sizes: a size below 1, more than `MAX_GENERATED_VALUES` QoS values or more than
    `MAX_GENERATED_TASKS` tasks in one, and then more values than that in all."""
    total = 0
    for tasks, candidates in sizes:
        if tasks < 1 or candidates < 1 or attributes < 1:
            raise InvalidValue("generator sizes must all be >= 1")
        values = tasks * candidates * attributes
        if values > MAX_GENERATED_VALUES:
            raise InvalidValue(
                f"{tasks} tasks x {candidates} candidates x {attributes} attributes "
                f"is {values} QoS values, more than the limit of {MAX_GENERATED_VALUES}"
            )
        if tasks > MAX_GENERATED_TASKS:
            raise InvalidValue(f"{tasks} tasks is more than the limit of {MAX_GENERATED_TASKS}")
        total += values
    if total > MAX_GENERATED_VALUES:
        raise InvalidValue(
            f"{len(sizes)} workloads hold {total} QoS values in all, "
            f"more than the limit of {MAX_GENERATED_VALUES}"
        )


def generate_synthetic(
    tasks: int, candidates_per_task: int, attributes: int, seed: int
) -> tuple[Registry, CompositionPlan, Taxonomy]:
    """Deterministic chain-plan workload of the given size, which
    `check_generated_sizes` checks before any draw.

    The taxonomy is a random tree whose first few concepts form a subclass
    chain (the backbone); service interfaces draw only backbone concepts, so
    every candidate link stays admissible and selection pressure comes from
    utilities and match depth, not accidental disjointness.
    """
    check_generated_sizes([(tasks, candidates_per_task)], attributes)
    rng = random.Random(seed)
    schema = [
        QoSAttribute(name, Polarity(pol))
        for name, pol, _, _ in (_attribute_template(i) for i in range(attributes))
    ]
    width = max(2, len(str(tasks)))
    cand_width = max(2, len(str(candidates_per_task)))
    task_ids = [f"t{i + 1:0{width}d}" for i in range(tasks)]

    n_concepts = 4 * tasks
    concepts = [f"C{i + 1:03d}" for i in range(n_concepts)]
    backbone = concepts[: min(6, n_concepts)]
    parent = dict(zip(backbone[1:], backbone))  # the tree's child -> parent edges
    placed = list(backbone)
    for concept in concepts[len(backbone) :]:
        parent[concept] = rng.choice(placed)
        placed.append(concept)

    def chain(concept: str):
        while concept in parent:
            concept = parent[concept]
            yield concept

    off_backbone = concepts[len(backbone) :]
    disjointness: set[tuple[str, str]] = set()
    # the loop runs only when n_concepts >= 8, so off_backbone holds at least 2
    for _ in range(n_concepts // 8):
        a, b = rng.sample(off_backbone, 2)
        # a pair where one subsumes the other cannot be disjoint
        if b in chain(a) or a in chain(b):
            continue
        disjointness.add((min(a, b), max(a, b)))
    taxonomy = Taxonomy(
        frozenset(concepts), frozenset(parent.items()), frozenset(), frozenset(disjointness)
    )

    records: list[RegistryRecord] = []
    templates = [_attribute_template(i) for i in range(attributes)]
    for task_id in task_ids:
        for j in range(candidates_per_task):
            service_id = f"{task_id}_s{j + 1:0{cand_width}d}"
            values = {
                name: rng.uniform(lo, hi) for name, _, lo, hi in templates
            }
            inputs = tuple(rng.sample(backbone, rng.randint(1, min(2, len(backbone)))))
            outputs = tuple(rng.sample(backbone, rng.randint(1, min(2, len(backbone)))))
            records.append(RegistryRecord(service_id, task_id, values, inputs, outputs))
    registry = Registry(schema, records)

    plan = CompositionPlan(frozenset(task_ids), frozenset(zip(task_ids, task_ids[1:])))
    return registry, plan, taxonomy


def default_request(schema: list[QoSAttribute]) -> UserRequest:
    """Request asking for the better half of each synthetic attribute's range."""
    extremes: AttributeExtremes = {}
    for i, attr in enumerate(schema):
        name, _, lo, hi = _attribute_template(i)
        if name != attr.name:
            raise UnknownAttribute(f"no synthetic value range is defined for {attr.name!r}")
        extremes[name] = (lo, hi)
    return better_half_request(schema, extremes)


def better_half_request(schema: list[QoSAttribute], extremes: AttributeExtremes) -> UserRequest:
    """Request asking for the better half of each attribute's (lo, hi) in
    `extremes`, preferring the attributes in schema order."""
    ranges: dict[str, tuple[float, float]] = {}
    for attr in schema:
        lo, hi = extremes[attr.name]
        mid = (lo + hi) / 2
        ranges[attr.name] = (lo, mid) if attr.polarity is Polarity.NEGATIVE else (mid, hi)
    prefs = {attr.name: i + 1 for i, attr in enumerate(schema)}
    return UserRequest(ranges, prefs)
