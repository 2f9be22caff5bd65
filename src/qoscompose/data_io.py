"""File formats and synthetic data: registry CSV, plan/config JSON, taxonomy records.

Floats are written with repr so every format round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

from .cba import Classifier, MiningConfig, render_items
from .composer import CompositeService, CompositionPlan
from .errors import (
    EmptyRegistry,
    InvalidValue,
    NonFiniteValue,
    ParseError,
    UnknownAttribute,
    UnknownConcept,
)
from .leveling import Basis, LevelScheme, UserRequest, default_scheme, level_basis
from .ontology import MatchType, Taxonomy, match_type
from .qos import (
    AttributeExtremes, NormalizedQoSVector, Polarity, QoSAttribute, QoSVector,
    compute_extremes, normalize,
)


@dataclass(frozen=True)
class RegistryRecord:
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
    def task_ids(self) -> frozenset[str]:
        return frozenset(rec.task_id for rec in self.records)

    @cached_property
    def concepts(self) -> frozenset[str]:
        return frozenset(c for rec in self.records for c in rec.inputs + rec.outputs)

    @cached_property
    def envelope(self) -> AttributeExtremes:
        """Extremes across the whole registry, so demand bands cover every task."""
        return compute_extremes([QoSVector(r.service_id, r.values) for r in self.records])

    @cached_property
    def scaled(self) -> dict[str, list[NormalizedQoSVector]]:
        """Every task's candidates normalized against their own task's extremes."""
        by_task: dict[str, list[QoSVector]] = {}
        for r in self.records:
            by_task.setdefault(r.task_id, []).append(QoSVector(r.service_id, r.values))
        scaled = {}
        for task, cands in by_task.items():
            extremes = compute_extremes(cands)
            scaled[task] = [normalize(c, extremes, self.schema) for c in cands]
        return scaled

    @cached_property
    def _bases(self) -> dict[tuple[int, LevelScheme], dict[str, Basis]]:
        return {}

    def level_bases(self, bins: int, scheme: LevelScheme) -> dict[str, Basis]:
        """Each task's `level_basis`, kept per scheme, as pools are."""
        bases = self._bases.get((bins, scheme))
        if bases is None:
            bases = self._bases[bins, scheme] = {
                task: level_basis(normalized, bins, scheme.n_levels)
                for task, normalized in self.scaled.items()
            }
        return bases

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
    if not schema:
        raise ParseError("registry declares no QoS attributes", line=1)
    return schema


def _parse_concepts(
    text: str, line: int, parsed: dict[str, tuple[str, ...]]
) -> tuple[str, ...]:
    """The `;`-separated concepts of `text`; equal texts share one tuple, kept in `parsed`."""
    concepts = parsed.get(text)
    if concepts is None:
        concepts = tuple(text.split(";")) if text else ()
        if "" in concepts:
            raise ParseError("empty concept in semicolon list", line=line)
        parsed[text] = concepts
    return concepts


@contextmanager
def _open_text(path: str, newline: str | None = None):
    """`path` opened as UTF-8 text; undecodable bytes raise ParseError naming it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _csv_rows(reader):
    """`reader`'s rows; malformed CSV, such as an oversized field, raises ParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None


def load_registry(path: str) -> Registry:
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader)
        try:
            header = next(rows)
        except StopIteration:
            raise ParseError("registry file is empty", line=1)
        schema = _parse_header(header)
        records: list[RegistryRecord] = []
        seen: set[str] = set()
        # services repeat task ids and interfaces; equal ones share one object
        task_ids: dict[str, str] = {}
        interfaces: dict[str, tuple[str, ...]] = {}
        for row in rows:
            line = reader.line_num
            if len(row) != len(schema) + 4:
                raise ParseError(
                    f"expected {len(schema) + 4} columns, found {len(row)}", line=line
                )
            service_id, task_id = row[0], task_ids.setdefault(row[1], row[1])
            if not service_id or not task_id:
                raise ParseError("service_id and task_id must be non-empty", line=line)
            if service_id in seen:
                raise ParseError(f"duplicate service_id {service_id!r}", line=line)
            seen.add(service_id)
            values: dict[str, float] = {}
            for attr, token in zip(schema, row[2:-2]):
                try:
                    value = float(token)
                except ValueError:
                    raise ParseError(
                        f"bad numeric value {token!r} for {attr.name}", line=line
                    )
                if not math.isfinite(value):
                    raise NonFiniteValue(
                        f"line {line}: {attr.name} of {service_id!r} is {token}"
                    )
                values[attr.name] = value
            records.append(
                RegistryRecord(
                    service_id,
                    task_id,
                    values,
                    _parse_concepts(row[-2], line, interfaces),
                    _parse_concepts(row[-1], line, interfaces),
                )
            )
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


def _check_field(what: str, text: str) -> None:
    """Refuse a registry CSV field that `load_registry` would not read back.

    The writer leaves a carriage return unquoted, so it would split the row,
    and Python 3.10's CSV reader refuses a NUL.
    """
    if "\r" in text or "\0" in text or not _utf8(text):
        raise InvalidValue(f"{what} holds a character the registry file cannot store")


def _check_registry(registry: Registry) -> None:
    """Refuse, naming the id, what `load_registry` would refuse or read back changed."""
    names = [attr.name for attr in registry.schema]
    if not names or not registry.records:
        raise InvalidValue("a registry file needs at least one attribute and one service")
    for name in names:
        if not name or names.count(name) > 1:
            raise InvalidValue(f"attribute name {name!r} is empty or repeated")
        _check_field(f"attribute name {name!r}", name)
    seen: set[str] = set()
    for rec in registry.records:
        sid = rec.service_id
        if not sid or not rec.task_id:
            raise InvalidValue(f"service {sid!r} of task {rec.task_id!r} needs non-empty ids")
        if sid in seen:
            raise InvalidValue(f"service id {sid!r} is repeated")
        seen.add(sid)
        _check_field(f"service id {sid!r}", sid)
        _check_field(f"task id {rec.task_id!r} of service {sid!r}", rec.task_id)
        if rec.values.keys() != set(names) or not all(
            math.isfinite(value) for value in rec.values.values()
        ):
            raise InvalidValue(f"service {sid!r} needs a finite value for each attribute")
        for concept in rec.inputs + rec.outputs:
            if not concept or ";" in concept:
                raise InvalidValue(f"service {sid!r} has concept {concept!r}, empty or with ';'")
            _check_field(f"concept {concept!r} of service {sid!r}", concept)


def save_registry(registry: Registry, path: str) -> None:
    """Write `registry` as CSV; InvalidValue, before the file is opened, for a
    registry that `load_registry` would not read back equal."""
    _check_registry(registry)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["service_id", "task_id"]
            + [f"{a.name}:{a.polarity.value}" for a in registry.schema]
            + ["inputs", "outputs"]
        )
        for rec in registry.records:
            writer.writerow(
                [rec.service_id, rec.task_id]
                + [repr(rec.values[a.name]) for a in registry.schema]
                + [";".join(rec.inputs), ";".join(rec.outputs)]
            )


# -------------------------------------------------------------------- plan JSON

def _json_load(path: str) -> dict:
    with _open_text(path) as fh:
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
    pairs_doc = doc.get("link_pairs", {})
    if not isinstance(pairs_doc, dict):
        raise ParseError("plan link_pairs must be an object keyed by from->to")
    link_pairs: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for key, pairs in pairs_doc.items():
        left, sep, right = key.partition("->")
        if not sep or not left or not right:
            raise ParseError(f"link_pairs key {key!r} must look like from->to")
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(c, str) for c in p)
            for p in pairs
        ):
            raise ParseError(f"link_pairs for {key!r} must be [out, in] concept pairs")
        if taxonomy is not None:
            for out_concept, in_concept in pairs:
                for concept in (out_concept, in_concept):
                    if concept not in taxonomy.concepts:
                        raise UnknownConcept(
                            f"link pair on {key!r} names unknown concept {concept!r}"
                        )
        link_pairs[(left, right)] = tuple((p[0], p[1]) for p in pairs)
    return CompositionPlan(frozenset(tasks), frozenset(edge_set), link_pairs)


def save_plan(plan: CompositionPlan, path: str) -> None:
    """Write `plan` as JSON; InvalidValue, before the file is opened, for a
    link-pairs edge whose `from->to` key `load_plan` would split elsewhere."""
    for a, b in sorted(plan.link_pairs):
        if not a or not b or "->" in a:
            raise InvalidValue(
                f"link pairs edge ({a!r}, {b!r}) cannot be keyed as from->to"
            )
    doc = {
        "tasks": sorted(plan.tasks),
        "edges": [list(e) for e in sorted(plan.edges)],
        "link_pairs": {
            f"{a}->{b}": [list(p) for p in plan.link_pairs[(a, b)]]
            for a, b in sorted(plan.link_pairs)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# -------------------------------------------------------- composite report JSON

def load_composite(path: str) -> CompositeService:
    """A composite from a saved `compose` report (its primary) or `replace` report.

    A file that holds no such report raises ParseError naming it.
    """
    doc = _json_load(path)
    section = doc.get("primary", doc)
    try:
        tasks = section["tasks"]
        return CompositeService(
            {_text(t["task"]): _text(t["service"]) for t in tasks},
            {t["task"]: _number(t["final_utility"]) for t in tasks},
            {t["task"]: _number(t["link_quality"]) for t in tasks},
            _number(section["score"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(
            f"{path} does not hold a composite report: {type(exc).__name__} {exc}"
        ) from None


# -------------------------------------------------------------- taxonomy records

def load_taxonomy(path: str) -> Taxonomy:
    concepts: set[str] = set()
    edges: set[tuple[str, str]] = set()
    equivalences: set[tuple[str, str]] = set()
    disjointness: set[tuple[str, str]] = set()
    with _open_text(path) as fh:
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

@contextmanager
def config_field(name: str):
    """Report a bad config value (ValueError, TypeError) as a ParseError naming `name`."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad value for {name}: {exc}") from None


def _number(value, convert=float):
    """`convert(value)`, refusing a JSON boolean, which Python counts as 0 or 1, and
    an integer too large for a float (ValueError)."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
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
            min_support=_number(mining_doc.get("min_support", 0.01)),
            min_confidence=_number(mining_doc.get("min_confidence", 0.5)),
            max_antecedent_size=(
                _whole(mining_doc["max_antecedent_size"])
                if mining_doc.get("max_antecedent_size") is not None
                else None
            ),
        )
    # one field at a time from valid defaults, so an error names its field
    config = EngineConfig(scheme, mining)
    with config_field("bins"):
        config = replace(config, bins=_whole(doc.get("bins", config.bins)))
    with config_field("threshold"):
        config = replace(
            config, threshold=_number(doc.get("threshold", config.threshold))
        )
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


def _attribute_template(index: int) -> tuple[str, str, float, float]:
    name, polarity, lo, hi = SYNTHETIC_ATTRIBUTES[index % len(SYNTHETIC_ATTRIBUTES)]
    if index >= len(SYNTHETIC_ATTRIBUTES):
        name = f"{name}_{index // len(SYNTHETIC_ATTRIBUTES) + 1}"
    return name, polarity, lo, hi


def generate_synthetic(
    tasks: int, candidates_per_task: int, attributes: int, seed: int
) -> tuple[Registry, CompositionPlan, Taxonomy]:
    """Deterministic chain-plan workload of the given size.

    The taxonomy is a random tree whose first few concepts form a subclass
    chain (the backbone); service interfaces draw only backbone concepts, so
    every candidate link stays admissible and selection pressure comes from
    utilities and match depth, not accidental disjointness.
    """
    if tasks < 1 or candidates_per_task < 1 or attributes < 1:
        raise InvalidValue("generator sizes must all be >= 1")
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
    edges: set[tuple[str, str]] = set()
    for child, parent in zip(backbone[1:], backbone):
        edges.add((child, parent))
    placed = list(backbone)
    for concept in concepts[len(backbone) :]:
        edges.add((concept, rng.choice(placed)))
        placed.append(concept)
    off_backbone = concepts[len(backbone) :]
    disjointness: set[tuple[str, str]] = set()
    tree = Taxonomy(frozenset(concepts), frozenset(edges))
    # the loop runs only when n_concepts >= 8, so off_backbone holds at least 2
    for _ in range(n_concepts // 8):
        a, b = rng.sample(off_backbone, 2)
        if match_type(tree, a, b) in (MatchType.PLUGIN, MatchType.SUBSUME):
            continue
        disjointness.add((min(a, b), max(a, b)))
    taxonomy = Taxonomy(
        frozenset(concepts), frozenset(edges), frozenset(), frozenset(disjointness)
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
    ranges: dict[str, tuple[float, float]] = {}
    for i, attr in enumerate(schema):
        name, _, lo, hi = _attribute_template(i)
        if name != attr.name:
            raise UnknownAttribute(
                f"no synthetic value range is defined for {attr.name!r}"
            )
        mid = (lo + hi) / 2
        if attr.polarity is Polarity.NEGATIVE:
            ranges[attr.name] = (lo, mid)
        else:
            ranges[attr.name] = (mid, hi)
    prefs = {attr.name: i + 1 for i, attr in enumerate(schema)}
    return UserRequest(ranges, prefs)
