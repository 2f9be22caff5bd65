"""Concept taxonomy and semantic match scoring between service parameters.

The taxonomy is a subsumption DAG with equivalence and disjointness axioms.
Equivalent concepts are collapsed into one node up front, after which every
match query is plain set reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from graphlib import CycleError, TopologicalSorter

from .errors import (
    CycleDetected,
    DisjointMatch,
    InconsistentTaxonomy,
    NoSharedParameters,
    UnknownConcept,
)


class MatchType(IntEnum):
    """Match kinds between an output and an input concept, worst to best."""

    DISJOINT = 0
    INTERSECTION = 1
    SUBSUME = 2
    PLUGIN = 3
    EXACT = 4


MATCH_QUALITY: dict[MatchType, float] = {
    MatchType.EXACT: 1.0,
    MatchType.PLUGIN: 0.75,
    MatchType.SUBSUME: 0.5,
    MatchType.INTERSECTION: 0.25,
}


@dataclass
class Taxonomy:
    concepts: frozenset[str]
    # child -> parent subsumption edges, both already representative concepts
    edges: frozenset[tuple[str, str]] = frozenset()
    equivalences: frozenset[tuple[str, str]] = frozenset()
    disjointness: frozenset[tuple[str, str]] = frozenset()
    # derived from the axioms in __post_init__, plus the match and link memos;
    # init=False, so a dataclasses.replace copy builds its own instead of
    # rewriting the original's
    _rep: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)
    _ancestors: dict[str, frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _descendants: dict[str, frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _disjoint_reps: set[frozenset[str]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )
    _match_cache: dict[tuple[str, str], MatchType] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # (upstream outputs, downstream inputs) -> link quality, None when inadmissible
    _link_cache: dict[tuple[tuple[str, ...], tuple[str, ...]], float | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for pair in self.equivalences | self.disjointness:
            for concept in pair:
                self._require(concept)
        for child, parent in self.edges:
            self._require(child)
            self._require(parent)
        self._collapse_equivalences()
        self._close_subsumption()
        self._index_disjointness()

    def _require(self, concept: str) -> None:
        if concept not in self.concepts:
            raise UnknownConcept(f"concept {concept!r} is not declared")

    def rep(self, concept: str) -> str:
        """Canonical representative of a concept's equivalence class."""
        self._require(concept)
        return self._rep[concept]

    def _collapse_equivalences(self) -> None:
        parent = {c: c for c in self.concepts}

        def find(c: str) -> str:
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for a, b in sorted(self.equivalences):
            ra, rb = find(a), find(b)
            if ra != rb:
                # keep the lexicographically smallest name as representative
                lo, hi = sorted((ra, rb))
                parent[hi] = lo
        self._rep.update({c: find(c) for c in self.concepts})

    def _close_subsumption(self) -> None:
        reps = sorted(set(self._rep.values()))
        parents: dict[str, set[str]] = {r: set() for r in reps}
        for child, parent in self.edges:
            rc, rp = self._rep[child], self._rep[parent]
            if rc != rp:
                # self-loops collapse away when child and parent are equivalent
                parents[rc].add(rp)
        sorter = TopologicalSorter({r: sorted(parents[r]) for r in reps})
        try:
            order = list(sorter.static_order())
        except CycleError as exc:
            raise CycleDetected(f"subsumption hierarchy contains a cycle: {exc.args[1]}")
        ancestors: dict[str, set[str]] = {}
        for rep_ in order:
            acc = {rep_}
            for p in parents[rep_]:
                acc |= ancestors[p]
            ancestors[rep_] = acc
        descendants: dict[str, set[str]] = {r: {r} for r in reps}
        for rep_, above in ancestors.items():
            for a in above:
                descendants[a].add(rep_)
        self._ancestors.update({r: frozenset(v) for r, v in ancestors.items()})
        self._descendants.update({r: frozenset(v) for r, v in descendants.items()})

    def _index_disjointness(self) -> None:
        for a, b in sorted(self.disjointness):
            ra, rb = self._rep[a], self._rep[b]
            if ra == rb or ra in self._ancestors[rb] or rb in self._ancestors[ra]:
                raise InconsistentTaxonomy(
                    f"{a!r} and {b!r} are declared disjoint but one subsumes the other"
                )
            self._disjoint_reps.add(frozenset((ra, rb)))


def match_type(taxonomy: Taxonomy, out_concept: str, in_concept: str) -> MatchType:
    """Semantic relation of an output concept feeding an input concept."""
    key = (out_concept, in_concept)
    cached = taxonomy._match_cache.get(key)
    if cached is not None:
        return cached
    ro = taxonomy.rep(out_concept)
    ri = taxonomy.rep(in_concept)
    if ro == ri:
        result = MatchType.EXACT
    elif ri in taxonomy._ancestors[ro]:
        result = MatchType.PLUGIN
    elif ro in taxonomy._ancestors[ri]:
        result = MatchType.SUBSUME
    elif frozenset((ro, ri)) in taxonomy._disjoint_reps:
        result = MatchType.DISJOINT
    elif taxonomy._descendants[ro] & taxonomy._descendants[ri]:
        result = MatchType.INTERSECTION
    else:
        result = MatchType.DISJOINT
    taxonomy._match_cache[key] = result
    return result


def matching_quality(match: MatchType) -> float:
    if match is MatchType.DISJOINT:
        raise DisjointMatch("a disjoint match carries no quality")
    return MATCH_QUALITY[match]


def link_quality(
    taxonomy: Taxonomy,
    from_service: str,
    to_service: str,
    pairs: list[tuple[str, str]],
) -> float:
    """Mean matching quality over all connected parameter pairs of one link."""
    if not pairs:
        raise NoSharedParameters(
            f"no parameter pairs connect {from_service!r} to {to_service!r}"
        )
    total = 0.0
    for out_concept, in_concept in pairs:
        match = match_type(taxonomy, out_concept, in_concept)
        if match is MatchType.DISJOINT:
            raise DisjointMatch(
                f"{out_concept!r} -> {in_concept!r} is disjoint on the link "
                f"{from_service!r} -> {to_service!r}"
            )
        total += MATCH_QUALITY[match]
    return total / len(pairs)


def interface_quality(
    taxonomy: Taxonomy, outputs: tuple[str, ...], inputs: tuple[str, ...]
) -> float | None:
    """`link_quality` over every output x input pair, None when inadmissible.

    The two interfaces fully determine the value, so it is memoized on the
    taxonomy by them.
    """
    key = (outputs, inputs)
    try:
        return taxonomy._link_cache[key]
    except KeyError:
        pass
    pairs = [(o, i) for o in outputs for i in inputs]
    try:
        quality: float | None = link_quality(taxonomy, "upstream", "downstream", pairs)
    except (DisjointMatch, NoSharedParameters):
        quality = None
    taxonomy._link_cache[key] = quality
    return quality
