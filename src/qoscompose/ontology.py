"""Concept taxonomy and semantic match scoring between service parameters.

The taxonomy is a subsumption DAG with equivalence and disjointness axioms.
Equivalent concepts are collapsed into one node up front, after which every
match query is plain set reachability.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum
from graphlib import CycleError, TopologicalSorter

from .errors import CycleDetected, InconsistentTaxonomy, UnknownConcept


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

    def __post_init__(self) -> None:
        for pair in self.equivalences | self.disjointness:
            for concept in pair:
                self._require(concept)
        for child, parent in self.edges:
            self._require(child)
            self._require(parent)
        # derived from the axioms, plus the match and link memos: not fields, so
        # equality and repr ignore them and a dataclasses.replace copy builds its own
        self._rep = self._collapse_equivalences()
        self._ancestors, self._descendants = self._close_subsumption()
        self._disjoint_reps = self._index_disjointness()
        self._match_cache: dict[tuple[str, str], MatchType] = {}
        # upstream outputs -> downstream inputs -> link quality, None when inadmissible
        self._link_cache: defaultdict[tuple[str, ...], dict] = defaultdict(dict)

    def _require(self, concept: str) -> None:
        if concept not in self.concepts:
            raise UnknownConcept(f"concept {concept!r} is not declared")

    def link_memo(self, outputs: tuple[str, ...]) -> dict:
        """Link qualities from `outputs`, keyed by downstream inputs; None when inadmissible."""
        return self._link_cache[outputs]

    def rep(self, concept: str) -> str:
        """Canonical representative of a concept's equivalence class."""
        self._require(concept)
        return self._rep[concept]

    def _collapse_equivalences(self) -> dict[str, str]:
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
        return {c: find(c) for c in self.concepts}

    def _close_subsumption(self) -> tuple[dict[str, frozenset[str]], ...]:
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
        return (
            {r: frozenset(v) for r, v in ancestors.items()},
            {r: frozenset(v) for r, v in descendants.items()},
        )

    def _index_disjointness(self) -> set[frozenset[str]]:
        disjoint_reps = set()
        for a, b in sorted(self.disjointness):
            ra, rb = self._rep[a], self._rep[b]
            if ra == rb or ra in self._ancestors[rb] or rb in self._ancestors[ra]:
                raise InconsistentTaxonomy(
                    f"{a!r} and {b!r} are declared disjoint but one subsumes the other"
                )
            disjoint_reps.add(frozenset((ra, rb)))
        return disjoint_reps


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


def interface_quality(
    taxonomy: Taxonomy, outputs: tuple[str, ...], inputs: tuple[str, ...]
) -> float | None:
    """Mean `MATCH_QUALITY` over every output x input pair of one link.

    None when the link is inadmissible: it has no pair, or a pair is
    disjoint. The two interfaces fully determine the value, so it is
    memoized on the taxonomy by them: `taxonomy.link_memo(outputs)[inputs]`.
    """
    memo = taxonomy.link_memo(outputs)
    try:
        return memo[inputs]
    except KeyError:
        pass
    quality: float | None = None
    if outputs and inputs:
        # outputs outer, inputs inner, added left to right; lazily, so the
        # walk stops at the first disjoint pair
        total = 0.0
        for match in (match_type(taxonomy, o, i) for o in outputs for i in inputs):
            if match is MatchType.DISJOINT:
                break
            total += MATCH_QUALITY[match]
        else:
            quality = total / (len(outputs) * len(inputs))
    memo[inputs] = quality
    return quality
