"""Concept taxonomy and semantic match scoring between service parameters.

The taxonomy is a subsumption DAG with equivalence and disjointness axioms.
Equivalent concepts are collapsed into one node up front, after which every
match query is plain set reachability. Match types and link qualities are
read from two `Memo`s on the taxonomy, which compute each answer on its
first read and keep it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
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


class Memo(dict):
    """A dict that fills a missing key with `fill(key)` and keeps the value.

    When `fill` raises, nothing is stored."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


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
        # (out concept, in concept) -> MatchType, and upstream outputs -> downstream
        # inputs -> link quality; the fill functions hold the derived maps but not the
        # taxonomy, so no reference cycle keeps a dropped taxonomy alive
        matches = self.matches = Memo(partial(
            _match, self._rep, self._ancestors, self._descendants, self._disjoint_reps
        ))
        self.links = Memo(lambda outputs: Memo(partial(_link_quality, matches, outputs)))

    def _require(self, concept: str) -> None:
        if concept not in self.concepts:
            raise UnknownConcept(f"concept {concept!r} is not declared")

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


def _match(rep, ancestors, descendants, disjoint_reps, pair: tuple[str, str]) -> MatchType:
    """`Taxonomy.matches`' fill, over the taxonomy's derived maps."""
    for concept in pair:
        if concept not in rep:
            raise UnknownConcept(f"concept {concept!r} is not declared")
    ro, ri = rep[pair[0]], rep[pair[1]]
    if ro == ri:
        return MatchType.EXACT
    if ri in ancestors[ro]:
        return MatchType.PLUGIN
    if ro in ancestors[ri]:
        return MatchType.SUBSUME
    if frozenset((ro, ri)) in disjoint_reps or not descendants[ro] & descendants[ri]:
        return MatchType.DISJOINT
    return MatchType.INTERSECTION


def _link_quality(matches: Memo, outputs: tuple, inputs: tuple) -> float | None:
    """The fill of each memo in `Taxonomy.links`; see `interface_quality`."""
    if not (outputs and inputs):
        return None
    # outputs outer, inputs inner, added left to right; the walk stops at the
    # first disjoint pair
    total = 0.0
    for out_concept in outputs:
        for in_concept in inputs:
            match = matches[out_concept, in_concept]
            if match is MatchType.DISJOINT:
                return None
            total += MATCH_QUALITY[match]
    return total / (len(outputs) * len(inputs))


def match_type(taxonomy: Taxonomy, out_concept: str, in_concept: str) -> MatchType:
    """Semantic relation of an output concept feeding an input concept."""
    return taxonomy.matches[out_concept, in_concept]


def interface_quality(
    taxonomy: Taxonomy, outputs: tuple[str, ...], inputs: tuple[str, ...]
) -> float | None:
    """Mean `MATCH_QUALITY` over every output x input pair of one link.

    None when the link is inadmissible: it has no pair, or a pair is
    disjoint. The two interfaces fully determine the value, so it is
    memoized on the taxonomy by them: `taxonomy.links[outputs][inputs]`.
    """
    return taxonomy.links[outputs][inputs]
