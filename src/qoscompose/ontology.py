"""Concept taxonomy and semantic match scoring between service parameters.

The taxonomy is a subsumption DAG with equivalence and disjointness axioms.
Equivalent concepts are collapsed into one node up front, after which every
match query is reachability over the representatives' direct parents or
children, walked per query; no closure is kept. Match types and link
qualities are read only through the taxonomy's two `Memo`s,
`matches[out, in]` and `links[outputs][inputs]`, which compute each answer
on its first read and keep it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Collection
from dataclasses import dataclass
from enum import IntEnum
from functools import partial

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


def topological_order(preds: dict[str, Collection[str]]) -> list[str]:
    """The nodes of a graph given as each node's direct predecessors, each after
    all of its predecessors (Kahn, CACM 1962); of the nodes ready at once the
    least leaves first. A node on a cycle, or after one, is left out, so the
    order of a cyclic graph is shorter than `preds`."""
    succs: dict[str, list[str]] = {node: [] for node in preds}
    waiting: dict[str, int] = {}
    for node, before in preds.items():
        waiting[node] = len(before)
        for pred in before:
            succs[pred].append(node)
    ready = [node for node, count in waiting.items() if not count]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in succs[node]:
            waiting[nxt] -= 1
            if not waiting[nxt]:
                heapq.heappush(ready, nxt)
    return order


@dataclass
class Taxonomy:
    concepts: frozenset[str]
    # child -> parent subsumption edges, both already representative concepts
    edges: frozenset[tuple[str, str]] = frozenset()
    equivalences: frozenset[tuple[str, str]] = frozenset()
    disjointness: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        named = {c for pair in self.edges | self.equivalences | self.disjointness for c in pair}
        if not named <= self.concepts:
            # the least, so the name does not follow the sets' hash order
            raise UnknownConcept(f"concept {min(named - self.concepts)!r} is not declared")
        # derived from the axioms, plus the match and link memos: not fields, so
        # equality and repr ignore them and a dataclasses.replace copy builds its own
        self._rep = self._collapse_equivalences()
        self._parents, self._children = self._direct_links()
        self._disjoint_reps = {frozenset((self._rep[a], self._rep[b])) for a, b in self.disjointness}
        # (out concept, in concept) -> MatchType, and upstream outputs -> downstream
        # inputs -> link quality; the fill functions hold the derived maps but not the
        # taxonomy, so no reference cycle keeps a dropped taxonomy alive
        matches = self.matches = Memo(partial(
            _match, self._rep, self._parents, self._children, self._disjoint_reps
        ))
        self.links = Memo(lambda outputs: Memo(partial(_link_quality, matches, outputs)))
        # EXACT when `equiv` collapsed a declared pair, PLUGIN or SUBSUME when it nests
        for a, b in sorted(self.disjointness):
            if matches[a, b] is not MatchType.DISJOINT:
                raise InconsistentTaxonomy(
                    f"{a!r} and {b!r} are declared disjoint but one subsumes the other"
                )

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

    def _direct_links(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Each representative's direct parents and direct children.

        A cycle leaves their `topological_order` short; only then is `graphlib`
        imported, to raise CycleDetected naming the cycle its sorter names.
        """
        reps = sorted(set(self._rep.values()))
        parents: dict[str, set[str]] = {r: set() for r in reps}
        children: dict[str, set[str]] = {r: set() for r in reps}
        for child, parent in self.edges:
            rc, rp = self._rep[child], self._rep[parent]
            if rc != rp:
                # self-loops collapse away when child and parent are equivalent
                parents[rc].add(rp)
                children[rp].add(rc)
        if len(topological_order(parents)) != len(reps):
            from graphlib import CycleError, TopologicalSorter

            try:
                TopologicalSorter({r: sorted(parents[r]) for r in reps}).prepare()
            except CycleError as exc:
                raise CycleDetected(f"subsumption hierarchy contains a cycle: {exc.args[1]}")
        return parents, children


def _reach(links: dict[str, set[str]], start: str) -> set[str]:
    """`start` and every representative a walk along `links` reaches from it."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in links[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _match(rep, parents, children, disjoint_reps, pair: tuple[str, str]) -> MatchType:
    """`Taxonomy.matches`' fill: walks over the taxonomy's direct links."""
    for concept in pair:
        if concept not in rep:
            raise UnknownConcept(f"concept {concept!r} is not declared")
    ro, ri = rep[pair[0]], rep[pair[1]]
    if ro == ri:
        return MatchType.EXACT
    if ri in _reach(parents, ro):
        return MatchType.PLUGIN
    if ro in _reach(parents, ri):
        return MatchType.SUBSUME
    if frozenset((ro, ri)) in disjoint_reps:
        return MatchType.DISJOINT
    if _reach(children, ro).isdisjoint(_reach(children, ri)):
        return MatchType.DISJOINT
    return MatchType.INTERSECTION


def _link_quality(matches: Memo, outputs: tuple, inputs: tuple) -> float | None:
    """The fill of each memo in `Taxonomy.links`: the mean `MATCH_QUALITY` over
    every output x input pair of one link.

    None when the link is inadmissible: it has no pair, or a pair is disjoint.
    The two interfaces fully determine the value, so it is memoized on the
    taxonomy by them: `taxonomy.links[outputs][inputs]`.
    """
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
