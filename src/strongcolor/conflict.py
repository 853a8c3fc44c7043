"""The strong-adjacency (conflict) relation on edges and incidences.

Two edges conflict when they share an endpoint or when some third edge
joins an endpoint of one to an endpoint of the other; a strong edge-coloring
must give conflicting edges distinct colors.  Incidence adjacency is the
analogous relation on (vertex, edge) pairs.

Verifiers return violations as data rather than raising, so they double as
test assertions and as the CLI ``verify`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from .errors import BadEdgeId
from .graph import BipartiteGraph, Incidence, Multigraph


@dataclass(frozen=True)
class ListAssignment:
    """Per-edge color lists L(e); colors are non-negative integers."""

    lists: Dict[int, FrozenSet[int]]

    @staticmethod
    def from_mapping(mapping: Mapping[int, Iterable[int]]) -> "ListAssignment":
        return ListAssignment({int(e): frozenset(cs) for e, cs in mapping.items()})

    @staticmethod
    def uniform(edge_ids: Iterable[int], k: int) -> "ListAssignment":
        """Identical lists {1..k} on the given edges."""
        palette = frozenset(range(1, k + 1))
        return ListAssignment({e: palette for e in edge_ids})

    def __getitem__(self, e: int) -> FrozenSet[int]:
        return self.lists[e]

    def get(self, e: int) -> FrozenSet[int]:
        return self.lists.get(e, frozenset())

    def size(self, e: int) -> int:
        return len(self.lists.get(e, ()))


class PartialColoring:
    """Mutable edge-id -> color map; single writer, read-only sharing is safe."""

    __slots__ = ("assigned",)

    def __init__(self, assigned: Optional[Mapping[int, int]] = None):
        self.assigned: Dict[int, int] = dict(assigned or {})

    def get(self, e: int) -> Optional[int]:
        return self.assigned.get(e)

    def set(self, e: int, color: int) -> None:
        self.assigned[e] = color

    def copy(self) -> "PartialColoring":
        return PartialColoring(self.assigned)

    def __len__(self) -> int:
        return len(self.assigned)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialColoring) and self.assigned == other.assigned


@dataclass(frozen=True)
class ConflictGraph:
    """Precomputed conflict sets, sorted per edge for deterministic scans."""

    conflicts: tuple

    def __getitem__(self, e: int) -> tuple:
        return self.conflicts[e]

    def __len__(self) -> int:
        return len(self.conflicts)


def conflict_edges(b: BipartiteGraph, e: int) -> set:
    """All edges f != e sharing an endpoint with e or joined to e by a third edge.

    The walk collects every edge at the far end w of an edge g at an
    endpoint of e, so f is found exactly when some edge g (possibly e or f
    itself) meets both e and f.  That condition is symmetric in e and f,
    so the relation needs no symmetry check.
    """
    adj = b.graph.adj
    out = {
        fid
        for endpoint in b.graph.endpoints(e)  # raises BadEdgeId
        for _, w in adj[endpoint]
        for fid, _ in adj[w]
    }
    out.discard(e)
    return out


def build_conflict_graph(b: BipartiteGraph) -> ConflictGraph:
    return ConflictGraph(
        tuple(tuple(sorted(conflict_edges(b, e))) for e in range(b.graph.edge_count))
    )


def available(
    e: int, L: ListAssignment, pc: PartialColoring, cg: ConflictGraph
) -> set:
    """L(e) minus the colors of assigned conflicting edges."""
    used = {pc.assigned[f] for f in cg[e] if f in pc.assigned}
    return set(L[e]) - used


@dataclass(frozen=True)
class Violation:
    """One verifier finding; ``where`` names the offending edge pair, edge, or incidence pair."""

    kind: str  # "conflict" | "list" | "uncolored"
    where: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {self.where}: {self.detail}"


def verify_strong(
    b: BipartiteGraph,
    L: Optional[ListAssignment],
    pc: PartialColoring,
    require_total: bool = False,
    cg: Optional[ConflictGraph] = None,
) -> list:
    """Empty list iff pc is a valid (and, if required, total) strong list coloring."""
    if cg is None:  # an empty ConflictGraph is falsy, so test for None
        cg = build_conflict_graph(b)
    out = []
    for e, c in sorted(pc.assigned.items()):
        if e < 0 or e >= b.graph.edge_count:
            out.append(Violation("list", (e,), f"unknown edge id {e}"))
            continue
        if L is not None and c not in L.get(e):
            out.append(Violation("list", (e,), f"color {c} not in list of edge {e}"))
        for f in cg[e]:
            if f > e and pc.assigned.get(f) == c:
                out.append(
                    Violation("conflict", (e, f), f"edges {e} and {f} share color {c}")
                )
    if require_total:
        for e in range(b.graph.edge_count):
            if e not in pc.assigned:
                out.append(Violation("uncolored", (e,), f"edge {e} has no color"))
    return out


def incidence_adjacent(g: Multigraph, i1: Incidence, i2: Incidence) -> bool:
    """Adjacency of two distinct incidences: same vertex, same edge, or the
    edge joining their vertices is one of the two edges."""
    if i1 == i2:
        return False
    v, e = i1
    w, f = i2
    if v == w or e == f:
        return True
    return set(g.endpoints(e)) == {v, w} or set(g.endpoints(f)) == {v, w}


def verify_incidence(
    g: Multigraph,
    coloring: Mapping[Incidence, int],
    L: Optional[Mapping[Incidence, Iterable[int]]] = None,
    require_total: bool = False,
) -> list:
    """Empty list iff adjacent colored incidences always differ (and lists are respected).

    One pass over the vertices finds every clashing pair, by this fact:
    two distinct incidences are adjacent exactly when both lie in one
    clique K(v, f) = {(v, e) : e at v} | {(x, f)}, where f is an edge at v
    and x is its other end.

    *Inside a clique every pair is adjacent.*  Two incidences (v, e) and
    (v, e') share a vertex.  (v, e) and (x, f) share the edge when e = f;
    otherwise f joins their vertices v and x and is one of the two edges.

    *Every adjacent pair lies in a clique.*  Same vertex v: K(v, f) for any
    f at v.  Same edge f = vx: (v, f) and (x, f) lie in K(v, f).  Otherwise
    the pair is (v, e) and (w, f) with the edge joining v and w among e
    and f.  If e joins them, (w, f) is at w and (v, e) is the far
    incidence of e at w, so both lie in K(w, e); if f does, both lie in
    K(v, f).  Parallel edges change nothing: each edge is its own f.

    So for each vertex v the pass checks that the colored incidences at v
    have distinct colors and that the far incidence of each edge at v
    avoids every color at v.  Each clashing pair is recorded under its
    smaller incidence, since it may be found in more than one clique.
    Keys that are not incidences of ``g`` are never looked up there.
    The report then walks the keys in sorted order: a list violation
    comes before that incidence's conflicts, whose partners ascend.  It
    is skipped when it could report nothing: no clash, no lists, and
    every key found by the pass.
    """
    get = coloring.get
    clashes: dict = {}  # smaller incidence -> larger incidences sharing its color

    def clash(a: tuple, b: tuple) -> None:
        lo, hi = (a, b) if a < b else (b, a)
        clashes.setdefault(lo, set()).add(hi)

    colored = 0  # keys found by the pass: the colored incidences of g
    for v, at_v in enumerate(g.adj):
        colors = [get((v, e)) for e, _ in at_v]
        colored += len(colors) - colors.count(None)
        if len(set(colors)) < len(colors):  # a repeat, or two uncolored
            for i, (e, _) in enumerate(at_v):
                for j in range(i):
                    if colors[i] is not None and colors[i] == colors[j]:
                        clash((v, e), (v, at_v[j][0]))
        for f, x in at_v:
            far = get((x, f))
            if far is not None and far in colors:
                for (e, _), c in zip(at_v, colors):
                    if c == far:
                        clash((x, f), (v, e))

    edges = g.edges
    out = []
    if clashes or L is not None or colored < len(coloring):
        for inc in sorted(coloring):
            v, e = inc
            if not 0 <= e < len(edges) or v not in edges[e]:
                out.append(Violation("list", (inc,), f"{inc} is not an incidence of the graph"))
                continue
            c = coloring[inc]
            if L is not None and c not in set(L.get(inc, ())):
                out.append(Violation("list", (inc,), f"color {c} not in list of {inc}"))
            for nb in sorted(clashes.get(inc, ())):
                nb = Incidence(*nb)
                out.append(
                    Violation("conflict", (inc, nb), f"incidences {inc} and {nb} share color {c}")
                )
    # the keys are distinct, so the 2m incidences are all colored iff 2m keys are valid
    if require_total and colored < 2 * g.edge_count:
        for inc in g.incidences():
            if inc not in coloring:
                out.append(Violation("uncolored", (inc,), f"{inc} has no color"))
    return out
