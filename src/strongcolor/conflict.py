"""The strong-adjacency (conflict) relation on edges and incidences.

Two edges conflict when they share an endpoint or when some third edge
joins an endpoint of one to an endpoint of the other; a strong edge-coloring
must give conflicting edges distinct colors.  Incidence adjacency is the
analogous relation on (vertex, edge) pairs; ``verify_incidence`` states it.

Verifiers return violations as data rather than raising, so they double as
test assertions and as the CLI ``verify`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, Mapping, Optional

from .graph import BipartiteGraph, Incidence, Multigraph


# A list assignment L maps each edge id (or incidence) to its color list
# L(e), a collection of distinct non-negative integers.  The builders give
# ascending tuples, one object per distinct list.  The solvers check and sort
# each distinct list once at the door, and the verifiers use only ``in``, so
# frozensets work as well.
ListAssignment = dict


def uniform_lists(keys: Iterable, k: int) -> ListAssignment:
    """Identical lists (1, ..., k) on the given edge ids or incidences."""
    palette = tuple(range(1, k + 1))
    return {key: palette for key in keys}


class PartialColoring:
    """Mutable edge-id -> color map; single writer, read-only sharing is safe."""

    __slots__ = ("assigned",)

    def __init__(self, assigned: Optional[Mapping[int, int]] = None):
        self.assigned: Dict[int, int] = dict(assigned or {})


@dataclass(frozen=True)
class ConflictGraph:
    """Precomputed conflict sets, sorted per edge for deterministic scans."""

    conflicts: tuple

    def __getitem__(self, e: int) -> tuple:
        return self.conflicts[e]

    def __len__(self) -> int:
        return len(self.conflicts)


def conflict_walk(b: BipartiteGraph, e: int) -> list:
    """The edges that conflict with e, some of them more than once.

    The walk takes every edge f at the far end w of an edge g != e at an
    endpoint of e.  Such an f conflicts with e, as g meets both, and is
    not e, as a simple graph has no second edge joining the endpoints of
    e.  Each f that conflicts with e is taken: through g = f when f shares
    an endpoint with e, and otherwise through the edge g meeting both.
    In a simple graph the edge uw is e exactly when w = v, so the walk
    skips the far end rather than the edge id.
    """
    nbrs, inc = b.graph.nbrs, b.graph.inc
    u, v = b.graph.endpoints(e)  # raises BadEdgeId
    return [f for w in nbrs[u] if w != v for f in inc[w]] + [
        f for w in nbrs[v] if w != u for f in inc[w]
    ]


def conflict_edges(b: BipartiteGraph, e: int) -> set:
    """All edges f != e sharing an endpoint with e or joined to e by a third edge.

    Equivalently, some edge g (possibly e or f itself) meets both e and f.
    That condition is symmetric in e and f, so the relation needs no
    symmetry check.
    """
    return set(conflict_walk(b, e))


def build_conflict_graph(b: BipartiteGraph) -> ConflictGraph:
    return ConflictGraph(
        tuple(tuple(sorted(conflict_edges(b, e))) for e in range(b.graph.edge_count))
    )


def available(e: int, L: ListAssignment, pc: PartialColoring, b: BipartiteGraph) -> set:
    """L(e) minus the colors of assigned conflicting edges (``conflict_walk``)."""
    # an uncolored edge reads as None, which no list holds
    return set(L[e]) - set(map(pc.assigned.get, conflict_walk(b, e)))


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
) -> list:
    """Empty list iff pc is a valid (and, if required, total) strong list coloring.

    One pass over the edges decides whether any two conflicting edges share
    a color, by this fact: edges e and f conflict exactly when both lie in
    one clique K(g) = {edges at u} | {edges at v}, where g = uv is an edge.

    *Inside a clique every pair conflicts.*  Two edges at u share u, and so
    do two edges at v.  An edge at u and an edge at v are both met by g.

    *Every conflicting pair lies in a clique.*  By ``conflict_edges``, e
    and f conflict when some edge g (possibly e or f itself) meets both;
    g = uv meets e when e is at u or at v, that is, when e is in K(g).

    So the pass reads the colors at every vertex once, an uncolored edge f
    reading as ~f, which no other edge holds, and checks for each edge
    g = uv that the colors at u and v repeat only g's own value: the graph
    is simple, so g is the one edge at both.  A color that happens to
    equal some ~f can only fail a clique, never pass one.  The report is
    built only when it could hold something: a failed clique, a key that
    is not an edge id, or a color outside its list.  It walks the keys in
    sorted order: a list violation comes before that edge's conflicts,
    whose partners ascend, as ``conflict_edges`` finds them.
    """
    g = b.graph
    m = g.edge_count
    assigned = pc.assigned
    get = assigned.get
    at = [[get(f, ~f) for f in a] for a in g.inc]  # the colors at each vertex
    clash = any(len({*at[u], *at[v]}) < len(at[u]) + len(at[v]) - 1 for u, v in g.edges)
    colored = len(assigned.keys() & range(m))  # keys that are edge ids
    out = []
    if (
        clash
        or colored < len(assigned)
        or (L is not None and any(c not in L.get(e, ()) for e, c in assigned.items()))
    ):
        for e, c in sorted(assigned.items()):
            if e < 0 or e >= m:
                out.append(Violation("list", (e,), f"unknown edge id {e}"))
                continue
            if L is not None and c not in L.get(e, ()):
                out.append(Violation("list", (e,), f"color {c} not in list of edge {e}"))
            if clash:
                for f in sorted(conflict_edges(b, e)):
                    if f > e and get(f) == c:
                        out.append(
                            Violation("conflict", (e, f), f"edges {e} and {f} share color {c}")
                        )
    if require_total and colored < m:
        for e in range(m):
            if e not in assigned:
                out.append(Violation("uncolored", (e,), f"edge {e} has no color"))
    return out


def verify_incidence(
    g: Multigraph,
    coloring: Mapping[Incidence, int],
    L: Optional[Mapping[Incidence, Collection[int]]] = None,
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
    nbrs = g.nbrs
    for v, at_v in enumerate(g.inc):
        colors = [get((v, e)) for e in at_v]
        colored += len(colors) - colors.count(None)
        if len(set(colors)) < len(colors):  # a repeat, or two uncolored
            for i, e in enumerate(at_v):
                for j in range(i):
                    if colors[i] is not None and colors[i] == colors[j]:
                        clash((v, e), (v, at_v[j]))
        nbrs_v = nbrs[v]  # edge at_v[k] joins v to nbrs_v[k]
        for k, f in enumerate(at_v):
            far = get((nbrs_v[k], f))
            if far is not None and far in colors:
                for e, c in zip(at_v, colors):
                    if c == far:
                        clash((nbrs_v[k], f), (v, e))

    edges = g.edges
    out = []
    if clashes or L is not None or colored < len(coloring):
        for inc in sorted(coloring):
            v, e = inc
            if not 0 <= e < len(edges) or v not in edges[e]:
                out.append(Violation("list", (inc,), f"{inc} is not an incidence of the graph"))
                continue
            c = coloring[inc]
            if L is not None and c not in L.get(inc, ()):
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
