"""Graph representations, structural queries, and the subdivision transform.

The two central types are :class:`Multigraph` (loopless, parallel edges
allowed) and :class:`BipartiteGraph` (simple, two-part labeled).  Edge ids
are dense integers ``0..m-1`` assigned in input order, so colorings and
color lists can be stored in flat maps.

All types are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    BadEdgeId,
    BadVertexId,
    InternalInvariant,
    LoopEdge,
    NotBipartite,
    NotTwoThree,
)

PART_A = "A"
PART_B = "B"


class Incidence(NamedTuple):
    """A (vertex, edge) pair where the vertex is an endpoint of the edge."""

    vertex: int
    edge: int


class Multigraph:
    """Loopless undirected multigraph with dense integer vertex and edge ids.

    The adjacency is two aligned tuples per vertex: ``inc[v][k]`` is the id
    of the edge joining v to ``nbrs[v][k]``, in ascending edge id order,
    so a neighbour joined by parallel edges is listed once per edge.  A
    reader takes the half it needs, and no pair is stored per incidence.
    """

    __slots__ = ("vertex_count", "edges", "nbrs", "inc")

    def __init__(self, vertex_count: int, edges: tuple, nbrs: tuple, inc: tuple):
        self.vertex_count = vertex_count
        self.edges = edges  # edge id -> (u, v)
        self.nbrs = nbrs  # vertex -> tuple of neighbours
        self.inc = inc  # vertex -> tuple of edge ids, aligned with nbrs

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def endpoints(self, e: int) -> tuple:
        if not 0 <= e < len(self.edges):
            raise BadEdgeId(f"edge {e} not in graph with {len(self.edges)} edges")
        return self.edges[e]

    def degree(self, v: int) -> int:
        return len(self.inc[v])

    def max_degree(self) -> int:
        return max(map(len, self.inc), default=0)

    def incidences(self) -> Iterator[Incidence]:
        """(u, e) then (v, e) for each edge e = uv, in edge id order."""
        ids = range(len(self.edges))
        # tuple.__new__ builds each key in C; Incidence(...) runs a Python __new__
        return map(tuple.__new__, repeat(Incidence),
                   zip(chain.from_iterable(self.edges), chain.from_iterable(zip(ids, ids))))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.vertex_count}, m={self.edge_count})"


def build_multigraph(vertex_count: int, endpoint_pairs: Sequence) -> Multigraph:
    """Validate and build a multigraph; edge ids follow input order."""
    edges = []
    nbrs: list = [[] for _ in range(vertex_count)]
    inc: list = [[] for _ in range(vertex_count)]
    for eid, (u, v) in enumerate(endpoint_pairs):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise BadVertexId(f"edge {eid} endpoints ({u}, {v}) out of range 0..{vertex_count - 1}")
        if u == v:
            raise LoopEdge(f"edge {eid} is a loop at vertex {u}")
        edges.append((u, v))
        nbrs[u].append(v)
        nbrs[v].append(u)
        inc[u].append(eid)
        inc[v].append(eid)
    return Multigraph(vertex_count, tuple(edges), tuple(map(tuple, nbrs)), tuple(map(tuple, inc)))


class BipartiteGraph:
    """A simple multigraph together with an A/B vertex labeling.

    Construction checks that every edge crosses the parts and that the graph
    is simple; parallel edges are rejected because the strong-conflict
    counting this package relies on is unsound in their presence.
    Degree caps are checked separately by :meth:`validate_23`.
    """

    __slots__ = ("graph", "part_of")

    def __init__(self, graph: Multigraph, part_of: Sequence[str]):
        if len(part_of) != graph.vertex_count:
            raise NotBipartite("part labeling does not cover the vertex set")
        part_of = tuple(part_of)
        for p in part_of:
            if p not in (PART_A, PART_B):
                raise NotBipartite(f"unknown part label {p!r}")
        # the crossing edges give m distinct sorted pairs exactly when every
        # edge crosses and none is parallel; the loop below runs only to
        # name the first fault
        crossing = {(u, v) if u < v else (v, u) for u, v in graph.edges if part_of[u] != part_of[v]}
        if len(crossing) < len(graph.edges):
            seen = set()
            for eid, (u, v) in enumerate(graph.edges):
                if part_of[u] == part_of[v]:
                    raise NotBipartite(f"edge {eid} joins two {part_of[u]}-vertices")
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise NotTwoThree(f"parallel edge {eid} between {u} and {v}")
                seen.add(key)
        self.graph = graph
        self.part_of = part_of

    def part(self, v: int) -> str:
        return self.part_of[v]

    def a_vertices(self) -> list:
        return [v for v in range(self.graph.vertex_count) if self.part_of[v] == PART_A]

    def b_vertices(self) -> list:
        return [v for v in range(self.graph.vertex_count) if self.part_of[v] == PART_B]

    def validate_23(self) -> "BipartiteGraph":
        """Check the (2,3) degree caps; returns self for chaining."""
        for v in range(self.graph.vertex_count):
            d = self.graph.degree(v)
            cap = 2 if self.part_of[v] == PART_A else 3
            if d > cap:
                raise NotTwoThree(
                    f"vertex {v} in part {self.part_of[v]} has degree {d} > {cap}"
                )
        return self

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(n={self.graph.vertex_count}, m={self.graph.edge_count}, "
            f"|A|={len(self.a_vertices())}, |B|={len(self.b_vertices())})"
        )


def components(g: Multigraph) -> list:
    """Connected components as sorted vertex lists, in ascending order of minimum id."""
    seen = [False] * g.vertex_count
    out = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in g.nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        comp.sort()
        out.append(comp)
    return out


@dataclass(frozen=True)
class SubdivisionMap:
    """Result of subdividing every edge once; it holds only ``bipartite``.

    Original vertices keep their ids and land in part B; the midpoint of
    original edge ``e`` is vertex ``n + e`` in part A.  Edge ``2e + s`` of
    the subdivision joins ``g.edges[e][s]`` to that midpoint, so it is the
    incidence ``(g.edges[e][s], e)``: edge ``i`` is the ``i``-th item of
    ``g.incidences()``.  That bijection is what transports incidence
    colorings to strong edge-colorings.  In the adjacency the midpoint
    ``n + e`` has ``g.edges[e]`` itself as its ``nbrs`` entry and
    ``(2e, 2e + 1)`` as its ``inc`` entry.
    """

    bipartite: BipartiteGraph

    @property
    def incidence_to_edge(self) -> dict:
        """Incidence -> edge id of the subdivision, in edge id order."""
        return {Incidence(w, i // 2): i for i, (w, _) in enumerate(self.bipartite.graph.edges)}

    def edge_lists(self, inc_lists: Mapping) -> dict:
        """Edge id -> the color list of its incidence, the caller's own
        object; a missing list is ``()``."""
        return {
            i: inc_lists.get((w, i // 2), ())
            for i, (w, _) in enumerate(self.bipartite.graph.edges)
        }


def subdivide(g: Multigraph) -> SubdivisionMap:
    """Subdivide each edge of ``g`` exactly once, numbered as in :class:`SubdivisionMap`.

    The result is simple even when ``g`` has parallel edges (each parallel
    edge gets its own midpoint), has ``|V| + |E|`` vertices and ``2|E|``
    edges, and midpoints all have degree 2.  The graph is written directly
    in the order ``build_multigraph`` would give it, and ``BipartiteGraph``
    checks it as it checks any input.  Each edge id is made once, so
    ``inc`` of an endpoint and of the midpoint share one int.
    """
    n, m = g.vertex_count, g.edge_count
    edges = []
    nbrs: list = [[] for _ in range(n)]
    inc: list = [[] for _ in range(n)]
    mid_inc = []
    for e, (u, v) in enumerate(g.edges):
        mid = n + e
        i, j = 2 * e, 2 * e + 1
        edges += ((u, mid), (v, mid))
        nbrs[u].append(mid)
        nbrs[v].append(mid)
        inc[u].append(i)
        inc[v].append(j)
        mid_inc.append((i, j))
    nbrs_all = tuple(map(tuple, nbrs)) + g.edges  # the midpoint n + e reuses g.edges[e]
    inc_all = tuple(map(tuple, inc)) + tuple(mid_inc)
    sg = Multigraph(n + m, tuple(edges), nbrs_all, inc_all)
    return SubdivisionMap(BipartiteGraph(sg, [PART_B] * n + [PART_A] * m))


def infer_parts(g: Multigraph) -> BipartiteGraph:
    """Recover a part labeling with Δ(A) ≤ 2 and Δ(B) ≤ 3.

    Each component is two-colored from its lowest-id vertex; of the two
    labelings the one placing that anchor in B is preferred when both fit
    the degree caps.  Degree-3 vertices are thereby forced into B wherever
    a valid labeling exists.
    """
    n = g.vertex_count
    side = [-1] * n  # 0 = anchor side, 1 = other side
    part_of = [PART_B] * n
    for comp in components(g):
        anchor = comp[0]
        side[anchor] = 0
        queue = [anchor]
        for v in queue:
            for w in g.nbrs[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    raise NotBipartite(f"odd cycle through vertices {v} and {w}")
        for parts in ((PART_B, PART_A), (PART_A, PART_B)):  # parts[side]
            if all(g.degree(v) <= (2 if parts[side[v]] == PART_A else 3) for v in comp):
                break
        else:
            raise NotTwoThree(f"component of vertex {anchor} admits no (2,3) labeling")
        for v in comp:
            part_of[v] = parts[side[v]]
    return BipartiteGraph(g, part_of)


@dataclass(frozen=True)
class CycleDescriptor:
    """A cycle plus the pendant map of its degree-3 vertices.

    ``vertices`` is normalized so the first vertex is the lowest-id
    A-vertex on the cycle and A/B alternate (A at even 0-based positions).
    ``edges[i]`` joins ``vertices[i]`` and ``vertices[(i+1) % n]``.
    ``pendant`` maps each degree-3 cycle vertex to ``(third neighbor, edge id)``.
    """

    vertices: tuple
    edges: tuple
    pendant: dict

    def __len__(self) -> int:
        return len(self.vertices)


def _carve_cycle(b: BipartiteGraph, s: int):
    """A cycle of ``s``'s component with distinct pendant ends, as (vertices, descents).

    ``s`` must lie in an untouched (2,3)-biregular component.  A BFS from
    ``s`` stops at its first non-tree edge uw; the tree paths from u and w
    up to ``s`` last meet at some x, and the two paths below x plus uw
    form a cycle through x.  x need not be ``s``, so an ``s`` on a bridge
    is fine.  While the cycle C has length >= 6 and two of its B-vertices
    share a pendant end p, the shorter arc between them closed through p
    replaces it.  p lies off C, as both of its edges are pendants, so that
    is a cycle of length at most |C|/2 + 2 < |C|: the descent ends, and
    ``descents`` counts its steps.  The first shared end along the cycle
    is taken.
    """
    nbrs, part_of = b.graph.nbrs, b.part_of
    parent = {s: -1}
    queue = [s]
    closed = False
    for u in queue:
        for w in nbrs[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
            elif w != parent[u]:
                closed = True
                break
        if closed:
            break
    else:
        raise InternalInvariant(f"the component of vertex {s} has no cycle")
    up_u = [u]
    while up_u[-1] != s:
        up_u.append(parent[up_u[-1]])
    on_u = set(up_u)
    up_w = [w]
    while up_w[-1] not in on_u:
        up_w.append(parent[up_w[-1]])
    cyc = up_u[up_u.index(up_w[-1])::-1] + up_w[:-1]  # x ... u, w ... below x
    descents = 0
    while len(cyc) >= 6:
        n = len(cyc)
        owner = {}  # pendant end -> position of its B-vertex on the cycle
        for i, v in enumerate(cyc):
            if part_of[v] == PART_B:
                around = (cyc[i - 1], cyc[(i + 1) % n])
                p = next(x for x in nbrs[v] if x not in around)
                j = owner.setdefault(p, i)
                if j != i:
                    break
        else:
            break
        # the arcs j..i and i..j (wrapping) both end at the two owners of p
        cyc = cyc[j:i + 1] + [p] if 2 * (i - j) <= n else cyc[i:] + cyc[:j + 1] + [p]
        descents += 1
    return tuple(cyc), descents


def _cycle_through(start, nbrs, dist, parent, cap):
    """Shortest cycle through ``start`` as (length, positions), or None.

    ``nbrs`` holds neighbour positions; ``dist`` must read -1 at
    every position on entry and does again on return.  BFS records a
    candidate only on non-tree edges pointing one level down, so
    candidates seen while popping level d close cycles of length exactly
    2d and the first one found is minimal through ``start``.  Levels beyond
    ``cap`` never enter the queue.
    If the two tree paths of the first candidate overlap, the closed walk
    strictly contains a shorter cycle, so the candidate is dropped and the
    result is None.  Without parallel edges, "not the tree edge of u" is
    "not the parent of u".
    """
    dist[start] = 0
    parent[start] = -1
    queue = [start]
    try:
        for u in queue:
            du = dist[u]
            pu = parent[u]
            for w in nbrs[u]:
                dw = dist[w]
                if dw < 0:
                    if du < cap:
                        dist[w] = du + 1
                        parent[w] = u
                        queue.append(w)
                elif dw == du - 1 and w != pu:
                    up_u, up_w = [u], [w]  # tree paths up to start
                    for path in (up_u, up_w):
                        while path[-1] != start:
                            path.append(parent[path[-1]])
                    if not set(up_u[:-1]).isdisjoint(up_w[:-1]):
                        return None
                    cyc = up_u[::-1] + up_w[:-1]
                    return len(cyc), cyc
        return None
    finally:
        for v in queue:
            dist[v] = -1


def _residual_shortest_cycle(b: BipartiteGraph, vertex_order):
    """Shortest cycle among ``vertex_order`` as (length, vertices), or None.

    Only ``shortest_cycle`` calls this; the solver carves with
    ``_carve_cycle``, which needs no shortest cycle.

    The graph is scanned untouched, and ``vertex_order`` must be a union
    of its components, as a sequence.  Starts are scanned in that order;
    the first cycle achieving the minimum length wins.

    The result equals that of a BFS from every start (Itai & Rodeh), as
    ``_cycle_through`` runs it, but that BFS runs from one start only.
    First each start s runs a length-only BFS that enters only positions
    after s.  When a vertex u at level d meets an already-discovered
    vertex w that is not its parent, the BFS reports 2(d + 1): edges of a
    bipartite graph join adjacent levels, and a w at level d - 1 would
    have reported on u when it was popped, so w sits at level d + 1 and
    closes a walk of that length.  Then the first start s* to report the
    minimum g is replayed.  Four facts make this exact:

    - Every cycle C lies inside the restricted BFS of its lowest vertex s,
      as all its vertices come after s.  Were all levels below |C|/2
      popped without a report, every edge met would be a tree edge; each
      edge of C has an end at such a level, so C would lie in the tree.
      So s reports at most |C| when its cap lets it pop those levels.
    - A report is two tree paths from s that first part at some x, closed
      by one edge.  If x = s it is a cycle through s.  Otherwise the walk
      strictly contains a shorter cycle through x, whose vertices all come
      after s.  So every report is at least the girth g, a report of
      exactly g is a girth cycle through s, and by the first fact the
      minimum over all starts is g.
    - Let s* be the first vertex of the order on a girth cycle.  Every
      vertex of a girth cycle through s* comes at or after s*, so s*
      reports g, and by the second fact every earlier start reports more.
      So s* is the first start to report g.  A start with fewer than two
      neighbours after it lies on no cycle of its restricted BFS, so
      by the second fact any report from it exceeds g; it is skipped,
      which only leaves later caps looser.  s* has two, on its girth
      cycle.
    - ``_cycle_through`` from s* meets no candidate before level g/2, as
      it would close a walk shorter than g, and its cap only keeps deeper
      levels out of the queue.  So the BFS order up to level g/2, and with
      it the first candidate, is the same for every cap >= g/2.  A BFS
      from every start reaches s* with a cap of at least g/2 and keeps
      that candidate, whose tree paths cannot overlap without holding a
      cycle shorter than g; the replay with cap g/2 returns it.

    Only a report below the current best can win, so each BFS pops only
    levels d with 2(d + 1) < best, and the scan stops at a 4-cycle, as a
    simple bipartite graph has no shorter one.  Before s* the best exceeds
    g, so s* still pops every level below g/2.
    """
    g = b.graph
    pos = {v: i for i, v in enumerate(vertex_order)}
    nbrs = [[pos[w] for w in g.nbrs[v]] for v in vertex_order]
    dist = [-1] * len(vertex_order)
    best, first = len(vertex_order) + 2, -1  # longer than any cycle
    for s, ns in enumerate(nbrs):
        if len([w for w in ns if w > s]) < 2:
            continue
        cap = (best - 2) // 2
        dist[s] = 0
        queue = [s]
        found = 0
        for u in queue:
            du = dist[u] + 1
            if du > cap:
                break
            for w in nbrs[u]:
                if w > s:
                    dw = dist[w]
                    if dw < 0:
                        dist[w] = du
                        queue.append(w)
                    elif dw == du:
                        found = du
                        break
            if found:
                break
        for v in queue:
            dist[v] = -1
        if found:
            best, first = 2 * found, s
            if best == 4:
                break
    if first < 0:
        return None
    hit = _cycle_through(first, nbrs, dist, [-1] * len(vertex_order), best // 2)
    if hit is None or hit[0] != best:
        raise InternalInvariant(f"no {best}-cycle through the first start that reported one")
    return best, tuple(vertex_order[x] for x in hit[1])


def _descriptor_from_cycle(b: BipartiteGraph, cyc) -> CycleDescriptor:
    g = b.graph
    n = len(cyc)
    if n % 2 != 0:
        raise InternalInvariant(f"odd cycle of length {n} in a bipartite graph")
    # normalize rotation: lowest-id A-vertex first, lower-id neighbor second
    a_positions = [i for i, v in enumerate(cyc) if b.part_of[v] == PART_A]
    if not a_positions:
        raise InternalInvariant("cycle without A-vertices")
    start_pos = min(a_positions, key=lambda i: cyc[i])
    before = cyc[(start_pos - 1) % n]
    after = cyc[(start_pos + 1) % n]
    ordered = [cyc[(start_pos + k) % n] for k in range(n)]
    if before < after:
        ordered = [ordered[0]] + ordered[:0:-1]
    edge_of = {}
    for v in ordered:
        for w, eid in zip(g.nbrs[v], g.inc[v]):
            edge_of[(v, w)] = eid
    cyc_edges = []
    cyc_set = set(ordered)
    pos = {v: i for i, v in enumerate(ordered)}
    for i, v in enumerate(ordered):
        w = ordered[(i + 1) % n]
        if (v, w) not in edge_of:
            raise InternalInvariant(f"cycle vertices {v},{w} not adjacent")
        cyc_edges.append(edge_of[(v, w)])
    pendant = {}
    for v in ordered:
        if b.part_of[v] != PART_B:
            continue
        i = pos[v]
        on_cycle = {cyc_edges[i], cyc_edges[i - 1]}
        third = [(eid, w) for w, eid in zip(g.nbrs[v], g.inc[v]) if eid not in on_cycle]
        if len(third) > 1:
            raise InternalInvariant(f"cycle vertex {v} has {len(third) + 2} edges")
        if third:
            eid, w = third[0]
            if w in cyc_set:
                raise InternalInvariant(f"pendant neighbor {w} of {v} lies on the cycle")
            pendant[v] = (w, eid)
    if n >= 6:
        # unreachable: _carve_cycle descends until the ends are distinct, and
        # on a shortest cycle a shared end would close a shorter one
        seen = {}
        for v, (w, _) in pendant.items():
            if w in seen:
                raise InternalInvariant(
                    f"pendant neighbors of {seen[w]} and {v} coincide on a {n}-cycle"
                )
            seen[w] = v
    for i, v in enumerate(ordered):
        expected = PART_A if i % 2 == 0 else PART_B
        if b.part_of[v] != expected:
            raise InternalInvariant("cycle does not alternate between parts")
    return CycleDescriptor(tuple(ordered), tuple(cyc_edges), pendant)


def shortest_cycle(b: BipartiteGraph) -> Optional[CycleDescriptor]:
    """Shortest cycle of a validated (2,3)-bipartite graph, or None for forests."""
    b.validate_23()
    hit = _residual_shortest_cycle(b, range(b.graph.vertex_count))
    if hit is None:
        return None
    return _descriptor_from_cycle(b, list(hit[1]))
