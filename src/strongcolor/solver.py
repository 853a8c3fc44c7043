"""Constructive strong list edge-coloring of (2,3)-bipartite graphs.

The solver peels away edges at low-degree vertices, carves one cycle out
of each (2,3)-biregular component the peel leaves, and colors everything
in reverse order of removal.  A component's cycle is carved before the
rest of it is peeled, and components never interact, so the unwind runs
in two phases over two lists: first each peeled edge greedily, last
peeled first, then each carved cycle, last carved first, by a dedicated
extension procedure driven by the current available lists.

A vertex qualifies for peeling when its residual degree is positive but
below full: at most 1 for an A-vertex, at most 2 for a B-vertex.

Lemma: once any edge of a connected (2,3)-bipartite component is
removed, peeling removes every edge of that component.  Proof: let W be
the set of vertices that keep an edge when peeling stops.  No vertex
qualifies then, so each vertex of W keeps all of its edges, and each of
its neighbours is in W too.  W is closed under adjacency, so it is a
union of components.  Were the component among them, it would keep all
of its edges, yet one was removed.  So none of its edges is left.  Two
consequences shape ``color_strong_23``:

* a component with an edge and a vertex below full degree has a vertex
  that qualifies from the start, so the first peel removes all of it;
* in a (2,3)-biregular component no vertex qualifies, so the first peel
  leaves it untouched.  It is carved exactly once and then peels
  completely.

So after the first peel the vertices of positive degree are exactly the
untouched biregular components, and scanning them in ascending order
meets each component first at its lowest vertex, where it is carved.
Components never interact, and each later peel pops only inside the
component just carved, so a component's peeled edges and its cycle keep
the order a solve of that component alone would give them.

The carve (``graph._carve_cycle``) returns a cycle C of an untouched
biregular component, not necessarily a shortest one, whose B-vertices
have pairwise distinct pendant ends when |C| >= 6.  A 4-cycle whose ends
coincide is K_{2,3}, a whole component.  Otherwise four facts hold, and
they are all the extensions and path procedures use:

* C has no chord: an A-vertex on C has degree 2 and both of its edges lie
  on C, and no edge joins two B-vertices;
* each B-vertex v of C has one pendant edge vp, and p lies off C (vp is
  no chord); p's other neighbour q, a B-vertex, lies off C too, or p
  would be the pendant end of both v and q;
* so a cycle edge sees exactly one edge outside the region of C and its
  pendants, pq at the pendant of its B-end, and a pendant edge vp sees
  the three edges at q; everything outside the region is colored first,
  so at least 5 and 3 of the 6 list colors survive;
* no edge outside the region meets two region edges: it has no end on
  C, as every edge at a vertex of C is in the region; a pendant end has
  one region edge, as the ends are distinct; and two pendant ends are
  A-vertices, never adjacent.  So the region's conflicts are exactly the
  configuration's: the square of the cycle, plus each pendant at its
  B-vertex.

The carve descends while two B-vertices of C share a pendant end p: the
shorter arc between them, closed through p, is a cycle of length at most
|C|/2 + 2, which is less than |C| once |C| >= 6, so the descent ends.

A peeled edge fares as well: one peeled at an A-endpoint of degree <= 1
has at most 4 conflicts in the residue at peel time, one peeled at a
B-endpoint of degree <= 2 at most 5, both below the list size 6, so the
greedy unwind never runs out of colors.

The greedy phase reads colors from per-vertex bit masks over the ranked
palette of the peeled edges' lists; ``greedy_unwind`` shows why that is
exact.  A mask operation costs O(P / 30) machine words for P ranked
colors, and a vertex's mask can be P bits wide, so the masks suit narrow
palettes.  Measured on subdivided ``random_cubic(n, 7)`` against a
two-hop walk over the conflicting edges: with random 6-lists the masks
are faster below P = 1024 and about even at P = 1024; at P = 16384 they
are still faster at n = 2000 but slower at n = 20000; pairwise-disjoint
lists (P = 6m) make the unwind several times slower and its masks take
O(n P) bits.

At entry to every extension and path procedure the available lists are
truncated (smallest colors kept) to the exact sizes the counting steps
assume; a coloring from truncated lists is valid for the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .conflict import (
    ListAssignment,
    PartialColoring,
    available,
    conflict_walk,
    uniform_lists,
    verify_strong,
)
from .errors import DegreeTooHigh, InternalInvariant, ListTooSmall
from .graph import (
    PART_A,
    BipartiteGraph,
    CycleDescriptor,
    Incidence,
    Multigraph,
    _carve_cycle,
    _descriptor_from_cycle,
    subdivide,
)
from .matching import rainbow_sdr


@dataclass
class SolveStats:
    """Counters describing which parts of the case machinery a solve used."""

    peeled_edges: int = 0
    c4_extensions: int = 0
    c6_extensions: int = 0
    long_cycle_extensions: int = 0
    k23_base_cases: int = 0
    sdr_calls: int = 0
    carve_descents: int = 0

    def merge(self, other: "SolveStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


# ---------------------------------------------------------------------------
# peeling


@dataclass
class PeelState:
    """Residual subgraph for peeling.

    ``cap[v]`` is the largest residual degree at which v qualifies: 1 for
    an A-vertex, 2 for a B-vertex.  A vertex qualifies when
    ``0 < deg[v] <= cap[v]``; ``heap`` holds candidates, re-tested on pop.
    """

    alive: list
    deg: list
    cap: list
    heap: list

    @staticmethod
    def for_graph(b: BipartiteGraph) -> "PeelState":
        deg = list(map(len, b.graph.inc))
        cap = [1 if p == PART_A else 2 for p in b.part_of]
        heap = [v for v, d in enumerate(deg) if 0 < d <= cap[v]]  # ascending, so a heap
        return PeelState([True] * b.graph.edge_count, deg, cap, heap)


def _remove_edge(b: BipartiteGraph, state: PeelState, e: int) -> None:
    state.alive[e] = False
    for v in b.graph.endpoints(e):
        state.deg[v] -= 1
        if 0 < state.deg[v] <= state.cap[v]:
            heappush(state.heap, v)


def peel(b: BipartiteGraph, state: PeelState) -> Iterator[int]:
    """Remove and yield deferrable edges until the (2,3)-regular core is left.

    An edge is deferrable when its A-endpoint has residual degree <= 1 or
    its B-endpoint degree <= 2; the lowest qualifying vertex and then the
    lowest incident edge id win.  Each removal is ``_remove_edge``, written
    out in the loop.
    """
    inc, edges = b.graph.inc, b.graph.edges
    alive, deg, cap, heap = state.alive, state.deg, state.cap, state.heap
    m = len(alive)
    while heap:
        v = heappop(heap)
        if 0 < deg[v] <= cap[v]:  # else a stale entry
            e = m  # v qualifies, so some edge at v is alive and below m
            for f in inc[v]:
                if f < e and alive[f]:
                    e = f
            alive[e] = False
            for w in edges[e]:
                deg[w] -= 1
                if 0 < deg[w] <= cap[w]:
                    heappush(heap, w)
            yield e


def greedy_unwind(
    peeled: Sequence[int],
    carved: Sequence[CycleDescriptor],
    L: ListAssignment,
    b: BipartiteGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color the peeled edges greedily, last first, then the carved cycles, last first.

    ``peeled`` lists the edge ids in the order ``peel`` removed them and
    ``carved`` the cycles in the order they were carved; the result is a
    new coloring.  Components never interact, and within one component
    every peeled edge was peeled after its cycle was carved, so coloring
    all peeled edges before all cycles is the reverse order of removal.

    A peeled edge takes its smallest available color: sound because every
    peeled edge had at most 5 conflicts in the residual subgraph it was
    peeled from, and only those edges are colored when it is reached.  The
    colors are read from per-vertex masks.  The P colors of the peeled
    edges' lists are ranked in ascending order, and bit i of ``at[v]`` is
    set when an edge at v holds the color of rank i.  An edge f conflicts
    with e = xy exactly when f != e has an endpoint in N(x) | N(y): some
    edge g meets both, and g is xw or yw for a neighbour w.  y is in N(x)
    and x is in N(y), so the colored conflicts of the uncolored e are
    exactly the colored edges at the at most 5 vertices of N(x) | N(y).
    e takes the lowest-ranked color of its list whose bit is clear in the
    OR of their masks.  A mask operation costs O(P / 30) machine words,
    and ``at`` holds up to P bits per vertex.

    A carved cycle then goes to the extension for its length, which reads
    the coloring through ``available``.
    """
    pc = PartialColoring()
    assigned = pc.assigned
    nbrs, edges = b.graph.nbrs, b.graph.edges
    palette = sorted(set().union(*map(L.__getitem__, peeled)))
    size = len(palette)  # above every rank
    rank = {c: i for i, c in enumerate(palette)}
    at = [0] * b.graph.vertex_count
    for e in reversed(peeled):
        x, y = edges[e]
        blocked = 0
        for w in nbrs[x]:
            blocked |= at[w]
        for w in nbrs[y]:
            blocked |= at[w]
        top = size  # the lowest free rank in L[e] so far
        for c in L[e]:
            r = rank[c]
            if r < top and not blocked >> r & 1:
                top = r
        if top == size:
            raise InternalInvariant(f"peeled edge {e} has no available color at unwind")
        low = 1 << top
        at[x] |= low
        at[y] |= low
        assigned[e] = palette[top]
    for cycle in reversed(carved):
        extend = {4: extend_c4, 6: extend_c6}.get(len(cycle), extend_long_cycle)
        extend(L, pc, cycle, b, stats)
    return pc


# ---------------------------------------------------------------------------
# five-vertex path with two pendants: the precoloring seed


_FIVE_SIZES = (5, 5, 5, 5, 3, 3)


@dataclass(frozen=True)
class FivePathConfig:
    """Path u-v-w-x-y plus pendants v-z and x-t.

    ``edges`` holds the real edge ids in the order uv, vw, wx, xy, vz, xt.
    Entry lists must hold at least 5,5,5,5,3,3 available colors in that
    order.
    """

    vertices: Tuple[int, ...]  # u, v, w, x, y, z, t
    edges: Tuple[int, ...]  # uv, vw, wx, xy, vz, xt

    def __post_init__(self):
        if len(set(self.vertices)) != 7:
            raise ValueError("the seven configuration vertices must be distinct")
        if len(self.edges) != 6:
            raise ValueError(f"expected six edges uv, vw, wx, xy, vz, xt, got {len(self.edges)}")

    @staticmethod
    def standalone() -> "FivePathConfig":
        """Standalone instance: vertices 0..6 and edge ids 0..5 in edge order."""
        return FivePathConfig(tuple(range(7)), tuple(range(6)))


def _color_outside(region: _Region, e: int, f: int, avoid: int) -> int:
    """Color whichever of e, f holds their smallest color outside avoid's list.

    The lists of e and f are disjoint here.  Returns the edge left uncolored.
    """
    outside = (region.avail[e] | region.avail[f]) - region.avail[avoid]
    if not outside:
        raise InternalInvariant(f"pigeonhole failed: edges {e}, {f} hold only colors of {avoid}")
    color = min(outside)
    first, other = (e, f) if color in region.avail[e] else (f, e)
    region.assign(first, color)
    return other


def _color_sparing(region: _Region, e: int, keep: int) -> None:
    """Give e its smallest color that leaves edge keep with at least 3 colors."""
    color = next((c for c in sorted(region.avail[e]) if len(region.avail[keep] - {c}) >= 3), None)
    if color is None:
        raise InternalInvariant(f"pigeonhole failed protecting edge {keep}")
    region.assign(e, color)


def precolor_five_path(
    L: ListAssignment,
    pc: PartialColoring,
    cfg: FivePathConfig,
    b: BipartiteGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color uv, vz, xy, xt so the middle edges keep |L(vw)| >= 3, |L(wx)| >= 2."""
    region = _path_region(L, pc, b, cfg.edges, _FIVE_SIZES)
    uv, vw, wx, xy, vz, xt = cfg.edges
    avail = region.avail

    # a color shared by both pendants costs each middle edge one color
    pend_left = None
    if not region.assign_shared(vz, xt):
        # pendant lists disjoint: their union has 6 colors, one avoids vw
        pend_left = _color_outside(region, vz, xt, vw)
    if not region.assign_shared(uv, xy):
        # disjoint 4-lists: their union beats |L(vw)|, so one end edge
        # can be colored without touching vw at all
        end_left = _color_outside(region, uv, xy, vw)
        if pend_left is None:
            region.assign_min(end_left)
        else:
            # end_left has >= 4 colors while wx has >= 3: some choice keeps wx at 3
            _color_sparing(region, end_left, wx)
    if pend_left is not None:
        region.assign_min(pend_left)

    if len(avail[vw]) < 3 or len(avail[wx]) < 2:
        raise InternalInvariant(
            f"postcondition failed: |vw|={len(avail[vw])}, |wx|={len(avail[wx])}"
        )
    return pc


# ---------------------------------------------------------------------------
# odd path with pendants at even positions: total coloring by induction


def _odd_sizes(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Entry sizes of the path edges and of the pendant edges for n vertices."""
    return (3, 4) + (5,) * (n - 5) + (4, 3), (2,) + (3,) * (n // 2 - 2) + (2,)


@dataclass(frozen=True)
class OddPathConfig:
    """Path v_1..v_n (n odd >= 5) with a pendant at every even position.

    ``path_edges[i]`` joins v_{i+1} and v_{i+2}; ``pendant_vertices[k]``
    and ``pendant_edges[k]`` belong to v_{2k+2}.  Entry lists must meet
    ``_odd_sizes`` (3,4 at each end of the path and 2 on the end pendants,
    5 and 3 in the middle).
    """

    path_vertices: Tuple[int, ...]
    pendant_vertices: Tuple[int, ...]
    path_edges: Tuple[int, ...]
    pendant_edges: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.path_vertices)
        if n < 5 or n % 2 == 0:
            raise ValueError(f"path length must be odd and >= 5, got {n}")
        if len(self.path_edges) != n - 1:
            raise ValueError("path edge count mismatch")
        if not len(self.pendant_edges) == len(self.pendant_vertices) == n // 2:
            raise ValueError(f"need one pendant at each of the {n // 2} even positions")
        names = (*self.path_vertices, *self.pendant_vertices)
        if len(set(names)) != len(names):
            raise ValueError("configuration vertices must be distinct")

    @staticmethod
    def standalone(n: int) -> "OddPathConfig":
        """Standalone instance: path vertices and edges first, then pendants."""
        half = n // 2
        return OddPathConfig(
            tuple(range(n)),
            tuple(range(n, n + half)),
            tuple(range(n - 1)),
            tuple(range(n - 1, n - 1 + half)),
        )


# Base-case pairing orders.  Each entry (x, y) pairs the compatible edges
# (a1, p1)[x] and (a2, p2)[y] with one shared color; the complementary
# compatible pair (1 - x, 1 - y) is what remains besides the two middle
# edges.  The "A" order is sound for the entry shape (end 3, pendant 2)
# of a window at path index 0; the "B" order for the shape (end 2,
# pendant 3) that the reduction step leaves behind.  Soundness of each
# step uses only the disjointness of the pairs tried before it.
_BASE_ORDERS = {
    "A": ((1, 1), (0, 1), (1, 0), (0, 0)),
    "B": ((0, 1), (1, 1), (0, 0), (1, 0)),
}


def _odd_base(region: _Region, cfg: OddPathConfig, i: int, stats) -> None:
    """Color the final five-vertex window (six edges) from path index i."""
    a1, m1, m2, a2 = cfg.path_edges[i:]
    p1, p2 = cfg.pendant_edges[i // 2:]
    left, right = (a1, p1), (a2, p2)
    for x, y in _BASE_ORDERS["A" if i == 0 else "B"]:
        if region.assign_shared(left[x], right[y]):
            o1, o2 = left[1 - x], right[1 - y]
            if region.assign_shared(o1, o2):
                region.assign_min(m1)
                region.assign_min(m2)
            else:
                region.sdr((o1, o2, m1, m2), stats)
            return
    # every compatible pair has disjoint lists: a rainbow choice exists
    region.sdr((a1, m1, m2, a2, p1, p2), stats)


def _odd_reduce(region: _Region, cfg: OddPathConfig, i: int) -> None:
    """Shrink the window by two vertices from path index i.

    The second path edge takes a color that leaves the next pendant with 3
    colors; then the end pendant and end edge are colored greedily (end
    edge first when, past index 0, the entry shape gives it only 2 colors).
    """
    end, second = cfg.path_edges[i:i + 2]
    pendant, protect = cfg.pendant_edges[i // 2:i // 2 + 2]
    _color_sparing(region, second, protect)
    for e in (pendant, end) if i == 0 else (end, pendant):
        region.assign_min(e)


def color_odd_path(
    L: ListAssignment,
    pc: PartialColoring,
    cfg: OddPathConfig,
    b: BipartiteGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Totally color the configuration."""
    path_sizes, pendant_sizes = _odd_sizes(len(cfg.path_vertices))
    region = _path_region(
        L, pc, b, cfg.path_edges + cfg.pendant_edges, path_sizes + pendant_sizes
    )
    i = 0
    while len(cfg.path_edges) - i > 4:
        _odd_reduce(region, cfg, i)
        i += 2
    _odd_base(region, cfg, i, stats)
    return pc


# ---------------------------------------------------------------------------
# extension regions over real edges


class _Region:
    """Available lists for the edges one extension or path procedure colors.

    Assignments are validated against and propagated through the real
    graph, by ``conflict_walk``, so a mismatch between a configuration and
    the actual graph surfaces immediately instead of corrupting the
    coloring.
    """

    def __init__(self, L, pc, b, edge_ids):
        self.pc = pc
        self.b = b
        self.avail = {e: available(e, L, pc, b) for e in edge_ids}

    def truncate(self, e: int, k: int) -> None:
        cur = self.avail[e]
        if len(cur) < k:
            raise InternalInvariant(f"edge {e} entered an extension with {len(cur)} < {k} colors")
        self.avail[e] = set(sorted(cur)[:k])

    def assign(self, e: int, color: int) -> None:
        if e not in self.avail or color not in self.avail[e]:
            raise InternalInvariant(f"color {color} unavailable for edge {e}")
        del self.avail[e]
        self.pc.set(e, color)
        for f in conflict_walk(self.b, e):
            if f in self.avail:
                self.avail[f].discard(color)

    def assign_min(self, e: int) -> None:
        cur = self.avail.get(e)
        if not cur:
            raise InternalInvariant(f"edge {e} ran out of colors in a greedy step")
        self.assign(e, min(cur))

    def assign_shared(self, e: int, f: int) -> bool:
        """Give e and f their smallest shared color; False, assigning nothing, if none."""
        shared = self.avail[e] & self.avail[f]
        if not shared:
            return False
        color = min(shared)
        self.assign(e, color)
        self.assign(f, color)
        return True

    def sdr(self, edge_ids: Sequence[int], stats: SolveStats) -> None:
        stats.sdr_calls += 1
        chosen = rainbow_sdr(edge_ids, self.avail)
        if chosen is None:
            raise InternalInvariant(f"rainbow choice missing for edges {list(edge_ids)}")
        for e in edge_ids:
            self.assign(e, chosen[e])


def _path_region(L, pc, b, edges: Sequence[int], sizes: Sequence[int]) -> _Region:
    """Region over a path configuration's edges, truncated to their entry sizes."""
    region = _Region(L, pc, b, edges)
    for e, k in zip(edges, sizes):
        if len(region.avail[e]) < k:
            raise ListTooSmall(f"edge {e} needs {k} colors, got {len(region.avail[e])}")
        region.truncate(e, k)
    return region


# ---------------------------------------------------------------------------
# 4-cycle extension


def extend_c4(
    L: ListAssignment,
    pc: PartialColoring,
    cycle: CycleDescriptor,
    b: BipartiteGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color the six uncolored edges around a carved 4-cycle u-v-w-x.

    If the pendant neighbors of v and x coincide, u, w and that neighbour
    each have both of their edges at v and x, so the component is exactly
    K_{2,3}: all six lists are intact 6-lists and a rainbow choice always
    exists.  Otherwise the lists are cut to 3 on the pendants and 5 on the
    cycle edges, and one of two cases holds; neither can fail:

    * the two 3-lists share a color, and the smallest one goes to both
      pendants.  That one color costs each cycle edge at most one of its
      5, and the four cycle edges pairwise conflict, so greedy leaves them
      at least 4, 3, 2 and 1 colors in turn;
    * otherwise the two pendant lists are disjoint and jointly hold 6
      colors: Hall's condition holds for all six edges (a set of at most 5
      edges with a cycle edge has its 5 colors, a set of pendants alone
      has 3, and all six together see the pendants' 6), so a rainbow
      choice exists.
    """
    u, v, w, x = cycle.vertices
    e_uv, e_vw, e_wx, e_xu = cycle.edges
    if v not in cycle.pendant or x not in cycle.pendant:
        raise InternalInvariant("4-cycle extension needs pendants at both B-vertices")
    vp, e_vp = cycle.pendant[v]
    xp, e_xp = cycle.pendant[x]
    edge_ids = [e_uv, e_vw, e_wx, e_xu, e_vp, e_xp]
    region = _Region(L, pc, b, edge_ids)

    if vp == xp:
        stats.k23_base_cases += 1
        for e in edge_ids:
            if len(region.avail[e]) < 6:
                raise InternalInvariant(f"K_2,3 component edge {e} has a reduced list")
        region.sdr(edge_ids, stats)
        return pc

    stats.c4_extensions += 1
    for e in (e_vp, e_xp):
        region.truncate(e, 3)
    for e in (e_uv, e_vw, e_wx, e_xu):
        region.truncate(e, 5)
    if region.assign_shared(e_vp, e_xp):
        for e in (e_uv, e_vw, e_wx, e_xu):
            region.assign_min(e)
    else:
        region.sdr(edge_ids, stats)
    return pc


# ---------------------------------------------------------------------------
# 6-cycle extension


def extend_c6(
    L: ListAssignment,
    pc: PartialColoring,
    cycle: CycleDescriptor,
    b: BipartiteGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color the nine uncolored edges around a carved 6-cycle.

    The lists are cut to 3 on the pendants and 5 on the cycle edges ``ce``.
    The cycle edges conflict as the square of the 6-cycle, the octahedron
    K_{2,2,2}, which is 3-choosable (Erdős, Rubin & Taylor, "Choosability
    in graphs", 1979).  The steps below make that concrete; none can fail,
    so there is no search:

    * by the module's four facts the region's conflicts are the square of
      the cycle plus each pendant at its B-vertex;
    * the three pendants pairwise do not conflict: their B-vertices and
      their ends are distinct, no edge stays inside a part, and the other
      neighbour of a pendant end lies off the cycle.  So each pendant
      takes its smallest color;
    * each cycle edge conflicts with exactly two pendants, the one at its
      B-end and the one just past its A-end, so it keeps at least 3 of its
      5 colors;
    * the cycle edges conflict as K_{2,2,2}: every pair conflicts except
      the three opposite pairs ``(ce[i], ce[i + 3])``;
    * the opposite pairs are taken in order, and a pair that still shares
      a color takes its smallest shared color.  Every other cycle edge
      conflicts with both edges of the pair, so it loses at most one color;
    * if k pairs are left, each holds two disjoint lists of at least
      3 - (3 - k) = k colors.  Any j <= k of these edges see at least k
      colors, and any j > k of them contain a whole pair, which sees at
      least 2k >= j.  Hall's condition holds, and one rainbow choice
      finishes.
    """
    d, ce = cycle.vertices, cycle.edges
    if any(d[i] not in cycle.pendant for i in (1, 3, 5)):
        raise InternalInvariant("6-cycle extension needs pendants at all three B-vertices")
    pendants = [cycle.pendant[d[i]][1] for i in (1, 3, 5)]
    region = _Region(L, pc, b, list(ce) + pendants)
    stats.c6_extensions += 1
    for e in pendants:
        region.truncate(e, 3)
    for e in ce:
        region.truncate(e, 5)
    for e in pendants:
        region.assign_min(e)
    for i in range(3):
        region.assign_shared(ce[i], ce[i + 3])
    left = [e for e in ce if e in region.avail]
    if left:
        region.sdr(left, stats)
    return pc


# ---------------------------------------------------------------------------
# long-cycle extension (length >= 8)


def extend_long_cycle(
    L: ListAssignment,
    pc: PartialColoring,
    cycle: CycleDescriptor,
    b: BipartiteGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color the 3n/2 uncolored edges around a carved cycle of length >= 8.

    Three steps: precolor the first five-vertex stretch, totally color the
    odd pendant path around the rest of the cycle, then finish the two
    middle edges of the stretch.  None of the steps can fail.  By the
    module's four facts the region's conflicts are exactly those of the
    two configurations plus the edges that join them (the stretch's end
    edges and pendants meet the odd path's ends), its pendants are
    pairwise free of conflicts, and its entry sizes are 5 and 3.  So the
    seed's edges enter the five-path at its sizes; what the seed colors
    takes at most two colors from each end edge of the odd path, one
    from each second edge and one from each end pendant, which are the
    odd path's entry sizes 3, 4 and 2; and the odd path takes at most one
    color from each middle edge of the stretch (vn-v1 from vw, v5-v6 from
    wx), so ``precolor_five_path``'s 3 and 2 leave 2 and 1, and wx then
    vw take their smallest colors.  The path procedures always succeed
    at their entry sizes.
    """
    d, ce = cycle.vertices, cycle.edges
    n = len(d)
    if n < 8 or n % 2 != 0:
        raise InternalInvariant(f"long-cycle extension on length {n}")
    for v in d[1::2]:
        if v not in cycle.pendant:
            raise InternalInvariant(f"cycle vertex {v} lacks a pendant")
    # the pendants at v2, v4, ..., vn (= d[1], d[3], ..., d[n-1])
    pend_vertex, pend_edge = zip(*(cycle.pendant[v] for v in d[1::2]))
    region = _Region(L, pc, b, ce + pend_edge)
    stats.long_cycle_extensions += 1
    for e in ce:
        region.truncate(e, 5)
    for e in pend_edge:
        region.truncate(e, 3)

    # step 1: seed on v1..v5 (= d[0..4]) with pendants at v2 and v4
    cfg1 = FivePathConfig(d[:5] + pend_vertex[:2], ce[:4] + pend_edge[:2])
    precolor_five_path(L, pc, cfg1, b, stats)

    # step 2: odd path v5, v6, ..., vn, v1 with pendants at v6, v8, ..., vn
    cfg2 = OddPathConfig(d[4:] + d[:1], pend_vertex[2:], ce[4:], pend_edge[2:])
    color_odd_path(L, pc, cfg2, b, stats)

    # step 3: the two remaining middle edges of the seed, narrowed by steps 1-2
    for e in (ce[1], ce[2]):
        region.avail[e] &= available(e, L, pc, b)
    if len(region.avail[ce[1]]) < 2 or len(region.avail[ce[2]]) < 1:
        raise InternalInvariant(
            f"middle edges have {len(region.avail[ce[1]])} and "
            f"{len(region.avail[ce[2]])} colors before the final step"
        )
    region.assign_min(ce[2])
    region.assign_min(ce[1])
    return pc


# ---------------------------------------------------------------------------
# the full solver


def color_strong_23(
    b: BipartiteGraph, L: ListAssignment
) -> Tuple[PartialColoring, SolveStats]:
    """Strong list edge-coloring of a simple (2,3)-bipartite graph.

    Every list must hold at least 6 colors; the result is total, uses each
    edge's own list, and is deterministic for fixed input.  One peel, then
    a carve and a peel per biregular component, and one unwind serve all
    components: a component's pops depend only on its own edges, and an
    edge is colored only against its own component.
    """
    b.validate_23()
    g = b.graph
    for e in range(g.edge_count):
        size = len(L.get(e, ()))
        if size < 6:
            raise ListTooSmall(f"edge {e} has a list of size {size}, need 6")
    stats = SolveStats()
    state = PeelState.for_graph(b)
    deg = state.deg
    peeled = list(peel(b, state))
    carved = []
    for s in range(g.vertex_count):
        if deg[s]:
            # what a peel leaves is untouched biregular components (module
            # lemma), and s is the lowest vertex of one: carve it once
            cyc, descents = _carve_cycle(b, s)
            stats.carve_descents += descents
            desc = _descriptor_from_cycle(b, cyc)
            # every edge at a cycle vertex: the cycle and its pendants; the
            # heap pops the same vertices whatever the removal order
            for eid in {eid for v in desc.vertices for eid in g.inc[v]}:
                _remove_edge(b, state, eid)
            carved.append(desc)
            peeled += peel(b, state)
    if any(deg):
        raise InternalInvariant(f"{sum(deg) // 2} edges are left after peeling")
    stats.peeled_edges = len(peeled)
    pc = greedy_unwind(peeled, carved, L, b, stats)
    bad = verify_strong(b, L, pc, require_total=True)
    if bad:
        raise InternalInvariant(f"solver produced an invalid coloring: {bad[:3]}")
    return pc, stats


def uniform_incidence_lists(g: Multigraph, k: int) -> Dict[Incidence, Tuple[int, ...]]:
    return uniform_lists(g.incidences(), k)


def color_incidence(
    g: Multigraph, L: Mapping[Incidence, Iterable[int]]
) -> Tuple[Dict[Incidence, int], SolveStats]:
    """Incidence coloring of a loopless multigraph with maximum degree <= 3.

    Transported through the subdivision: the incidence (v, e) becomes the
    edge joining v to the midpoint of e, and a strong edge-coloring of the
    subdivision is exactly an incidence coloring of the original.
    """
    if g.max_degree() > 3:
        raise DegreeTooHigh(f"maximum degree {g.max_degree()} exceeds 3")
    sub = subdivide(g)
    lists = sub.edge_lists(L)
    incs = list(g.incidences())  # incs[i] is edge i of the subdivision
    for inc, lst in zip(incs, lists.values()):
        if len(lst) < 6:
            raise ListTooSmall(f"incidence {inc} has a list of size {len(lst)}, need 6")
    # color_strong_23 verifies its result, and incidence adjacency is strong
    # adjacency in the subdivision, so the transported coloring needs no
    # second check
    pc, stats = color_strong_23(sub.bipartite, lists)
    coloring = {inc: pc.assigned[eid] for eid, inc in enumerate(incs)}
    return coloring, stats
