"""Constructive strong list edge-coloring of (2,3)-bipartite graphs.

The solver peels away edges at low-degree vertices, carves shortest cycles
out of the (2,3)-biregular residue, and colors everything in reverse
(LIFO) order: each peeled edge greedily, each carved cycle by a dedicated
extension procedure driven by the current available lists.

Extension entry sizes are guaranteed by degree counting:

* a cycle edge of a carved shortest cycle sees at most one colored
  conflict (through its single pendant's far end, an A-vertex of degree
  at most 2), so at least 5 of its 6 list colors survive;
* a pendant edge sees at most three (one at its far endpoint plus two
  beyond), so at least 3 survive;
* an edge peeled at an A-endpoint of degree <= 1 has at most 4 conflicts
  in the residue at peel time, one peeled at a B-endpoint of degree <= 2
  at most 5 - both below the list size 6, so the greedy unwind never runs
  out of colors.

At entry to every extension and path procedure the available lists are
truncated (smallest colors kept) to the exact sizes the counting steps
assume; a coloring from truncated lists is valid for the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .conflict import (
    ConflictGraph,
    ListAssignment,
    PartialColoring,
    available,
    build_conflict_graph,
    verify_strong,
)
from .errors import DegreeTooHigh, InternalInvariant, ListTooSmall
from .graph import (
    PART_A,
    BipartiteGraph,
    CycleDescriptor,
    Incidence,
    Multigraph,
    _descriptor_from_cycle,
    _residual_shortest_cycle,
    components,
    subdivide,
)
from .matching import SdrProblem, rainbow_sdr


@dataclass
class SolveStats:
    """Counters describing which parts of the case machinery a solve used."""

    peeled_edges: int = 0
    c4_extensions: int = 0
    c6_extensions: int = 0
    long_cycle_extensions: int = 0
    k23_base_cases: int = 0
    sdr_calls: int = 0

    def merge(self, other: "SolveStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


# ---------------------------------------------------------------------------
# peeling


def _qualifies(b: BipartiteGraph, deg: list, v: int) -> bool:
    if deg[v] < 1:
        return False
    cap = 1 if b.part_of[v] == PART_A else 2
    return deg[v] <= cap


def _remove_edge(b: BipartiteGraph, alive: list, deg: list, heap: list, e: int) -> None:
    alive[e] = False
    for v in b.graph.endpoints(e):
        deg[v] -= 1
        if _qualifies(b, deg, v):
            heappush(heap, v)


@dataclass
class PeelState:
    """Residual subgraph plus the deferred-edge stack for peeling."""

    alive: list
    deg: list
    heap: list
    stack: list

    @staticmethod
    def for_graph(b: BipartiteGraph) -> "PeelState":
        g = b.graph
        alive = [True] * g.edge_count
        deg = [g.degree(v) for v in range(g.vertex_count)]
        heap = [v for v in range(g.vertex_count) if _qualifies(b, deg, v)]
        heapify(heap)
        return PeelState(alive, deg, heap, [])


def peel_step(b: BipartiteGraph, state: PeelState) -> Optional[int]:
    """Remove and return one deferrable edge, or None at the (2,3)-regular core.

    An edge is deferrable when its A-endpoint has residual degree <= 1 or
    its B-endpoint degree <= 2; the lowest qualifying vertex and then the
    lowest incident edge id win.
    """
    while state.heap:
        v = heappop(state.heap)
        if not _qualifies(b, state.deg, v):
            continue
        e = min(eid for eid, _ in b.graph.adj[v] if state.alive[eid])
        _remove_edge(b, state.alive, state.deg, state.heap, e)
        state.stack.append(e)
        return e
    return None


def greedy_unwind(
    stack: list,
    L: ListAssignment,
    pc: PartialColoring,
    cg: ConflictGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Pop the peel stack LIFO and color each entry.

    A peeled edge takes its smallest available color: sound because every
    peeled edge had at most 5 conflicts in the residual subgraph it was
    peeled from, and only those edges are colored when it is popped.  A
    carved ``CycleDescriptor`` goes to the extension for its length.
    """
    while stack:
        item = stack.pop()
        if isinstance(item, CycleDescriptor):
            extend = {4: extend_c4, 6: extend_c6}.get(len(item), extend_long_cycle)
            extend(L, pc, item, cg, stats)
            continue
        avail = available(item, L, pc, cg)
        if not avail:
            raise InternalInvariant(f"peeled edge {item} has no available color at unwind")
        pc.set(item, min(avail))
    return pc


# ---------------------------------------------------------------------------
# five-vertex path with two pendants: the precoloring seed


_FIVE_ROLES = ("uv", "vw", "wx", "xy", "vz", "xt")
_FIVE_SIZES = {"uv": 5, "vw": 5, "wx": 5, "xy": 5, "vz": 3, "xt": 3}


@dataclass(frozen=True)
class FivePathConfig:
    """Path u-v-w-x-y plus pendants v-z and x-t.

    ``edge_ids`` maps each role ("uv", "vw", "wx", "xy", "vz", "xt") to the
    real edge id.  Entry lists must hold at least 5,5,5,5,3,3 available
    colors in role order.
    """

    vertices: Tuple[int, ...]  # u, v, w, x, y, z, t
    edge_ids: Mapping[str, int]

    def __post_init__(self):
        if len(set(self.vertices)) != 7:
            raise ValueError("the seven configuration vertices must be distinct")
        for role in _FIVE_ROLES:
            if role not in self.edge_ids:
                raise ValueError(f"missing edge role {role}")

    @staticmethod
    def standalone() -> "FivePathConfig":
        """Standalone instance: vertices 0..6 and edge ids 0..5 in role order."""
        return FivePathConfig(tuple(range(7)), {role: i for i, role in enumerate(_FIVE_ROLES)})


def precolor_five_path(
    L: ListAssignment,
    pc: PartialColoring,
    cfg: FivePathConfig,
    cg: ConflictGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color uv, vz, xy, xt so the middle edges keep |L(vw)| >= 3, |L(wx)| >= 2."""
    region = _path_region(L, pc, cg, {cfg.edge_ids[r]: k for r, k in _FIVE_SIZES.items()})
    uv, vw, wx, xy, vz, xt = (cfg.edge_ids[r] for r in _FIVE_ROLES)
    avail = region.avail

    pend_common = region.common(vz, xt)
    if pend_common:
        # same color on both pendants costs each middle edge one color
        alpha = min(pend_common)
        region.assign(vz, alpha)
        region.assign(xt, alpha)
        end_common = region.common(uv, xy)
        if end_common:
            beta = min(end_common)
            region.assign(uv, beta)
            region.assign(xy, beta)
        else:
            # disjoint 4-lists: their union beats |L(vw)|, so one end edge
            # can be colored without touching vw at all
            union = sorted((avail[uv] | avail[xy]) - avail[vw])
            if not union:
                raise InternalInvariant("pigeonhole failed on the end edges")
            gamma = union[0]
            e3 = uv if gamma in avail[uv] else xy
            e4 = xy if e3 == uv else uv
            region.assign(e3, gamma)
            region.assign_min(e4)
    else:
        # pendant lists disjoint: their union has 6 colors, one avoids vw
        union = sorted((avail[vz] | avail[xt]) - avail[vw])
        if not union:
            raise InternalInvariant("pigeonhole failed on the pendant edges")
        alpha = union[0]
        e1 = vz if alpha in avail[vz] else xt
        e2 = xt if e1 == vz else vz
        region.assign(e1, alpha)
        end_common = region.common(uv, xy)
        if end_common:
            beta = min(end_common)
            region.assign(uv, beta)
            region.assign(xy, beta)
            region.assign_min(e2)
        else:
            union2 = sorted((avail[uv] | avail[xy]) - avail[vw])
            if not union2:
                raise InternalInvariant("pigeonhole failed on the end edges")
            gamma = union2[0]
            e3 = uv if gamma in avail[uv] else xy
            e4 = xy if e3 == uv else uv
            region.assign(e3, gamma)
            # e4 has >= 4 colors while wx has >= 3: some choice keeps wx at 3
            beta = next(
                (c for c in sorted(avail[e4]) if len(avail[wx] - {c}) >= 3),
                None,
            )
            if beta is None:
                raise InternalInvariant("pigeonhole failed protecting wx")
            region.assign(e4, beta)
            region.assign_min(e2)

    if len(avail[vw]) < 3 or len(avail[wx]) < 2:
        raise InternalInvariant(
            f"postcondition failed: |vw|={len(avail[vw])}, |wx|={len(avail[wx])}"
        )
    return pc


# ---------------------------------------------------------------------------
# odd path with pendants at even positions: total coloring by induction


def _odd_required_sizes(n: int) -> Dict[tuple, int]:
    req = {
        ("p", 1): 3,
        ("q", 2): 2,
        ("p", 2): 4,
        ("p", n - 2): 4,
        ("q", n - 1): 2,
        ("p", n - 1): 3,
    }
    for i in range(3, n - 2):
        req.setdefault(("p", i), 5)
    for j in range(4, n - 2, 2):
        req.setdefault(("q", j), 3)
    return req


@dataclass(frozen=True)
class OddPathConfig:
    """Path v_1..v_n (n odd >= 5) with a pendant at every even position.

    ``path_edges[i-1]`` joins v_i and v_{i+1}; ``pendant_edges[i]`` joins
    v_i and its pendant neighbor.  Entry lists must meet the size table
    (3,2,4 at each end, 5 and 3 in the middle).
    """

    path_vertices: Tuple[int, ...]
    pendant_vertices: Mapping[int, int]
    path_edges: Tuple[int, ...]
    pendant_edges: Mapping[int, int]

    @property
    def n(self) -> int:
        return len(self.path_vertices)

    def __post_init__(self):
        n = self.n
        if n < 5 or n % 2 == 0:
            raise ValueError(f"path length must be odd and >= 5, got {n}")
        if len(self.path_edges) != n - 1:
            raise ValueError("path edge count mismatch")
        evens = list(range(2, n, 2))
        if sorted(self.pendant_edges) != evens or sorted(self.pendant_vertices) != evens:
            raise ValueError("pendants must sit exactly at the even positions")
        names = list(self.path_vertices) + [self.pendant_vertices[j] for j in evens]
        if len(set(names)) != len(names):
            raise ValueError("configuration vertices must be distinct")

    def edge_for(self, role: tuple) -> int:
        kind, i = role
        return self.path_edges[i - 1] if kind == "p" else self.pendant_edges[i]

    @staticmethod
    def standalone(n: int) -> "OddPathConfig":
        """Standalone instance: path vertices and edges first, then pendants."""
        path_vertices = tuple(range(n))
        pendant_vertices = {j: n - 1 + j // 2 for j in range(2, n, 2)}
        path_edges = tuple(range(n - 1))
        pendant_edges = {j: n - 2 + j // 2 for j in range(2, n, 2)}
        return OddPathConfig(path_vertices, pendant_vertices, path_edges, pendant_edges)


# Base-case pairing orders.  Each entry pairs two mutually compatible edges
# with one shared color; the complementary compatible pair is what remains
# besides the two middle edges.  The "A" order is sound for the entry shape
# (end 3, pendant 2); the "B" order for the shape (end 2, pendant 3) that
# the reduction step leaves behind.  Soundness of each step uses only the
# disjointness of the pairs tried before it.
_BASE_ORDERS = {
    "A": (("p1", "p2"), ("a1", "p2"), ("p1", "a2"), ("a1", "a2")),
    "B": (("a1", "p2"), ("p1", "p2"), ("a1", "a2"), ("p1", "a2")),
}
_BASE_COMPLEMENT = {
    frozenset(("p1", "p2")): ("a1", "a2"),
    frozenset(("a1", "p2")): ("p1", "a2"),
    frozenset(("p1", "a2")): ("a1", "p2"),
    frozenset(("a1", "a2")): ("p1", "p2"),
}


def _odd_base(region: _Region, cfg: OddPathConfig, lo: int, shape: str, stats) -> None:
    """Color the final five-vertex window (six edges)."""
    names = {
        "a1": cfg.edge_for(("p", lo)),
        "m1": cfg.edge_for(("p", lo + 1)),
        "m2": cfg.edge_for(("p", lo + 2)),
        "a2": cfg.edge_for(("p", lo + 3)),
        "p1": cfg.edge_for(("q", lo + 1)),
        "p2": cfg.edge_for(("q", lo + 3)),
    }
    for e_name, f_name in _BASE_ORDERS[shape]:
        e, f = names[e_name], names[f_name]
        shared = region.common(e, f)
        if shared:
            alpha = min(shared)
            region.assign(e, alpha)
            region.assign(f, alpha)
            o1, o2 = (names[r] for r in _BASE_COMPLEMENT[frozenset((e_name, f_name))])
            shared2 = region.common(o1, o2)
            if shared2:
                beta = min(shared2)
                region.assign(o1, beta)
                region.assign(o2, beta)
                region.assign_min(names["m1"])
                region.assign_min(names["m2"])
            else:
                region.sdr((o1, o2, names["m1"], names["m2"]), stats)
            return
    # every compatible pair has disjoint lists: a rainbow choice exists
    region.sdr(tuple(names[r] for r in ("a1", "m1", "m2", "a2", "p1", "p2")), stats)


def _odd_reduce(region: _Region, cfg: OddPathConfig, lo: int, shape: str) -> None:
    """Shrink the window by two vertices from the left end.

    The second path edge takes a color that leaves the next pendant with 3
    colors; then the end pendant and end edge are colored greedily (end
    edge first when the entry shape gives it only 2 colors).
    """
    second = cfg.edge_for(("p", lo + 1))
    protect = cfg.edge_for(("q", lo + 3))
    alpha = next(
        (c for c in sorted(region.avail[second]) if len(region.avail[protect] - {c}) >= 3),
        None,
    )
    if alpha is None:
        raise InternalInvariant(f"pigeonhole failed protecting edge {protect}")
    region.assign(second, alpha)
    if shape == "A":
        region.assign_min(cfg.edge_for(("q", lo + 1)))
        region.assign_min(cfg.edge_for(("p", lo)))
    else:
        region.assign_min(cfg.edge_for(("p", lo)))
        region.assign_min(cfg.edge_for(("q", lo + 1)))


def color_odd_path(
    L: ListAssignment,
    pc: PartialColoring,
    cfg: OddPathConfig,
    cg: ConflictGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Totally color the configuration."""
    n = cfg.n
    sizes = {cfg.edge_for(r): k for r, k in _odd_required_sizes(n).items()}
    region = _path_region(L, pc, cg, sizes)
    lo, shape = 1, "A"
    while n - lo + 1 > 5:
        _odd_reduce(region, cfg, lo, shape)
        lo += 2
        shape = "B"
    _odd_base(region, cfg, lo, shape, stats)
    return pc


# ---------------------------------------------------------------------------
# extension regions over real edges


class _Region:
    """Available lists for the edges one extension or path procedure colors.

    Assignments are validated against and propagated through the real
    conflict graph, so a mismatch between a configuration and the actual
    graph surfaces immediately instead of corrupting the coloring.
    """

    def __init__(self, L, pc, cg, edge_ids):
        self.pc = pc
        self.cg = cg
        self.avail = {e: available(e, L, pc, cg) for e in edge_ids}

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
        for f in self.cg[e]:
            if f in self.avail:
                self.avail[f].discard(color)

    def assign_min(self, e: int) -> None:
        cur = self.avail.get(e)
        if not cur:
            raise InternalInvariant(f"edge {e} ran out of colors in a greedy step")
        self.assign(e, min(cur))

    def common(self, e: int, f: int) -> set:
        return self.avail[e] & self.avail[f]

    def sdr(self, edge_ids: Sequence[int], stats: SolveStats) -> None:
        stats.sdr_calls += 1
        p = SdrProblem(tuple(edge_ids), {e: frozenset(self.avail[e]) for e in edge_ids})
        chosen = rainbow_sdr(p)
        if chosen is None:
            raise InternalInvariant(f"rainbow choice missing for edges {list(edge_ids)}")
        for e in edge_ids:
            self.assign(e, chosen[e])


def _path_region(L, pc, cg, sizes: Mapping[int, int]) -> _Region:
    """Region over a path configuration's edges, truncated to their entry sizes."""
    region = _Region(L, pc, cg, sizes)
    for e, k in sizes.items():
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
    cg: ConflictGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color the six uncolored edges around a shortest 4-cycle u-v-w-x.

    If the pendant neighbors of v and x coincide the component is exactly
    K_{2,3}: all six lists are intact 6-lists and a rainbow choice always
    exists.  Otherwise the lists are cut to 3 on the pendants and 5 on the
    cycle edges, and one of two cases holds; neither can fail:

    * the two pendant lists jointly hold 6 colors: Hall's condition holds
      for all six edges (a set of at most 5 edges with a cycle edge has
      its 5 colors, a set of pendants alone has 3, and all six together
      see the pendants' 6), so a rainbow choice exists;
    * otherwise the two 3-lists share a color, given to both pendants.
      That one color costs each cycle edge at most one of its 5, and the
      four cycle edges pairwise conflict, so greedy leaves them at least
      4, 3, 2 and 1 colors in turn.
    """
    u, v, w, x = cycle.vertices
    e_uv, e_vw, e_wx, e_xu = cycle.edges
    if v not in cycle.pendant or x not in cycle.pendant:
        raise InternalInvariant("4-cycle extension needs pendants at both B-vertices")
    vp, e_vp = cycle.pendant[v]
    xp, e_xp = cycle.pendant[x]
    edge_ids = [e_uv, e_vw, e_wx, e_xu, e_vp, e_xp]
    region = _Region(L, pc, cg, edge_ids)

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
    if len(region.avail[e_vp] | region.avail[e_xp]) >= 6:
        region.sdr(edge_ids, stats)
    else:
        # |union| <= 5 with two 3-lists forces a shared color
        alpha = min(region.avail[e_vp] & region.avail[e_xp])
        region.assign(e_vp, alpha)
        region.assign(e_xp, alpha)
        for e in (e_uv, e_vw, e_wx, e_xu):
            region.assign_min(e)
    return pc


# ---------------------------------------------------------------------------
# 6-cycle extension


def extend_c6(
    L: ListAssignment,
    pc: PartialColoring,
    cycle: CycleDescriptor,
    cg: ConflictGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color the nine uncolored edges around a shortest 6-cycle.

    The lists are cut to 3 on the pendants and 5 on the cycle edges ``ce``.
    The cycle edges conflict as the square of the 6-cycle, the octahedron
    K_{2,2,2}, which is 3-choosable (Erdős, Rubin & Taylor, "Choosability
    in graphs", 1979).  The steps below make that concrete; none can fail,
    so there is no search:

    * every vertex on a carved cycle keeps its full degree, so its edges
      are cycle edges and pendants, and no edge outside the region joins
      two cycle vertices;
    * the three pendants pairwise do not conflict: their ends are distinct
      (``_descriptor_from_cycle`` rejects coinciding ones), no edge stays
      inside a part, and an edge from one pendant end to another pendant's
      B-vertex would give that vertex a fourth edge.  So each pendant
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
    region = _Region(L, pc, cg, list(ce) + pendants)
    stats.c6_extensions += 1
    for e in pendants:
        region.truncate(e, 3)
    for e in ce:
        region.truncate(e, 5)
    for e in pendants:
        region.assign_min(e)
    for i in range(3):
        shared = region.common(ce[i], ce[i + 3])
        if shared:
            alpha = min(shared)
            region.assign(ce[i], alpha)
            region.assign(ce[i + 3], alpha)
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
    cg: ConflictGraph,
    stats: SolveStats,
) -> PartialColoring:
    """Color the 3n/2 uncolored edges around a shortest cycle of length >= 8.

    Three steps: precolor the first five-vertex stretch, totally color the
    odd pendant path around the rest of the cycle, then finish the two
    middle edges of the stretch.  None of the steps can fail: the path
    procedures are guaranteed to succeed at their entry sizes.
    """
    d = cycle.vertices
    ce = cycle.edges
    n = len(d)
    if n < 8 or n % 2 != 0:
        raise InternalInvariant(f"long-cycle extension on length {n}")
    for i in range(1, n, 2):
        if d[i] not in cycle.pendant:
            raise InternalInvariant(f"cycle vertex {d[i]} lacks a pendant")
    pend_edge = {i: cycle.pendant[d[i]][1] for i in range(1, n, 2)}
    pend_vertex = {i: cycle.pendant[d[i]][0] for i in range(1, n, 2)}
    edge_ids = list(ce) + [pend_edge[i] for i in range(1, n, 2)]
    region = _Region(L, pc, cg, edge_ids)
    stats.long_cycle_extensions += 1
    for e in ce:
        region.truncate(e, 5)
    for i in range(1, n, 2):
        region.truncate(pend_edge[i], 3)

    # step 1: seed on v1..v5 (= d[0..4]) with pendants at v2 and v4
    cfg1 = FivePathConfig(
        vertices=(d[0], d[1], d[2], d[3], d[4], pend_vertex[1], pend_vertex[3]),
        edge_ids={
            "uv": ce[0],
            "vw": ce[1],
            "wx": ce[2],
            "xy": ce[3],
            "vz": pend_edge[1],
            "xt": pend_edge[3],
        },
    )
    precolor_five_path(L, pc, cfg1, cg, stats)

    # step 2: odd path v5, v6, ..., vn, v1 with pendants at v6, v8, ..., vn
    n2 = n - 3
    path_vertices = tuple(d[4 + k - 1] for k in range(1, n2)) + (d[0],)
    path_edges = tuple(ce[3 + k] for k in range(1, n2 - 1)) + (ce[n - 1],)
    pendant_vertices = {k: pend_vertex[3 + k] for k in range(2, n2, 2)}
    pendant_edges = {k: pend_edge[3 + k] for k in range(2, n2, 2)}
    cfg2 = OddPathConfig(path_vertices, pendant_vertices, path_edges, pendant_edges)
    color_odd_path(L, pc, cfg2, cg, stats)

    # step 3: the two remaining middle edges of the seed, narrowed by steps 1-2
    for e in (ce[1], ce[2]):
        region.avail[e] &= available(e, L, pc, cg)
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


def _solve_component(b, L, cg, comp, alive, deg, pc, stats) -> None:
    g = b.graph
    # a per-component heap: a global one would change which cycle is carved
    heap = [v for v in comp if _qualifies(b, deg, v)]
    heapify(heap)
    state = PeelState(alive, deg, heap, [])
    while True:
        while peel_step(b, state) is not None:
            stats.peeled_edges += 1
        found = _residual_shortest_cycle(b, alive, deg, comp)
        if found is None:
            if any(deg[v] for v in comp):
                raise InternalInvariant("stable residue has edges but no cycle")
            break
        _, cyc = found
        desc = _descriptor_from_cycle(b, list(cyc), alive)
        for v in desc.vertices:
            for eid, _ in g.adj[v]:
                if alive[eid]:
                    _remove_edge(b, alive, deg, heap, eid)
        state.stack.append(desc)
    greedy_unwind(state.stack, L, pc, cg, stats)


def color_strong_23(
    b: BipartiteGraph, L: ListAssignment
) -> Tuple[PartialColoring, SolveStats]:
    """Strong list edge-coloring of a simple (2,3)-bipartite graph.

    Every list must hold at least 6 colors; the result is total, uses each
    edge's own list, and is deterministic for fixed input.
    """
    b.validate_23()
    g = b.graph
    for e in range(g.edge_count):
        if L.size(e) < 6:
            raise ListTooSmall(f"edge {e} has a list of size {L.size(e)}, need 6")
    cg = build_conflict_graph(b)
    pc = PartialColoring()
    stats = SolveStats()
    alive = [True] * g.edge_count
    deg = [g.degree(v) for v in range(g.vertex_count)]
    for comp in components(g):
        _solve_component(b, L, cg, comp, alive, deg, pc, stats)
    bad = verify_strong(b, L, pc, require_total=True, cg=cg)
    if bad:
        raise InternalInvariant(f"solver produced an invalid coloring: {bad[:3]}")
    return pc, stats


def uniform_incidence_lists(g: Multigraph, k: int) -> Dict[Incidence, FrozenSet[int]]:
    palette = frozenset(range(1, k + 1))
    return {inc: palette for inc in g.incidences()}


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
    for inc, eid in sub.incidence_to_edge.items():
        if len(lists[eid]) < 6:
            raise ListTooSmall(f"incidence {inc} has a list of size {len(lists[eid])}, need 6")
    # color_strong_23 verifies its result, and incidence adjacency is strong
    # adjacency in the subdivision, so the transported coloring needs no
    # second check
    pc, stats = color_strong_23(sub.bipartite, ListAssignment(lists))
    coloring = {inc: pc.assigned[eid] for inc, eid in sub.incidence_to_edge.items()}
    return coloring, stats
