"""Shared test helpers: independent brute-force oracles and gadget graphs.

The brute oracles deliberately re-derive everything from definitions
(pair scans, exhaustive DFS) so they share no logic with the package
internals they check.
"""

import tracemalloc

import pytest

import strongcolor as sc
from strongcolor.solver import _odd_sizes


def brute_conflicts(b: sc.BipartiteGraph, e: int) -> set:
    """Conflict set of e straight from the definition, by scanning all pairs."""
    g = b.graph
    out = set()
    eu, ev = g.endpoints(e)
    for f in range(g.edge_count):
        if f == e:
            continue
        fu, fv = g.endpoints(f)
        if {eu, ev} & {fu, fv}:
            out.add(f)
            continue
        for _, (gu, gv) in enumerate(g.edges):
            if ({gu, gv} & {eu, ev}) and ({gu, gv} & {fu, fv}):
                out.add(f)
                break
    return out


def pair_adjacency(vertex_count: int, edges) -> list:
    """Per vertex, its (edge id, neighbour) pairs in edge id order: the
    pair-based adjacency the graph types once stored, as a reference."""
    adj = [[] for _ in range(vertex_count)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    return adj


def kept(build) -> tuple:
    """``(bytes still allocated, result)`` of ``build()``, by tracemalloc."""
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[0], out
    finally:
        tracemalloc.stop()


def peak(build) -> tuple:
    """``(peak bytes allocated, result)`` of ``build()``, by tracemalloc."""
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def brute_girth(g: sc.Multigraph):
    """Length of a shortest cycle by exhaustive walk enumeration (small graphs)."""
    best = None
    # parallel edges form 2-cycles
    seen_pairs = {}
    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            return 2
        seen_pairs[key] = True

    adj = pair_adjacency(g.vertex_count, g.edges)

    def dfs(start, current, visited, first_edge, length):
        nonlocal best
        if best is not None and length >= best:
            return
        for eid, w in adj[current]:
            if eid == first_edge and length == 1:
                continue
            if w == start and length >= 2:
                if best is None or length + 1 < best:
                    best = length + 1
            elif w not in visited and w > start:
                visited.add(w)
                dfs(start, w, visited, first_edge, length + 1)
                visited.remove(w)

    for start in range(g.vertex_count):
        for eid, w in adj[start]:
            if w > start:
                dfs(start, w, {w}, eid, 1)
    return best


def incidence_adjacent(g: sc.Multigraph, i1: sc.Incidence, i2: sc.Incidence) -> bool:
    """Adjacency of two distinct incidences, from the definition: same
    vertex, same edge, or the edge joining their vertices is one of the two."""
    if i1 == i2:
        return False
    v, e = i1
    w, f = i2
    if v == w or e == f:
        return True
    return set(g.endpoints(e)) == {v, w} or set(g.endpoints(f)) == {v, w}


HALL_SCAN_LIMIT = 20


class HallScanTooLarge(Exception):
    """More items than ``hall_witness`` scans."""


def hall_witness(items, lists):
    """A subset S of items with |S| > |union of its lists|, or None.

    Exponential scan in ascending bitmask order; None iff Hall's condition
    holds, that is, iff ``rainbow_sdr`` succeeds.
    """
    if len(set(items)) != len(items):
        raise ValueError("SDR items must be distinct")
    n = len(items)
    if n > HALL_SCAN_LIMIT:
        raise HallScanTooLarge(f"hall_witness limited to {HALL_SCAN_LIMIT} items, got {n}")
    for mask in range(1, 1 << n):
        members = [items[i] for i in range(n) if mask >> i & 1]
        union = set()
        for e in members:
            union.update(lists[e])
        if len(members) > len(union):
            return tuple(members)
    return None


def assert_valid_strong(b, L, pc, total=True):
    violations = sc.verify_strong(b, L, pc, require_total=total)
    assert violations == [], violations


def c4_gadget():
    """4-cycle u-v-w-x with distinct pendants at v and x; nothing else."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (3, 5)]
    return sc.infer_parts(sc.build_multigraph(6, pairs))


def c6_gadget():
    """6-cycle with pendants at its three degree-3 vertices."""
    pairs = [(i, (i + 1) % 6) for i in range(6)] + [(1, 6), (3, 7), (5, 8)]
    return sc.infer_parts(sc.build_multigraph(9, pairs))


def cycle_gadget(n: int):
    """n-cycle with a pendant at every odd position (n even >= 8)."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    nxt = n
    for i in range(1, n, 2):
        pairs.append((i, nxt))
        nxt += 1
    return sc.infer_parts(sc.build_multigraph(nxt, pairs))


def five_path_graph():
    """The seed configuration as an actual graph (vertex ids 0..6)."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6)]
    return sc.infer_parts(sc.build_multigraph(7, pairs))


def odd_path_graph(n: int):
    """The pendant-path configuration as an actual graph (standalone ids)."""
    pairs = [(i, i + 1) for i in range(n - 1)]
    nxt = n
    for j in range(2, n, 2):
        pairs.append((j - 1, nxt))
        nxt += 1
    return sc.infer_parts(sc.build_multigraph(nxt, pairs))


def odd_path_lists(rng, n: int, palette: int) -> list:
    """Lists of exact entry size for the standalone odd path, indexed by edge id.

    Standalone edge ids are the path edges 0..n-2, then the pendant edges.
    The lists are drawn ends first (first path edge, first pendant, second
    path edge, then the same three at the far end), then the inner path
    edges, then the inner pendants; the seeded suites depend on this order.
    """
    path_sizes, pendant_sizes = _odd_sizes(n)
    sizes = path_sizes + pendant_sizes
    first_q, last_q = n - 1, len(sizes) - 1
    order = [0, first_q, 1, n - 3, last_q, n - 2, *range(2, n - 3), *range(first_q + 1, last_q)]
    lists = [None] * len(sizes)
    for e in order:
        lists[e] = frozenset(rng.subset(sizes[e], palette))
    return lists


def bridged_cubic(g1: sc.Multigraph, g2: sc.Multigraph, e1: int, e2: int) -> sc.Multigraph:
    """A cubic multigraph with a bridge at its lowest vertex.

    Edge e1 of g1 and edge e2 of g2 are each subdivided; the two new
    vertices get ids 0 and 1 and are joined by the bridge.  g1's vertices
    follow from 2, then g2's.
    """
    pairs = [(0, 1)]
    off = 2
    for g, e, mid in ((g1, e1, 0), (g2, e2, 1)):
        for f, (u, v) in enumerate(g.edges):
            if f == e:
                pairs += [(u + off, mid), (mid, v + off)]
            else:
                pairs.append((u + off, v + off))
        off += g.vertex_count
    return sc.build_multigraph(off, pairs)


def rand_b23(na: int, nb: int, seed: int) -> sc.BipartiteGraph:
    """random_23_bipartite with nb raised to meet the stub-capacity bound."""
    return sc.random_23_bipartite(na, max(nb, (2 * na + 2) // 3), seed)


@pytest.fixture
def k23():
    return sc.named("k23")
