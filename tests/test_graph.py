import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strongcolor as sc
from strongcolor import (
    BadVertexId,
    LoopEdge,
    NotBipartite,
    NotTwoThree,
)
from strongcolor.generate import SplitMix64, disjoint_union
from strongcolor.graph import (
    _carve_cycle,
    _descriptor_from_cycle,
    _residual_shortest_cycle,
    components,
    shortest_cycle,
)

from conftest import (
    bridged_cubic,
    brute_girth,
    kept,
    pair_adjacency,
    rand_b23,
)
from test_golden import _generalized_petersen


K4_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestBuildMultigraph:
    def test_parallel_pair(self):
        g = sc.build_multigraph(2, [(0, 1), (0, 1)])
        assert g.vertex_count == 2 and g.edge_count == 2
        assert g.degree(0) == 2 and g.degree(1) == 2

    def test_k4(self):
        g = sc.build_multigraph(4, K4_PAIRS)
        assert g.vertex_count == 4 and g.edge_count == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            sc.build_multigraph(3, [(0, 0)])

    def test_bad_vertex(self):
        with pytest.raises(BadVertexId):
            sc.build_multigraph(2, [(0, 2)])

    def test_edge_ids_follow_input_order(self):
        g = sc.build_multigraph(3, [(1, 2), (0, 1)])
        assert g.endpoints(0) == (1, 2) and g.endpoints(1) == (0, 1)


class TestSubdivide:
    def test_k4_counts(self):
        sub = sc.subdivide(sc.build_multigraph(4, K4_PAIRS))
        b = sub.bipartite
        assert b.graph.vertex_count == 10 and b.graph.edge_count == 12
        assert len(b.a_vertices()) == 6 and len(b.b_vertices()) == 4
        b.validate_23()

    def test_double_edge_becomes_four_cycle(self):
        sub = sc.subdivide(sc.named("double-edge"))
        b = sub.bipartite
        assert b.graph.vertex_count == 4 and b.graph.edge_count == 4
        assert len(b.a_vertices()) == 2 and len(b.b_vertices()) == 2
        assert len(shortest_cycle(b)) == 4

    def test_petersen_girth_ten(self):
        sub = sc.subdivide(sc.named("petersen"))
        desc = shortest_cycle(sub.bipartite)
        assert len(desc) == 10
        assert len(sub.bipartite.a_vertices()) == 15

    def test_incidence_bijection(self):
        g = sc.build_multigraph(4, K4_PAIRS)
        sub = sc.subdivide(g)
        assert len(sub.incidence_to_edge) == 2 * g.edge_count
        assert sorted(sub.incidence_to_edge.values()) == list(range(2 * g.edge_count))
        for inc, eid in sub.incidence_to_edge.items():
            # the midpoint of original edge e is vertex n + e
            u, v = sub.bipartite.graph.endpoints(eid)
            assert {u, v} == {inc.vertex, g.vertex_count + inc.edge}

    @pytest.mark.parametrize("name", ["k4", "petersen", "heawood", "domino"])
    def test_girth_doubles(self, name):
        g = sc.named(name)
        sub = sc.subdivide(g)
        if name == "domino":
            assert brute_girth(g) == 2
            assert len(shortest_cycle(sub.bipartite)) == 4
        else:
            assert len(shortest_cycle(sub.bipartite)) == 2 * brute_girth(g)

    def test_prism_girth_doubles(self):
        prism = sc.build_multigraph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        assert brute_girth(prism) == 3
        assert len(shortest_cycle(sc.subdivide(prism).bipartite)) == 6

    def test_subcubic_always_validates(self):
        for name in ("k4", "petersen", "heawood", "double-edge", "tree", "star"):
            g = sc.named(name)
            sc.subdivide(g).bipartite.validate_23()

    def test_matches_reference_construction(self):
        # reference: every incidence as an endpoint pair, validated through
        # build_multigraph and BipartiteGraph
        def reference(g):
            n, m = g.vertex_count, g.edge_count
            pairs, incidence_to_edge = [], {}
            for e, (u, v) in enumerate(g.edges):
                for w in (u, v):
                    incidence_to_edge[sc.Incidence(w, e)] = len(pairs)
                    pairs.append((w, n + e))
            b = sc.BipartiteGraph(sc.build_multigraph(n + m, pairs), ["B"] * n + ["A"] * m)
            return b, incidence_to_edge

        graphs = [sc.named(name) for name in sc.fixture_names()]
        graphs = [g.graph if isinstance(g, sc.BipartiteGraph) else g for g in graphs]
        rng = SplitMix64(14)
        graphs += [sc.random_cubic(4 + 2 * rng.below(8), rng.next_u64()) for _ in range(100)]
        with_parallel = sum(len(set(map(frozenset, g.edges))) < g.edge_count for g in graphs)
        assert with_parallel >= 30
        for g in graphs:
            sub = sc.subdivide(g)
            ref, ref_map = reference(g)
            b = sub.bipartite
            assert b.graph.vertex_count == ref.graph.vertex_count
            assert b.graph.edges == ref.graph.edges
            assert b.graph.nbrs == ref.graph.nbrs
            assert b.graph.inc == ref.graph.inc
            assert b.part_of == ref.part_of
            assert list(sub.incidence_to_edge.items()) == list(ref_map.items())
            # some incidences lack a list; theirs must read as empty
            inc_lists = {inc: frozenset(rng.subset(3, 8)) for inc in g.incidences() if rng.below(3)}
            expected = {eid: inc_lists.get(inc, ()) for inc, eid in ref_map.items()}
            assert list(sub.edge_lists(inc_lists).items()) == list(expected.items())


def _adjacency_corpus():
    """Every fixture, plus 100 seeded random cubic graphs that have parallel edges."""
    graphs = [sc.named(name) for name in sc.fixture_names()]
    graphs = [g.graph if isinstance(g, sc.BipartiteGraph) else g for g in graphs]
    rng = SplitMix64(21)
    cubic = []
    while len(cubic) < 100:
        g = sc.random_cubic(4 + 2 * rng.below(10), rng.next_u64())
        if len(set(map(frozenset, g.edges))) < g.edge_count:
            cubic.append(g)
    return graphs + cubic


class TestAdjacencyHalves:
    """``nbrs[v][k]`` is joined to v by edge ``inc[v][k]``, in edge id order."""

    @staticmethod
    def _assert_matches_pairs(g, pairs):
        nbrs, inc = g.nbrs, g.inc
        assert type(nbrs) is tuple and all(type(a) is tuple for a in nbrs)
        assert type(inc) is tuple and all(type(a) is tuple for a in inc)
        assert nbrs == tuple(tuple(w for _, w in a) for a in pairs)
        assert inc == tuple(tuple(e for e, _ in a) for a in pairs)
        assert [g.degree(v) for v in range(g.vertex_count)] == list(map(len, pairs))
        assert g.max_degree() == max(map(len, pairs), default=0)

    def test_build_multigraph(self):
        for g in _adjacency_corpus():
            self._assert_matches_pairs(g, pair_adjacency(g.vertex_count, g.edges))

    def test_subdivide(self):
        for g in _adjacency_corpus():
            n, m = g.vertex_count, g.edge_count
            # edge 2e + s joins g.edges[e][s] to the midpoint n + e
            sub_pairs = [(w, n + e) for e, ends in enumerate(g.edges) for w in ends]
            sub = sc.subdivide(g).bipartite.graph
            self._assert_matches_pairs(sub, pair_adjacency(n + m, sub_pairs))

    def test_empty_graph(self):
        self._assert_matches_pairs(sc.build_multigraph(0, []), [])
        self._assert_matches_pairs(sc.build_multigraph(3, []), [[], [], []])

    def test_subdivision_keeps_less_than_pairs(self):
        g = sc.random_cubic(2000, 3)
        n, m = g.vertex_count, g.edge_count

        def pair_based():
            # what a subdivision with one (edge id, neighbour) pair per incidence holds
            edges = tuple((w, n + e) for e, ends in enumerate(g.edges) for w in ends)
            adj = tuple(map(tuple, pair_adjacency(n + m, edges)))
            return edges, adj, (sc.PART_B,) * n + (sc.PART_A,) * m

        halves, sub = kept(lambda: sc.subdivide(g))
        pairs, (edges, _, part_of) = kept(pair_based)
        assert sub.bipartite.graph.edges == edges and sub.bipartite.part_of == part_of
        assert halves < 0.8 * pairs


class TestInferParts:
    def test_even_cycle_alternates(self):
        b = sc.infer_parts(sc.named("c6"))
        parts = [b.part(v) for v in range(6)]
        assert parts[0] == "B"  # anchor prefers B
        assert all(parts[i] != parts[(i + 1) % 6] for i in range(6))

    def test_recovers_subdivision_orientation(self):
        sub = sc.subdivide(sc.build_multigraph(4, K4_PAIRS))
        recovered = sc.infer_parts(sub.bipartite.graph)
        assert recovered.part_of == sub.bipartite.part_of

    def test_triangle_rejected(self):
        with pytest.raises(NotBipartite):
            sc.infer_parts(sc.build_multigraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_adjacent_degree_three_rejected(self):
        # two degree-3 vertices joined by an edge can never be labeled
        pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
        with pytest.raises(NotTwoThree):
            sc.infer_parts(sc.build_multigraph(6, pairs))

    def test_deterministic(self):
        g = sc.named("c8")
        assert sc.infer_parts(g).part_of == sc.infer_parts(g).part_of


class TestBipartiteGraph:
    def test_parallel_edges_rejected(self):
        g = sc.build_multigraph(2, [(0, 1), (0, 1)])
        with pytest.raises(NotTwoThree):
            sc.BipartiteGraph(g, ["A", "B"])

    def test_edge_inside_part_rejected(self):
        g = sc.build_multigraph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotBipartite):
            sc.BipartiteGraph(g, ["A", "A", "B"])

    def test_first_fault_is_reported(self):
        # edge 1 stays inside part A, edge 3 doubles edge 0: whichever comes
        # first is named
        g = sc.build_multigraph(4, [(0, 1), (0, 2), (2, 3), (1, 0)])
        with pytest.raises(NotBipartite, match="^edge 1 joins two A-vertices$"):
            sc.BipartiteGraph(g, ["A", "B", "A", "B"])
        g = sc.build_multigraph(4, [(0, 1), (1, 0), (2, 3), (0, 2)])
        with pytest.raises(NotTwoThree, match="^parallel edge 1 between 1 and 0$"):
            sc.BipartiteGraph(g, ["A", "B", "A", "B"])
        with pytest.raises(NotBipartite, match="^unknown part label 'C'$"):
            sc.BipartiteGraph(g, ["A", "B", "C", "B"])

    def test_degree_cap(self):
        star = sc.build_multigraph(4, [(0, 1), (0, 2), (0, 3)])
        b = sc.BipartiteGraph(star, ["A", "B", "B", "B"])
        with pytest.raises(NotTwoThree):
            b.validate_23()


class TestShortestCycle:
    def test_k23_length_four(self, k23):
        desc = shortest_cycle(k23)
        assert len(desc) == 4
        # both degree-3 vertices carry a pendant; they coincide on K_{2,3}
        assert set(desc.pendant) == {3, 4}

    def test_k4_subdivision_length_six(self):
        sub = sc.subdivide(sc.build_multigraph(4, K4_PAIRS))
        assert len(shortest_cycle(sub.bipartite)) == 6

    def test_tree_has_none(self):
        b = sc.infer_parts(sc.named("tree"))
        assert shortest_cycle(b) is None

    def test_descriptor_structure(self):
        sub = sc.subdivide(sc.named("petersen"))
        desc = shortest_cycle(sub.bipartite)
        g = sub.bipartite.graph
        n = len(desc)
        assert n % 2 == 0
        for i in range(n):
            u, w = desc.vertices[i], desc.vertices[(i + 1) % n]
            assert set(g.endpoints(desc.edges[i])) == {u, w}
        parts = [sub.bipartite.part(v) for v in desc.vertices]
        assert parts == ["A", "B"] * (n // 2)
        pendants = [w for w, _ in desc.pendant.values()]
        assert len(set(pendants)) == len(pendants)
        assert not set(pendants) & set(desc.vertices)

    def test_matches_brute_force_on_small_graphs(self):
        for seed in range(40):
            b = rand_b23(5, 4, seed)
            if b.graph.vertex_count > 12:
                continue
            desc = shortest_cycle(b)
            expected = brute_girth(b.graph)
            if expected is None:
                assert desc is None
            else:
                assert len(desc) == expected

    def test_deterministic(self):
        sub = sc.subdivide(sc.named("heawood"))
        d1 = shortest_cycle(sub.bipartite)
        d2 = shortest_cycle(sub.bipartite)
        assert d1.vertices == d2.vertices and d1.edges == d2.edges


class TestComponents:
    def test_edgeless(self):
        assert components(sc.build_multigraph(3, [])) == [[0], [1], [2]]

    def test_single_cycle(self):
        g = sc.build_multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert components(g) == [[0, 1, 2, 3]]

    def test_cycle_plus_isolated(self):
        g = sc.build_multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert components(g) == [[0, 1, 2, 3], [4]]


# ---------------------------------------------------------------------------
# the girth scan against an unpruned reference


def _reference_cycle_through(start, adj, alive, cap):
    """Itai-Rodeh BFS from one start: the first down-pointing non-tree edge."""
    dist = {start: 0}
    parent_vertex = {}
    parent_edge = {start: -1}
    queue = [start]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        du = dist[u]
        if du > cap:
            return None
        for eid, w in adj[u]:
            if not alive[eid]:
                continue
            dw = dist.get(w)
            if dw is None:
                dist[w] = du + 1
                parent_edge[w] = eid
                parent_vertex[w] = u
                queue.append(w)
            elif dw == du - 1 and eid != parent_edge[u]:
                pu = [u]
                while dist[pu[-1]] > 0:
                    pu.append(parent_vertex[pu[-1]])
                pu.reverse()
                pw = [w]
                while dist[pw[-1]] > 0:
                    pw.append(parent_vertex[pw[-1]])
                pw.reverse()
                if set(pu[1:]) & set(pw[1:]):
                    return None
                return du + dw + 1, pu + pw[:0:-1]
    return None


def _reference_scan(b, alive, deg, vertex_order):
    """A BFS from every start of degree >= 2, no skips, no early stop;
    the first cycle of minimum length wins."""
    adj = pair_adjacency(b.graph.vertex_count, b.graph.edges)
    best = None
    for s in vertex_order:
        if deg[s] < 2:
            continue
        cap = (best[0] - 2) // 2 if best is not None else b.graph.vertex_count
        hit = _reference_cycle_through(s, adj, alive, cap)
        if hit is not None and (best is None or hit[0] < best[0]):
            best = (hit[0], tuple(hit[1]))
    return best


def _scan_corpus_graph(rng):
    if rng.below(2):
        return sc.random_cubic(4 + 2 * rng.below(12), rng.next_u64())
    return _generalized_petersen(5 + rng.below(10), 1 + rng.below(3))


def _relabelled(b, rng):
    """The same graph under a random vertex permutation and edge order, so
    A-vertices may precede B-vertices in the scan."""
    n = b.graph.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in b.graph.edges]
    rng.shuffle(pairs)
    part_of = [None] * n
    for v in range(n):
        part_of[perm[v]] = b.part_of[v]
    return sc.BipartiteGraph(sc.build_multigraph(n, pairs), part_of)


def _random_residue(b, rng):
    """The same vertices with about one edge in eight deleted, as a graph of its own."""
    pairs = [uv for uv in b.graph.edges if rng.below(8) != 0]
    return sc.BipartiteGraph(sc.build_multigraph(len(b.part_of), pairs), b.part_of)


def _permuted(vertices, rng):
    out = list(vertices)
    rng.shuffle(out)
    return out


def _assert_scan_matches(b, order):
    g = b.graph
    full = [True] * g.edge_count
    got = _residual_shortest_cycle(b, order)
    want = _reference_scan(b, full, [g.degree(v) for v in range(g.vertex_count)], order)
    assert got == want
    if want is not None:
        assert _descriptor_from_cycle(b, list(got[1])) == _descriptor_from_cycle(
            b, list(want[1])
        )
    return want is not None


class TestScanEquivalence:
    """The pruned scan returns exactly the reference's (length, vertices)."""

    def test_subdivided_relabelled_and_edge_deleted(self):
        rng = SplitMix64(20261018)
        hits = 0
        for i in range(300):
            b = sc.subdivide(_scan_corpus_graph(rng)).bipartite
            if i % 2:
                b = _relabelled(b, rng)
            order = range(b.graph.vertex_count)
            _assert_scan_matches(b, order)
            hits += _assert_scan_matches(_random_residue(b, rng), order)
        assert hits > 200

    def test_shortest_cycle_on_deleted_and_random_graphs(self):
        rng = SplitMix64(20261019)
        graphs = [rand_b23(5 + rng.below(20), 4, rng.next_u64()) for _ in range(150)]
        for _ in range(150):
            b = _relabelled(sc.subdivide(_scan_corpus_graph(rng)).bipartite, rng)
            graphs.append(_random_residue(b, rng))
        for b in graphs:
            g = b.graph
            full = [True] * g.edge_count
            want = _reference_scan(b, full, [g.degree(v) for v in range(g.vertex_count)],
                                   range(g.vertex_count))
            got = shortest_cycle(b)
            if want is None:
                assert got is None
            else:
                assert got == _descriptor_from_cycle(b, list(want[1]))

    def test_disjoint_union_per_component(self):
        rng = SplitMix64(20261020)
        for _ in range(20):
            parts = []
            for _ in range(2 + rng.below(5)):
                b = sc.subdivide(_scan_corpus_graph(rng)).bipartite
                parts.append(_relabelled(b, rng) if rng.below(2) else b)
            b = disjoint_union(parts)
            residue = _random_residue(b, rng)
            # a component of b is a union of components of the residue
            for comp in components(b.graph):
                _assert_scan_matches(residue, comp)

    def test_deep_girth_generalized_petersen(self):
        """Subdivided GP(n, k) with n in 20-80 have girth 8-16, so the cap
        prunes several BFS levels; each graph is scanned whole and as a
        residue, in id order and in a random order of its vertices."""
        rng = SplitMix64(20261021)
        whole_girths = set()
        for _ in range(40):
            n = 20 + rng.below(61)
            b = sc.subdivide(_generalized_petersen(n, 1 + rng.below(n // 2 - 1))).bipartite
            g = b.graph
            ids = range(g.vertex_count)
            whole_girths.add(_reference_scan(b, [True] * g.edge_count,
                                             [g.degree(v) for v in ids], ids)[0])
            for scanned in (b, _random_residue(b, rng)):
                _assert_scan_matches(scanned, ids)
                _assert_scan_matches(scanned, _permuted(ids, rng))
        assert {12, 14, 16} <= whole_girths

    def test_permuted_orders(self):
        """The scan works on positions in ``vertex_order``, not on ids."""
        rng = SplitMix64(20261022)
        hits = 0
        for _ in range(200):
            b = sc.subdivide(_scan_corpus_graph(rng)).bipartite
            ids = range(b.graph.vertex_count)
            _assert_scan_matches(b, _permuted(ids, rng))
            residue = _random_residue(b, rng)
            hits += _assert_scan_matches(residue, _permuted(ids, rng))
        assert hits > 100
        for _ in range(20):
            b = disjoint_union([sc.subdivide(_scan_corpus_graph(rng)).bipartite
                                for _ in range(2 + rng.below(4))])
            residue = _random_residue(b, rng)
            for comp in components(b.graph):
                _assert_scan_matches(residue, _permuted(comp, rng))


# ---------------------------------------------------------------------------
# the local carve from a component's lowest vertex


def _cubic(rng):
    return sc.random_cubic(4 + 2 * rng.below(14), rng.next_u64())


def _carve_piece(rng):
    """A subdivided cubic multigraph: random, GP(n, k), or two random ones
    joined by a bridge at vertex 0."""
    kind = rng.below(3)
    if kind == 0:
        g = _cubic(rng)
    elif kind == 1:
        n = 5 + rng.below(16)
        g = _generalized_petersen(n, 1 + rng.below(n // 2 - 1))
    else:
        g1, g2 = _cubic(rng), _cubic(rng)
        g = bridged_cubic(g1, g2, rng.below(g1.edge_count), rng.below(g2.edge_count))
    return sc.subdivide(g).bipartite


def _carve_draw(rng):
    """One piece, or a disjoint union of two to four."""
    if rng.below(2):
        return _carve_piece(rng)
    return disjoint_union([_carve_piece(rng) for _ in range(2 + rng.below(3))])


def _assert_carves(b):
    """Carve from each component's lowest vertex and check the cycle; returns the descents."""
    g = b.graph
    descents = 0
    for comp in components(g):
        cyc, d = _carve_cycle(b, comp[0])
        descents += d
        n = len(cyc)
        on = set(cyc)
        assert n >= 4 and n % 2 == 0 and len(on) == n and on <= set(comp)
        nbrs = [set(g.nbrs[v]) for v in cyc]
        for i, v in enumerate(cyc):
            nxt = cyc[(i + 1) % n]
            assert nxt in nbrs[i] and b.part(v) != b.part(nxt)
            assert len(nbrs[i] & on) == 2  # no chord
        if n >= 6:
            ends = [w for v, ns in zip(cyc, nbrs) if b.part(v) == sc.PART_B for w in ns - on]
            assert len(ends) == len(set(ends)) == n // 2
        _descriptor_from_cycle(b, list(cyc))  # its own checks pass too
    return descents


class TestCarveCycle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63))
    def test_chordless_alternating_with_distinct_pendant_ends(self, seed):
        _assert_carves(_carve_draw(SplitMix64(seed)))

    def test_seeded_corpus_descends(self):
        rng = SplitMix64(20261019)
        descents = sum(_assert_carves(_carve_draw(rng)) for _ in range(600))
        assert descents > 0

    def test_start_on_no_cycle(self):
        # the bridge's midpoint lies on no cycle: the carve closes one
        # through the last common vertex of the two tree paths
        rng = SplitMix64(5)
        for _ in range(20):
            g = bridged_cubic(_cubic(rng), _cubic(rng), 0, 0)
            b = sc.subdivide(g).bipartite
            mid = g.vertex_count  # edge 0 is the bridge
            cyc, _ = _carve_cycle(b, mid)
            assert mid not in cyc and len(cyc) >= 4
            _assert_carves(b)

    def test_girth_cycle_of_generalized_petersen(self):
        b = sc.subdivide(_generalized_petersen(1000, 37)).bipartite
        cyc, descents = _carve_cycle(b, 0)
        assert len(cyc) == 16 and descents == 0

    def test_forest_has_no_cycle(self):
        b = sc.infer_parts(sc.named("p5"))
        with pytest.raises(sc.InternalInvariant, match="has no cycle"):
            _carve_cycle(b, 0)
