import sys

import pytest

import strongcolor as sc
from strongcolor import Incidence, PartialColoring
from strongcolor.conflict import available, build_conflict_graph, conflict_edges, conflict_walk

from conftest import brute_conflicts, incidence_adjacent, pair_adjacency, rand_b23


def path_graph(n):
    return sc.infer_parts(sc.build_multigraph(n, [(i, i + 1) for i in range(n - 1)]))


def _frozen_conflict_walk(adj, edges, e):
    """A frozen copy of the pair-based ``conflict_walk``: the reference."""
    u, v = edges[e]
    return [f for g, w in adj[u] + adj[v] if g != e for f, _ in adj[w]]


class TestConflictEdges:
    def test_path_second_neighborhood(self):
        b = path_graph(4)  # edges 0: a-b, 1: b-c, 2: c-d
        assert conflict_edges(b, 0) == {1, 2}

    def test_k23_all_pairs(self, k23):
        for e in range(6):
            got = conflict_edges(k23, e)
            assert got == brute_conflicts(k23, e)
            assert got == set(range(6)) - {e}

    def test_disjoint_edges_no_conflict(self):
        g = sc.build_multigraph(4, [(0, 1), (2, 3)])
        b = sc.BipartiteGraph(g, ["A", "B", "A", "B"])
        assert conflict_edges(b, 0) == set()

    def test_matches_frozen_pair_walk_on_random_subdivisions(self):
        rng = sc.SplitMix64(33)
        for _ in range(40):
            b = sc.subdivide(sc.random_cubic(4 + 2 * rng.below(14), rng.next_u64())).bipartite
            g = b.graph
            adj = pair_adjacency(g.vertex_count, g.edges)
            for e in range(g.edge_count):
                walk = _frozen_conflict_walk(adj, g.edges, e)
                assert conflict_walk(b, e) == walk
                assert conflict_edges(b, e) == set(walk)

    def test_bad_edge_id(self, k23):
        with pytest.raises(sc.BadEdgeId):
            conflict_edges(k23, 99)


class TestBuildConflictGraph:
    def test_p4_is_triangle(self):
        cg = build_conflict_graph(path_graph(4))
        assert [cg[e] for e in range(3)] == [(1, 2), (0, 2), (0, 1)]

    def test_c8_four_each(self):
        b = sc.infer_parts(sc.named("c8"))
        cg = build_conflict_graph(b)
        for e in range(8):
            assert len(cg[e]) == 4
            assert set(cg[e]) == brute_conflicts(b, e)

    def test_k23_is_k6(self, k23):
        cg = build_conflict_graph(k23)
        assert all(len(cg[e]) == 5 for e in range(6))

    def test_symmetry_and_bound_on_corpus(self):
        corpus = [rand_b23(2 + seed % 9, 2 + seed % 7, seed) for seed in range(150)]
        for name in sc.fixture_names():
            g = sc.named(name)
            if isinstance(g, sc.Multigraph):  # parallel edges included
                corpus.append(sc.subdivide(g).bipartite)
        for n, k in ((5, 2), (7, 3), (12, 5), (13, 5)):
            corpus.append(sc.subdivide(sc.generalized_petersen(n, k)).bipartite)
        for b in corpus:
            cg = build_conflict_graph(b)
            for e in range(b.graph.edge_count):
                assert set(cg[e]) == brute_conflicts(b, e)
                assert len(cg[e]) <= 7
                for f in cg[e]:
                    assert e in cg[f]


class TestIncidenceAdjacent:
    def setup_method(self):
        # path v-w plus edges v-u, w-x
        self.g = sc.build_multigraph(4, [(0, 1), (0, 2), (1, 3)])
        # edge 0 = vw, edge 1 = vu, edge 2 = wx  (v=0, w=1, u=2, x=3)

    def test_same_vertex(self):
        assert incidence_adjacent(self.g, Incidence(0, 0), Incidence(0, 1))

    def test_same_edge(self):
        assert incidence_adjacent(self.g, Incidence(0, 0), Incidence(1, 0))

    def test_joining_edge_is_one_of_the_two(self):
        # (v, vw) vs (w, wx): the edge vw joining the vertices is e itself
        assert incidence_adjacent(self.g, Incidence(0, 0), Incidence(1, 2))

    def test_third_edge_does_not_count(self):
        # (v, vu) vs (w, wx): vw exists but is neither e nor f
        assert not incidence_adjacent(self.g, Incidence(0, 1), Incidence(1, 2))

    def test_not_reflexive(self):
        assert not incidence_adjacent(self.g, Incidence(0, 0), Incidence(0, 0))


class TestAvailable:
    def test_no_conflicts_assigned(self, k23):
        L = sc.uniform_lists(range(6), 6)
        assert available(0, L, PartialColoring(), k23) == set(range(1, 7))

    def test_two_conflicting_colors_removed(self, k23):
        L = sc.uniform_lists(range(6), 6)
        pc = PartialColoring({1: 1, 2: 2})
        assert available(0, L, pc, k23) == {3, 4, 5, 6}

    def test_own_color_of_an_assigned_edge_is_not_used(self, k23):
        L = sc.uniform_lists(range(6), 6)
        pc = PartialColoring({0: 1, 1: 2})
        assert available(0, L, pc, k23) == {1, 3, 4, 5, 6}

    def test_shrinks_by_at_most_one_per_assignment(self):
        b = sc.subdivide(sc.named("k4")).bipartite
        L = sc.uniform_lists(range(b.graph.edge_count), 6)
        pc = PartialColoring()
        pc_sizes = {e: len(available(e, L, pc, b)) for e in range(b.graph.edge_count)}
        for step, e in enumerate(range(b.graph.edge_count)):
            avail = available(e, L, pc, b)
            if not avail:
                break
            pc.assigned[e] = min(avail)
            for f in range(b.graph.edge_count):
                if f in pc.assigned:
                    continue
                new_size = len(available(f, L, pc, b))
                assert new_size >= pc_sizes[f] - 1
                pc_sizes[f] = new_size


class TestVerifyStrong:
    def test_k23_six_distinct_ok(self, k23):
        L = sc.uniform_lists(range(6), 6)
        pc = PartialColoring({e: e + 1 for e in range(6)})
        assert sc.verify_strong(k23, L, pc, require_total=True) == []

    def test_k23_repeat_names_the_pair(self, k23):
        L = sc.uniform_lists(range(6), 6)
        pc = PartialColoring({0: 1, 3: 1})
        violations = sc.verify_strong(k23, L, pc)
        assert len(violations) == 1
        assert violations[0].kind == "conflict" and violations[0].where == (0, 3)

    def test_color_outside_list(self, k23):
        L = sc.uniform_lists(range(6), 6)
        pc = PartialColoring({0: 99})
        violations = sc.verify_strong(k23, L, pc)
        assert any(v.kind == "list" for v in violations)

    def test_totality_flag(self, k23):
        L = sc.uniform_lists(range(6), 6)
        pc = PartialColoring({0: 1})
        assert sc.verify_strong(k23, L, pc) == []
        assert any(
            v.kind == "uncolored" for v in sc.verify_strong(k23, L, pc, require_total=True)
        )

    def test_solve_and_verify_build_no_conflict_graph(self, monkeypatch):
        calls = []
        build = build_conflict_graph

        def counting(b):
            calls.append(b)
            return build(b)

        # rebind every alias, as a module may have imported the name
        for name, module in list(sys.modules.items()):
            if name == "strongcolor" or name.startswith("strongcolor."):
                for attr, value in list(vars(module).items()):
                    if value is build:
                        monkeypatch.setattr(module, attr, counting)
        b = sc.subdivide(sc.generalized_petersen(7, 2)).bipartite
        L = sc.uniform_lists(range(b.graph.edge_count), 6)
        pc, _ = sc.color_strong_23(b, L)
        assert sc.verify_strong(b, L, pc, require_total=True) == []
        bad = PartialColoring({**pc.assigned, 1: pc.assigned[0]})
        assert sc.verify_strong(b, L, bad) != []
        g = sc.random_cubic(10, 3)
        sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        assert calls == []
        sc.strong_chromatic_index(sc.named("k23"))  # the oracle search still builds one
        assert len(calls) >= 1


def _reference_verify_strong(b, conflicts, L, pc, require_total):
    """``verify_strong``'s report, with each edge's conflicts from ``brute_conflicts``."""
    m = b.graph.edge_count
    out = []
    for e, c in sorted(pc.assigned.items()):
        if not 0 <= e < m:
            out.append(sc.Violation("list", (e,), f"unknown edge id {e}"))
            continue
        if L is not None and c not in L.get(e, ()):
            out.append(sc.Violation("list", (e,), f"color {c} not in list of edge {e}"))
        for f in sorted(conflicts[e]):
            if f > e and pc.assigned.get(f) == c:
                out.append(sc.Violation("conflict", (e, f), f"edges {e} and {f} share color {c}"))
    if require_total:
        for e in range(m):
            if e not in pc.assigned:
                out.append(sc.Violation("uncolored", (e,), f"edge {e} has no color"))
    return out


class TestVerifyStrongEquivalence:
    """``verify_strong`` reports exactly what a walk over brute-force conflicts reports.

    Violations are compared by ``repr``, so kinds, pairs, order and
    messages must all agree.
    """

    @staticmethod
    def corpus():
        graphs = [rand_b23(2 + seed % 9, 2 + seed % 7, seed) for seed in range(40)]
        graphs += [sc.subdivide(sc.named(name)).bipartite for name in ("double-edge", "triple-edge")]
        graphs.append(sc.BipartiteGraph(sc.build_multigraph(3, []), ["A", "B", "A"]))
        return graphs

    @staticmethod
    def random_case(b, rng):
        """A random coloring, list map and totality flag, with every kind of defect."""
        m = b.graph.edge_count
        palette = 2 + rng.below(6)  # 2..7 colors, so colors repeat
        assigned = {e: 1 + rng.below(palette) for e in range(m) if rng.below(6)}  # missing edges
        for _ in range(rng.below(3)):  # unknown edge ids
            assigned[(m, m + 1, m + 7, -1)[rng.below(4)]] = 1 + rng.below(palette)
        L = None
        if rng.below(2):  # partial lists, so some colors miss them
            L = {
                e: frozenset(1 + rng.below(palette) for _ in range(rng.below(5)))
                for e in range(m)
                if rng.below(4)
            }
        return PartialColoring(assigned), L, bool(rng.below(2))

    def test_random_colorings_report_the_same(self):
        rng = sc.SplitMix64(1018)
        kinds = set()
        for b in self.corpus():
            conflicts = [brute_conflicts(b, e) for e in range(b.graph.edge_count)]
            for _ in range(25):
                pc, L, total = self.random_case(b, rng)
                want = _reference_verify_strong(b, conflicts, L, pc, total)
                got = sc.verify_strong(b, L, pc, total)
                assert [repr(v) for v in got] == [repr(v) for v in want]
                kinds.update(v.kind for v in want)
        # every kind of violation occurred, so each branch was compared
        assert kinds == {"conflict", "list", "uncolored"}

    def test_valid_colorings_report_nothing(self):
        for b in self.corpus():
            m = b.graph.edge_count
            L = sc.uniform_lists(range(m), 6)
            pc, _ = sc.color_strong_23(b, L)
            assert sc.verify_strong(b, L, pc, require_total=True) == []
            conflicts = [brute_conflicts(b, e) for e in range(m)]
            assert _reference_verify_strong(b, conflicts, L, pc, True) == []
            if m == 0:
                continue
            # clash-free, but one edge missing, one key not an edge id and one list miss
            del pc.assigned[0]
            pc.assigned[m] = 1
            L[m - 1] = frozenset()
            for total in (False, True):
                want = _reference_verify_strong(b, conflicts, L, pc, total)
                got = sc.verify_strong(b, L, pc, total)
                assert [repr(v) for v in got] == [repr(v) for v in want] != []


class TestVerifyIncidence:
    def test_c3_matches_definition_oracle(self):
        g = sc.build_multigraph(3, [(0, 1), (1, 2), (2, 0)])
        incs = sorted(g.incidences())

        def brute_ok(coloring):
            for i1 in incs:
                for i2 in incs:
                    if i1 < i2 and incidence_adjacent(g, i1, i2):
                        if coloring[i1] == coloring[i2]:
                            return False
            return True

        # a known 4-coloring scheme of C3 incidences and a broken variant
        for attempt in range(200):
            rng = sc.SplitMix64(attempt)
            coloring = {inc: rng.below(4) for inc in incs}
            assert (sc.verify_incidence(g, coloring) == []) == brute_ok(coloring)

    def test_shared_vertex_violation(self):
        g = sc.build_multigraph(3, [(0, 1), (0, 2)])
        coloring = {Incidence(0, 0): 1, Incidence(0, 1): 1}
        violations = sc.verify_incidence(g, coloring)
        assert len(violations) == 1 and violations[0].kind == "conflict"

    def test_empty_graph_ok(self):
        g = sc.build_multigraph(0, [])
        assert sc.verify_incidence(g, {}, require_total=True) == []


class TestCorrespondence:
    def test_incidence_adjacency_equals_subdivision_conflict(self):
        for name in ("k4", "double-edge", "tree", "petersen"):
            g = sc.named(name)
            sub = sc.subdivide(g)
            cg = build_conflict_graph(sub.bipartite)
            incs = sorted(sub.incidence_to_edge)
            for i1 in incs:
                e1 = sub.incidence_to_edge[i1]
                for i2 in incs:
                    if i2 <= i1:
                        continue
                    e2 = sub.incidence_to_edge[i2]
                    assert incidence_adjacent(g, i1, i2) == (e2 in cg[e1])

    def test_verifiers_agree_through_transport(self):
        g = sc.named("k4")
        sub = sc.subdivide(g)
        rng = sc.SplitMix64(5)
        for _ in range(100):
            inc_coloring = {inc: rng.below(6) for inc in sub.incidence_to_edge}
            edge_coloring = PartialColoring(
                {sub.incidence_to_edge[inc]: c for inc, c in inc_coloring.items()}
            )
            ok_inc = sc.verify_incidence(g, inc_coloring) == []
            ok_strong = sc.verify_strong(sub.bipartite, None, edge_coloring) == []
            assert ok_inc == ok_strong


def _frozen_incidence_neighbors(g, inc):
    """The neighbour walk ``verify_incidence`` used before the vertex-clique pass."""
    v, e = inc
    a, w = g.endpoints(e)
    u = w if v == a else a
    out = set()
    for fid, x in zip(g.inc[v], g.nbrs[v]):
        if fid != e:
            out.add(Incidence(v, fid))
            out.add(Incidence(x, fid))
    for fid in g.inc[u]:
        out.add(Incidence(u, fid))
    out.discard(inc)
    return out


def _frozen_verify_incidence(g, coloring, L=None, require_total=False):
    """A frozen copy of the per-neighbour ``verify_incidence``: the reference."""
    out = []
    colored = 0
    for inc in sorted(coloring):
        c = coloring[inc]
        v, e = inc
        if not 0 <= e < g.edge_count or v not in g.endpoints(e):
            out.append(sc.Violation("list", (inc,), f"{inc} is not an incidence of the graph"))
            continue
        colored += 1
        if L is not None and c not in set(L.get(inc, ())):
            out.append(sc.Violation("list", (inc,), f"color {c} not in list of {inc}"))
        for nb in sorted(_frozen_incidence_neighbors(g, inc)):
            if nb > inc and coloring.get(nb) == c:
                out.append(
                    sc.Violation(
                        "conflict", (inc, nb), f"incidences {inc} and {nb} share color {c}"
                    )
                )
    if require_total and colored < 2 * g.edge_count:
        for inc in g.incidences():
            if inc not in coloring:
                out.append(sc.Violation("uncolored", (inc,), f"{inc} has no color"))
    return out


class TestVerifyIncidenceEquivalence:
    """``verify_incidence`` reports exactly what the per-neighbour walk reported.

    Violations are compared by ``repr``, so kinds, pairs, order, messages
    and the key types (``Incidence`` or plain tuples) must all agree.
    """

    @staticmethod
    def corpus():
        graphs = [sc.named(name) for name in ("double-edge", "triple-edge", "domino", "petersen")]
        graphs += [sc.random_cubic(n, seed) for seed, n in enumerate((4, 4, 6, 8, 10, 16, 24, 30))]
        return graphs

    @staticmethod
    def random_case(g, rng):
        """A random coloring, list map and totality flag, with every kind of defect."""
        palette = 2 + rng.below(5)  # 2..6 colors
        incs = list(g.incidences())
        coloring = {inc: 1 + rng.below(palette) for inc in incs}
        for inc in incs:  # deleted keys
            if rng.below(6) == 0:
                del coloring[inc]
        n, m = g.vertex_count, g.edge_count
        for _ in range(rng.below(3)):  # edge id out of range
            coloring[Incidence(rng.below(n), (m, m + 1, -1)[rng.below(3)])] = 1
        for _ in range(rng.below(3)):  # vertex not an endpoint of the edge
            e = rng.below(m)
            v = rng.below(n + 2) - 1
            if v not in g.edges[e]:
                coloring[Incidence(v, e)] = 1 + rng.below(palette)
        if rng.below(4) == 0:  # plain tuple keys, as a caller may pass them
            coloring = {tuple(k): c for k, c in coloring.items()}
        L = None
        if rng.below(2):  # partial incidence lists
            L = {
                inc: frozenset(1 + rng.below(palette) for _ in range(rng.below(4)))
                for inc in incs
                if rng.below(3)
            }
        return coloring, L, bool(rng.below(2))

    def test_random_colorings_report_the_same(self):
        rng = sc.SplitMix64(2024)
        kinds = set()
        for g in self.corpus():
            for _ in range(60):
                coloring, L, total = self.random_case(g, rng)
                want = _frozen_verify_incidence(g, coloring, L, total)
                got = sc.verify_incidence(g, coloring, L, total)
                assert [repr(v) for v in got] == [repr(v) for v in want]
                if L is not None:  # lists given as Python lists or sets read alike
                    for kind in (list, set):
                        as_kind = {k: kind(v) for k, v in L.items()}
                        got = sc.verify_incidence(g, coloring, as_kind, total)
                        assert [repr(v) for v in got] == [repr(v) for v in want]
                kinds.update(v.kind for v in want)
        # every kind of violation occurred, so each branch was compared
        assert kinds == {"conflict", "list", "uncolored"}

    def test_proper_colorings(self):
        for g in self.corpus():
            coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
            assert _frozen_verify_incidence(g, coloring, None, True) == []
            assert sc.verify_incidence(g, coloring, None, True) == []
            # clash-free, but one key missing and one key not an incidence
            del coloring[Incidence(g.edges[0][1], 0)]
            coloring[Incidence(g.vertex_count, 0)] = 1
            for total in (False, True):
                want = _frozen_verify_incidence(g, coloring, None, total)
                got = sc.verify_incidence(g, coloring, None, total)
                assert [repr(v) for v in got] == [repr(v) for v in want] != []
