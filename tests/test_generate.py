import tracemalloc

import pytest

import strongcolor as sc
from strongcolor.generate import SplitMix64

from conftest import kept


class TestSplitMix64:
    def test_pinned_stream(self):
        # frozen reference values for seed 0 and seed 1234567 so any port
        # of the generator can be checked bit-for-bit
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(42), SplitMix64(42)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_below_range(self):
        rng = SplitMix64(9)
        assert all(0 <= rng.below(7) < 7 for _ in range(200))

    def test_subset_sorted_distinct(self):
        rng = SplitMix64(5)
        for _ in range(100):
            s = rng.subset(6, 12)
            assert len(s) == 6 and list(s) == sorted(set(s))
            assert all(0 <= c < 12 for c in s)


class TestRandomCubic:
    def test_every_vertex_degree_three(self):
        for seed in range(30):
            g = sc.random_cubic(10, seed)
            assert all(g.degree(v) == 3 for v in range(10))

    def test_loopless(self):
        for seed in range(30):
            g = sc.random_cubic(8, seed)
            assert all(u != v for u, v in g.edges)

    def test_fixed_seed_fixed_graph(self):
        a = sc.random_cubic(4, 7)
        b = sc.random_cubic(4, 7)
        assert a.edges == b.edges

    def test_parallel_edges_do_occur(self):
        with_parallel = 0
        for seed in range(1000):
            g = sc.random_cubic(6, seed)
            pairs = [tuple(sorted(p)) for p in g.edges]
            if len(set(pairs)) < len(pairs):
                with_parallel += 1
        assert with_parallel > 0

    def test_bad_sizes(self):
        with pytest.raises(sc.BadSize):
            sc.random_cubic(5, 0)
        with pytest.raises(sc.BadSize):
            sc.random_cubic(2, 0)


class TestRandom23Bipartite:
    def test_all_outputs_validate(self):
        for seed in range(200):
            na = 1 + seed % 12
            nb = max(1 + seed % 9, (2 * na + 2) // 3)
            b = sc.random_23_bipartite(na, nb, seed)
            b.validate_23()
            assert len(b.a_vertices()) == na

    def test_over_capacity_rejected(self):
        with pytest.raises(sc.Infeasible):
            sc.random_23_bipartite(12, 1, 0)

    def test_can_emit_k23(self):
        # at sizes (3, 2) the only (2,3)-biregular simple graph is K_{2,3}
        hit = False
        for seed in range(400):
            b = sc.random_23_bipartite(3, 2, seed)
            if b.graph.edge_count == 6:
                assert all(b.graph.degree(a) == 2 for a in b.a_vertices())
                assert all(b.graph.degree(v) == 3 for v in b.b_vertices())
                hit = True
                break
        assert hit

    def test_degree_histograms_cover_both_ranges(self):
        seen_a, seen_b = set(), set()
        for seed in range(1000):
            b = sc.random_23_bipartite(4, 3, seed)
            seen_a |= {b.graph.degree(v) for v in b.a_vertices()}
            seen_b |= {b.graph.degree(v) for v in b.b_vertices()}
        assert seen_a == {0, 1, 2}
        assert seen_b == {0, 1, 2, 3}

    def test_deterministic(self):
        assert sc.random_23_bipartite(6, 5, 3).graph.edges == sc.random_23_bipartite(6, 5, 3).graph.edges


class TestRandomLists:
    def test_full_palette(self):
        L = sc.random_lists(range(4), 6, 6, 0)
        assert all(L[e] == frozenset(range(6)) for e in range(4))

    def test_size_six_of_twelve(self):
        L = sc.random_lists(range(10), 6, 12, 1)
        assert all(len(L[e]) == 6 and max(L[e]) < 12 for e in range(10))

    def test_same_seed_identical(self):
        assert sc.random_lists(range(8), 6, 12, 9) == sc.random_lists(range(8), 6, 12, 9)

    @staticmethod
    def reference(edge_ids, k, palette, seed):
        """The first form: one frozenset per edge."""
        rng = SplitMix64(seed)
        return {e: frozenset(rng.subset(k, palette)) for e in sorted(edge_ids)}

    @pytest.mark.parametrize(
        "k, palette, seed", [(6, 7, 1), (6, 8, 7), (6, 12, 3), (0, 4, 2), (3, 3, 5), (8, 40, 11)]
    )
    def test_matches_reference(self, k, palette, seed):
        edge_ids = [5, 0, 9, 3] + list(range(10, 300))
        L = sc.random_lists(edge_ids, k, palette, seed)
        ref = self.reference(edge_ids, k, palette, seed)
        assert list(L.items()) == list(ref.items())
        # equal lists are one object
        assert len({id(v) for v in L.values()}) == len(set(L.values()))

    def test_shared_lists_keep_less_memory(self):
        def kept(build):
            tracemalloc.start()
            try:
                lists = build()
                return tracemalloc.get_traced_memory()[0], lists
            finally:
                tracemalloc.stop()

        shared, L = kept(lambda: sc.random_lists(range(6000), 6, 8, 5))
        per_edge, ref = kept(lambda: self.reference(range(6000), 6, 8, 5))
        assert L == ref
        assert shared < per_edge / 2

    def test_distinct_lists_take_at_most_500_bytes(self):
        sc.random_lists(range(6000), 6, 8, 5)  # fill the interpreter's free lists untraced
        lists, L = kept(lambda: sc.random_lists(range(6000), 6, 8, 5))
        keys, _ = kept(lambda: {e: None for e in sorted(range(6000))})  # the dict and keys alone
        distinct = len({id(lst) for lst in L.values()})
        assert distinct == 28
        assert lists - keys <= 500 * distinct

    def test_list_bigger_than_palette(self):
        with pytest.raises(sc.BadSize):
            sc.random_lists(range(2), 7, 6, 0)

    def test_negative_list_size(self):
        # a negative size once drew palette + k colors per edge
        with pytest.raises(sc.BadSize):
            sc.random_lists(range(3), -1, 3, 1)
        with pytest.raises(sc.BadSize):
            SplitMix64(1).subset(-1, 3)


class TestNamed:
    def test_k23_fixture(self, k23):
        assert isinstance(k23, sc.BipartiteGraph)
        assert k23.graph.edge_count == 6
        k23.validate_23()

    def test_k4_subdivision_reaches_six_cycle(self):
        sub = sc.subdivide(sc.named("k4"))
        assert len(sc.shortest_cycle(sub.bipartite)) == 6

    def test_petersen_subdivision_reaches_long_cycle(self):
        sub = sc.subdivide(sc.named("petersen"))
        assert len(sc.shortest_cycle(sub.bipartite)) == 10

    def test_domino_is_cubic_with_girth_two(self):
        g = sc.named("domino")
        assert all(g.degree(v) == 3 for v in range(g.vertex_count))

    def test_heawood_cubic(self):
        g = sc.named("heawood")
        assert g.vertex_count == 14 and g.edge_count == 21
        assert all(g.degree(v) == 3 for v in range(14))

    def test_unknown_name(self):
        with pytest.raises(sc.UnknownName):
            sc.named("nope")

    def test_catalog_is_stable(self):
        assert "k23" in sc.fixture_names() and "petersen" in sc.fixture_names()
