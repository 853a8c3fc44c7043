import hashlib

import pytest

import strongcolor as sc
from strongcolor.generate import SplitMix64
from strongcolor.graph import shortest_cycle

from conftest import kept, peak


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


def _scalar_subset(rng, k, palette):
    """The list-based partial Fisher-Yates on scalar draws."""
    pool = list(range(palette))
    for i in range(k):
        j = i + rng.below(palette - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:k]))


class TestDraws:
    """``draws`` mixes in lanes; ``next_u64`` is the scalar reference."""

    @pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 1023, 1024, 1025, 2049, 5000])
    def test_equals_scalar_stream(self, seed, n):
        bulk, scalar = SplitMix64(seed), SplitMix64(seed)
        zs = bulk.draws(n)
        assert bulk._state == (seed + n * 0x9E3779B97F4A7C15) % 2**64  # advanced at the call
        assert list(zs) == [scalar.next_u64() for _ in range(n)]
        assert bulk._state == scalar._state
        assert bulk.next_u64() == scalar.next_u64()

    def test_blocks_bound_memory(self):
        def consume():
            for _ in SplitMix64(5).draws(200_000):
                pass

        # one integer for the whole call would hold 200,000 16-byte lanes
        assert peak(consume)[0] < 256 * 1024

    def test_negative_count(self):
        with pytest.raises(sc.BadSize):
            SplitMix64(1).draws(-1)

    @pytest.mark.parametrize("n", [0, 1, 2, 1025, 3000])
    def test_shuffle_equals_scalar_fisher_yates(self, n):
        xs, ys = list(range(n)), list(range(n))
        bulk, scalar = SplitMix64(n), SplitMix64(n)
        bulk.shuffle(xs)
        for i in range(n - 1, 0, -1):
            j = scalar.below(i + 1)
            ys[i], ys[j] = ys[j], ys[i]
        assert xs == ys and bulk._state == scalar._state

    @pytest.mark.parametrize("palette", range(1, 41))
    def test_subset_equals_list_form(self, palette):
        for k in sorted({0, 1, palette // 2, palette - 1, palette}):
            for seed in range(5):
                sparse, listed = SplitMix64(seed), SplitMix64(seed)
                assert sparse.subset(k, palette) == _scalar_subset(listed, k, palette)
                assert sparse._state == listed._state


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestPinnedStreams:
    """Frozen outputs of the seeded generators: coloring files, golden
    corpora and benchmark pools all rest on these streams."""

    @pytest.mark.parametrize("n, seed, expected", [
        (4, 7, "343f982b70e6da18"),
        (30, 1, "e2a5649e92d008ea"),
        (1000, 7, "de3b7fb2ba868e83"),
        (1000, 2**64 - 1, "fcd72bfb1af769db"),
    ])
    def test_random_cubic(self, n, seed, expected):
        assert _digest(sc.random_cubic(n, seed).edges) == expected

    @pytest.mark.parametrize("na, nb, seed, expected", [
        (3, 2, 0, "38bb1863aaece77c"),
        (12, 9, 5, "4c3d7a33737ac133"),
        (1500, 1000, 3, "9d64fbc32d82c4ac"),
    ])
    def test_random_23_bipartite(self, na, nb, seed, expected):
        assert _digest(sc.random_23_bipartite(na, nb, seed).graph.edges) == expected

    @pytest.mark.parametrize("m, k, palette, seed, expected", [
        (57, 6, 8, 1, "c999cefca909b7f9"),
        (6000, 6, 7, 11, "c4291588b991860c"),
        (40, 3, 40, 2, "28ee1ca92dfe4722"),
        (300, 6, 1000, 9, "a7f580a6bbbe7cfa"),
    ])
    def test_random_lists(self, m, k, palette, seed, expected):
        L = sc.random_lists(range(m), k, palette, seed)
        assert _digest(sorted((e, sorted(c)) for e, c in L.items())) == expected

    def test_shuffle(self):
        rng = SplitMix64(3)
        xs = list(range(12))
        rng.shuffle(xs)
        assert xs == [7, 3, 4, 2, 8, 0, 1, 6, 5, 10, 11, 9]
        assert rng.next_u64() == 13131983656473872511
        rng = SplitMix64(2**64 - 1)
        xs = list(range(2000))
        rng.shuffle(xs)
        assert _digest(xs) == "dfa3dcea8e71adc9"
        assert rng.next_u64() == 30671691195244382

    def test_subset(self):
        rng = SplitMix64(5)
        assert [rng.subset(6, 12) for _ in range(3)] == [
            (0, 1, 2, 3, 5, 9), (0, 2, 3, 8, 9, 11), (0, 1, 3, 4, 7, 10)]
        assert rng.subset(0, 5) == ()
        assert rng.subset(4, 4) == (0, 1, 2, 3)
        assert rng.subset(3, 1000) == (264, 700, 981)
        assert rng.next_u64() == 13145571946871622659


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
        assert all(L[e] == tuple(range(6)) for e in range(4))

    def test_size_six_of_twelve(self):
        L = sc.random_lists(range(10), 6, 12, 1)
        assert all(len(L[e]) == 6 and max(L[e]) < 12 for e in range(10))

    def test_same_seed_identical(self):
        assert sc.random_lists(range(8), 6, 12, 9) == sc.random_lists(range(8), 6, 12, 9)

    @staticmethod
    def reference(edge_ids, k, palette, seed):
        """The first form: one list per edge."""
        rng = SplitMix64(seed)
        return {e: rng.subset(k, palette) for e in sorted(edge_ids)}

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
        shared, L = kept(lambda: sc.random_lists(range(6000), 6, 8, 5))
        per_edge, ref = kept(lambda: self.reference(range(6000), 6, 8, 5))
        keys, _ = kept(lambda: {e: None for e in sorted(range(6000))})  # the dict and keys alone
        assert L == ref
        # a 6-tuple per edge weighs less than the dict, so compare the lists alone
        assert shared - keys < (per_edge - keys) / 10

    def test_distinct_lists_take_at_most_128_bytes(self):
        sc.random_lists(range(6000), 6, 8, 5)  # fill the interpreter's free lists untraced
        lists, L = kept(lambda: sc.random_lists(range(6000), 6, 8, 5))
        keys, _ = kept(lambda: {e: None for e in sorted(range(6000))})  # the dict and keys alone
        distinct = len({id(lst) for lst in L.values()})
        assert distinct == 28
        assert lists - keys <= 128 * distinct

    def test_pool_of_small_calls_keeps_under_half_of_frozensets(self):
        """200 calls of 60 edges, as a pool of small instances makes them,
        against the same lists as one frozenset per distinct list per call."""

        def one_frozenset_per_list(L):
            shared = {}
            return {e: shared.setdefault(lst, frozenset(set(lst))) for e, lst in L.items()}

        def pool(convert):
            return [convert(sc.random_lists(range(60), 6, 8, s)) for s in range(200)]

        tuples, as_tuples = kept(lambda: pool(lambda L: L))
        frozensets, as_frozensets = kept(lambda: pool(one_frozenset_per_list))
        assert [{e: frozenset(c) for e, c in L.items()} for L in as_tuples] == as_frozensets
        assert tuples < frozensets / 2

    @pytest.mark.parametrize("k, palette", [(0, 1), (1, 1), (3, 3), (6, 8), (6, 40), (20, 40)])
    def test_equals_list_form(self, k, palette):
        L = sc.random_lists(range(200), k, palette, palette)
        rng = SplitMix64(palette)
        assert L == {e: _scalar_subset(rng, k, palette) for e in range(200)}

    def test_huge_palette_costs_nothing_per_color(self):
        most, L = peak(lambda: sc.random_lists(range(3), 6, 10**12, 1))
        assert all(len(c) == 6 and max(c) < 10**12 for c in L.values())
        assert most < 64 * 1024

    def test_list_bigger_than_palette(self):
        with pytest.raises(sc.BadSize):
            sc.random_lists(range(2), 7, 6, 0)

    def test_negative_list_size(self):
        # a negative size once drew palette + k colors per edge
        with pytest.raises(sc.BadSize):
            sc.random_lists(range(3), -1, 3, 1)
        with pytest.raises(sc.BadSize):
            SplitMix64(1).subset(-1, 3)


class TestGeneralizedPetersen:
    def test_gp_5_2_is_petersen(self):
        gp, petersen = sc.generalized_petersen(5, 2), sc.named("petersen")
        assert gp.vertex_count == petersen.vertex_count
        assert gp.edges == petersen.edges

    @pytest.mark.parametrize("n, k", [(3, 1), (5, 1), (7, 3), (8, 3), (12, 5), (1000, 37)])
    def test_cubic_and_simple(self, n, k):
        g = sc.generalized_petersen(n, k)
        assert g.vertex_count == 2 * n and g.edge_count == 3 * n
        assert all(g.degree(v) == 3 for v in range(2 * n))
        assert len(set(map(frozenset, g.edges))) == 3 * n

    @pytest.mark.parametrize("n, k", [(2, 1), (4, 2), (6, 3), (7, 0), (7, -1), (7, 4)])
    def test_outside_range(self, n, k):
        with pytest.raises(sc.BadSize):
            sc.generalized_petersen(n, k)


class TestDisjointUnion:
    def test_offsets_ids_and_keeps_parts(self):
        parts = [sc.named("k23"), sc.subdivide(sc.named("k4")).bipartite, sc.named("k23")]
        b = sc.disjoint_union(parts)
        assert isinstance(b, sc.BipartiteGraph)
        off, edges, part_of = 0, [], []
        for p in parts:
            edges += [(u + off, v + off) for u, v in p.graph.edges]
            part_of += p.part_of
            off += p.graph.vertex_count
        assert b.graph.vertex_count == off
        assert list(b.graph.edges) == edges
        assert list(b.part_of) == part_of

    def test_empty(self):
        b = sc.disjoint_union([])
        assert b.graph.vertex_count == 0 and b.graph.edge_count == 0


class TestNamed:
    def test_k23_fixture(self, k23):
        assert isinstance(k23, sc.BipartiteGraph)
        assert k23.graph.edge_count == 6
        k23.validate_23()

    def test_k4_subdivision_reaches_six_cycle(self):
        sub = sc.subdivide(sc.named("k4"))
        assert len(shortest_cycle(sub.bipartite)) == 6

    def test_petersen_subdivision_reaches_long_cycle(self):
        sub = sc.subdivide(sc.named("petersen"))
        assert len(shortest_cycle(sub.bipartite)) == 10

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
