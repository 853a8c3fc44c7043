"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances and instance counts are pinned here and nowhere else.
"""

import time

import strongcolor as sc
from strongcolor import ListAssignment, SolveStats, fileio
from strongcolor.generate import SplitMix64
from strongcolor.solver import _FIVE_SIZES

from conftest import five_path_graph, odd_path_graph, odd_path_lists


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def _criterion2_instances():
    rng = SplitMix64(20260811)
    for _ in range(1000):
        na = 3 + rng.below(148)  # up to 150 A-vertices -> at most 300 edges
        nb = max((2 * na + 2) // 3, (2 * na) // 3 + 1 + rng.below(4))
        yield na, nb, rng.next_u64(), rng.next_u64()


def _criterion3_instances():
    rng = SplitMix64(314159)
    for _ in range(500):
        n = 4 + 2 * rng.below(49)  # even, at most 100
        yield n, rng.next_u64()


def test_criterion_1_tightness():
    started = time.perf_counter()
    k23 = sc.named("k23")
    assert sc.backtrack_color(k23, sc.uniform_lists(range(6), 5)) is None
    assert sc.backtrack_color(k23, sc.uniform_lists(range(6), 6)) is not None
    assert sc.strong_chromatic_index(k23) == 6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"tightness check took {elapsed:.2f}s"
    _report(1, f"strong chromatic index of K_2,3 is exactly 6 ({elapsed * 1000:.0f} ms)")


def test_criterion_2_thousand_bipartite_solves():
    started = time.perf_counter()
    max_edges = 0
    for na, nb, gseed, lseed in _criterion2_instances():
        b = sc.random_23_bipartite(na, nb, gseed)
        m = b.graph.edge_count
        max_edges = max(max_edges, m)
        L = sc.random_lists(range(m), 6, 12, lseed)
        pc, _ = sc.color_strong_23(b, L)
        assert sc.verify_strong(b, L, pc, require_total=True) == []
    elapsed = time.perf_counter() - started
    assert max_edges <= 300
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"1000/1000 random (2,3)-bipartite solves valid, "
               f"largest {max_edges} edges ({elapsed:.1f} s)")


def test_criterion_3_five_hundred_cubic_incidence():
    lists_cache = {}
    count = 0
    for n, seed in _criterion3_instances():
        g = sc.random_cubic(n, seed)
        coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        assert sc.verify_incidence(g, coloring, require_total=True) == []
        assert len(set(coloring.values())) <= 6
        assert all(1 <= c <= 6 for c in coloring.values())
        count += 1
    assert count == 500
    _report(3, "500/500 random cubic multigraphs incidence-colored with at most 6 colors")


def test_criterion_4_oracle_equivalence():
    rng = SplitMix64(271828)
    checked = 0
    while checked < 200:
        na = 1 + rng.below(8)
        nb = max(1 + rng.below(6), (2 * na + 2) // 3)
        b = sc.random_23_bipartite(na, nb, rng.next_u64())
        m = b.graph.edge_count
        lseed = rng.next_u64()
        if m > 16:
            continue
        L = sc.random_lists(range(m), 6, 12, lseed)
        pc, _ = sc.color_strong_23(b, L)
        assert sc.verify_strong(b, L, pc, require_total=True) == []
        assert sc.backtrack_color(b, L) is not None, "oracle disagrees with solver"
        checked += 1
    _report(4, f"{checked} small instances: solver valid and oracle concurs, 0 disagreements")


def test_criterion_5_path_procedure_suites():
    rng = SplitMix64(160914)
    b5 = five_path_graph()
    for _ in range(10_000):
        palette = 6 + rng.below(7)
        cfg = sc.FivePathConfig.standalone()
        L = ListAssignment(
            {e: frozenset(rng.subset(k, palette)) for e, k in zip(cfg.edges, _FIVE_SIZES)}
        )
        pc = sc.precolor_five_path(L, sc.PartialColoring(), cfg, b5, sc.SolveStats())
        assert sc.verify_strong(b5, L, pc) == []
        assert len(sc.available(cfg.edges[1], L, pc, b5)) >= 3  # vw
        assert len(sc.available(cfg.edges[2], L, pc, b5)) >= 2  # wx
    _report(5, "five-path precoloring: 10000/10000 draws meet the 3/2 residual bound")

    for n in (5, 7, 9, 11):
        bn = odd_path_graph(n)
        for _ in range(10_000):
            palette = 6 + rng.below(7)
            lists = odd_path_lists(rng, n, palette)
            cfg = sc.OddPathConfig.standalone(n)
            L = ListAssignment(dict(zip(cfg.path_edges + cfg.pendant_edges, lists)))
            pc = sc.color_odd_path(L, sc.PartialColoring(), cfg, bn, sc.SolveStats())
            assert len(pc.assigned) == len(lists)
            assert sc.verify_strong(bn, L, pc, require_total=True) == []
        _report(5, f"odd-path coloring n={n}: 10000/10000 draws valid")


def test_criterion_6_path_coverage():
    total = SolveStats()
    battery = ("tree", "p4", "p5", "k23", "triple-edge", "domino", "k4", "petersen", "heawood")
    for name in battery:
        fixture = sc.named(name)
        b = fixture if isinstance(fixture, sc.BipartiteGraph) else sc.subdivide(fixture).bipartite
        L = sc.uniform_lists(range(b.graph.edge_count), 6)
        pc, stats = sc.color_strong_23(b, L)
        total.merge(stats)
    assert total.peeled_edges >= 1
    assert total.k23_base_cases >= 1
    assert total.c4_extensions >= 1
    assert total.c6_extensions >= 1
    assert total.long_cycle_extensions >= 1
    _report(
        6,
        "fixture battery drives every solver path: "
        + " ".join(f"{k}={v}" for k, v in total.as_dict().items()),
    )


def test_criterion_7_performance_n5000():
    g = sc.random_cubic(5000, 424242)
    started = time.perf_counter()
    coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"n=5000 took {elapsed:.1f}s"
    assert len(coloring) == 2 * g.edge_count
    _report(7, f"n=5000 cubic multigraph (15000 subdivision edges) incidence-colored "
               f"in {elapsed:.2f} s")


def test_criterion_8_determinism_byte_identical():
    # criterion 2 slice
    def run2():
        chunks = []
        for na, nb, gseed, lseed in list(_criterion2_instances())[:100]:
            b = sc.random_23_bipartite(na, nb, gseed)
            L = sc.random_lists(range(b.graph.edge_count), 6, 12, lseed)
            pc, _ = sc.color_strong_23(b, L)
            chunks.append(fileio.coloring_to_text(pc.assigned, "strong"))
        return "".join(chunks).encode()

    # criterion 3 slice
    def run3():
        chunks = []
        for n, seed in list(_criterion3_instances())[:100]:
            g = sc.random_cubic(n, seed)
            coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
            chunks.append(fileio.coloring_to_text(coloring, "incidence"))
        return "".join(chunks).encode()

    # criterion 7 instance
    def run7():
        g = sc.random_cubic(5000, 424242)
        coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        return fileio.coloring_to_text(coloring, "incidence").encode()

    assert run2() == run2()
    assert run3() == run3()
    assert run7() == run7()
    _report(8, "repeated seeded runs produce byte-identical coloring files")
