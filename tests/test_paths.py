"""The two path-configuration procedures, exercised standalone.

Each result is checked as a real strong coloring on the configuration
graph, not against the procedure's own bookkeeping.  Lists are given by
standalone edge id: uv, vw, wx, xy, vz, xt for the five-path, and the
path edges followed by the pendant edges for the odd path.
"""

import pytest

import strongcolor as sc
from strongcolor import (
    FivePathConfig,
    ListAssignment,
    OddPathConfig,
    PartialColoring,
    SolveStats,
)
from strongcolor.generate import SplitMix64
from strongcolor.solver import _FIVE_SIZES, _odd_sizes

from conftest import cycle_gadget, five_path_graph, odd_path_graph, odd_path_lists


def by_edge_id(lists):
    return ListAssignment({e: frozenset(cs) for e, cs in enumerate(lists)})


def run_five_path(lists):
    """Assignments of ``precolor_five_path`` on the standalone gadget, in order."""
    cfg = FivePathConfig.standalone()
    pc = sc.precolor_five_path(
        by_edge_id(lists), PartialColoring(), cfg, five_path_graph(), SolveStats()
    )
    return list(pc.assigned.items())


def check_five_path(lists):
    uv, vw, wx, xy, vz, xt = FivePathConfig.standalone().edges
    out = run_five_path(lists)
    assert sorted(e for e, _ in out) == sorted((uv, vz, xy, xt))
    b = five_path_graph()
    L = by_edge_id(lists)
    pc = PartialColoring(dict(out))
    assert sc.verify_strong(b, L, pc) == []
    assert len(sc.available(vw, L, pc, b)) >= 3
    assert len(sc.available(wx, L, pc, b)) >= 2
    return out


class TestPrecolorFivePath:
    def test_shared_pendant_color(self):
        out = check_five_path([{1, 2, 3, 4, 5}] * 4 + [{1, 2, 3}] * 2)
        colors = dict(out)
        assert colors[4] == colors[5]  # vz, xt

    def test_disjoint_pendants_pigeonhole(self):
        check_five_path(
            [{1, 2, 3, 4, 5}] * 3 + [{6, 7, 8, 9, 10}, {1, 2, 3}, {4, 5, 6}]
        )

    def test_fully_disjoint_everything(self):
        check_five_path(
            [
                {1, 2, 3, 4, 5},
                {20, 21, 22, 23, 24},
                {30, 31, 32, 33, 34},
                {6, 7, 8, 9, 10},
                {11, 12, 13},
                {14, 15, 16},
            ]
        )

    def test_all_identical_six_lists(self):
        # every list {1..6}: the shared-color cases fire all the way down
        check_five_path([set(range(1, 7))] * 6)

    def test_oversized_lists_are_truncated(self):
        check_five_path([set(range(1, 12))] * 6)

    @pytest.mark.parametrize("vertices, edges", [
        (tuple(range(7)), tuple(range(5))),
        (tuple(range(7)), tuple(range(7))),
        ((0, 1, 2, 3, 4, 5, 0), tuple(range(6))),
    ])
    def test_malformed_config_rejected(self, vertices, edges):
        with pytest.raises(ValueError):
            FivePathConfig(vertices, edges)

    def test_too_small_rejected(self):
        lists = [set(range(k)) for k in _FIVE_SIZES]
        lists[4] = {1, 2}  # vz
        with pytest.raises(sc.ListTooSmall):
            run_five_path(lists)

    def test_random_draws(self):
        rng = SplitMix64(101)
        for trial in range(500):
            palette = 6 + rng.below(7)
            check_five_path([set(rng.subset(k, palette)) for k in _FIVE_SIZES])

    def test_deterministic(self):
        lists = [set(range(2, 2 + k)) for k in _FIVE_SIZES]
        a = run_five_path(lists)
        b = run_five_path(lists)
        assert a == b

    def test_on_cycle_with_colored_neighbours(self):
        # on the 8-cycle gadget the seed sits on u-v-w-x-y = 0..4 with
        # pendants 1-8 and 3-9; the cycle edges 7-0 and 4-5 are already
        # colored and each costs the seed's edges at most one color
        b = cycle_gadget(8)
        cfg = FivePathConfig((0, 1, 2, 3, 4, 8, 9), (0, 1, 2, 3, 8, 9))
        rng = SplitMix64(8)
        for trial in range(200):
            palette = 6 + rng.below(3)
            L = sc.random_lists(range(b.graph.edge_count), 6, palette, rng.next_u64())
            pc = PartialColoring({7: min(L[7]), 4: max(set(L[4]) - {min(L[7])})})
            sc.precolor_five_path(L, pc, cfg, b, SolveStats())
            assert sorted(pc.assigned) == [0, 3, 4, 7, 8, 9]
            assert sc.verify_strong(b, L, pc) == []
            assert len(sc.available(1, L, pc, b)) >= 3
            assert len(sc.available(2, L, pc, b)) >= 2


def run_odd_path(n, lists):
    """Assignments of ``color_odd_path`` on the standalone gadget, in order."""
    cfg = OddPathConfig.standalone(n)
    pc = sc.color_odd_path(
        by_edge_id(lists), PartialColoring(), cfg, odd_path_graph(n), SolveStats()
    )
    return list(pc.assigned.items())


def check_odd_path(n, lists):
    out = run_odd_path(n, lists)
    b = odd_path_graph(n)
    pc = PartialColoring(dict(out))
    assert len(pc.assigned) == len(lists)
    assert sc.verify_strong(b, by_edge_id(lists), pc, require_total=True) == []
    return out


class TestColorOddPath:
    def test_base_shared_pendant_color(self):
        # path edges 0..3, then the pendants at v2 (edge 4) and v4 (edge 5)
        out = check_odd_path(
            5, [{1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4}, {4, 5, 6}, {7, 8}, {7, 9}]
        )
        colors = dict(out)
        assert colors[4] == colors[5] == 7

    def test_base_all_pairings_disjoint_needs_rainbow(self):
        # the four compatible pairs all have disjoint lists
        check_odd_path(
            5,
            [{1, 2, 3}, {1, 2, 10, 20}, {3, 11, 21, 30}, {4, 5, 6}, {10, 11}, {20, 21}],
        )

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_random_draws(self, n):
        rng = SplitMix64(1000 + n)
        for trial in range(400):
            palette = 6 + rng.below(7)
            check_odd_path(n, odd_path_lists(rng, n, palette))

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            OddPathConfig.standalone(6)

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            OddPathConfig.standalone(3)

    @pytest.mark.parametrize("make", [
        lambda c: OddPathConfig(c.path_vertices, c.pendant_vertices[:-1], c.path_edges,
                                c.pendant_edges[:-1]),
        lambda c: OddPathConfig(c.path_vertices, c.pendant_vertices, c.path_edges,
                                c.pendant_edges[:-1]),
        lambda c: OddPathConfig(c.path_vertices, c.pendant_vertices, c.path_edges[:-1],
                                c.pendant_edges),
        lambda c: OddPathConfig(c.path_vertices, (0,) + c.pendant_vertices[1:], c.path_edges,
                                c.pendant_edges),
    ])
    def test_malformed_config_rejected(self, make):
        with pytest.raises(ValueError):
            make(OddPathConfig.standalone(7))

    def test_undersized_list_rejected(self):
        path_sizes, pendant_sizes = _odd_sizes(5)
        lists = [set(range(k)) for k in path_sizes + pendant_sizes]
        lists[1] = {1, 2}  # the second path edge needs 4
        with pytest.raises(sc.ListTooSmall):
            run_odd_path(5, lists)

    def test_deterministic(self):
        path_sizes, pendant_sizes = _odd_sizes(7)
        lists = [set(range(3, 3 + k)) for k in path_sizes + pendant_sizes]
        a = run_odd_path(7, lists)
        b = run_odd_path(7, lists)
        assert a == b
