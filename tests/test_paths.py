"""The two path-configuration procedures, exercised standalone.

Each result is checked as a real strong coloring on the configuration
graph, not against the procedure's own bookkeeping.
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
from strongcolor.solver import _FIVE_ROLES, _odd_required_sizes

from conftest import cycle_gadget, five_path_graph, odd_path_graph


FIVE_SIZES = {"uv": 5, "vw": 5, "wx": 5, "xy": 5, "vz": 3, "xt": 3}


def run_five_path(lists_by_role):
    """Assignments of ``precolor_five_path`` on the standalone gadget, in order."""
    cfg = FivePathConfig.standalone()
    L = ListAssignment({cfg.edge_ids[r]: frozenset(lists_by_role[r]) for r in _FIVE_ROLES})
    cg = sc.build_conflict_graph(five_path_graph())
    pc = sc.precolor_five_path(L, PartialColoring(), cfg, cg, SolveStats())
    return list(pc.assigned.items())


def check_five_path(lists_by_role):
    cfg = FivePathConfig.standalone()
    out = run_five_path(lists_by_role)
    assert sorted(e for e, _ in out) == sorted(
        cfg.edge_ids[r] for r in ("uv", "vz", "xy", "xt")
    )
    b = five_path_graph()
    L = ListAssignment({cfg.edge_ids[r]: frozenset(lists_by_role[r]) for r in _FIVE_ROLES})
    pc = PartialColoring(dict(out))
    assert sc.verify_strong(b, L, pc) == []
    cg = sc.build_conflict_graph(b)
    assert len(sc.available(cfg.edge_ids["vw"], L, pc, cg)) >= 3
    assert len(sc.available(cfg.edge_ids["wx"], L, pc, cg)) >= 2
    return out


class TestPrecolorFivePath:
    def test_shared_pendant_color(self):
        out = check_five_path(
            {
                "uv": {1, 2, 3, 4, 5},
                "vw": {1, 2, 3, 4, 5},
                "wx": {1, 2, 3, 4, 5},
                "xy": {1, 2, 3, 4, 5},
                "vz": {1, 2, 3},
                "xt": {1, 2, 3},
            }
        )
        colors = dict(out)
        # standalone edge ids follow role order: uv=0, vw=1, wx=2, xy=3, vz=4, xt=5
        assert colors[4] == colors[5]

    def test_disjoint_pendants_pigeonhole(self):
        check_five_path(
            {
                "uv": {1, 2, 3, 4, 5},
                "vw": {1, 2, 3, 4, 5},
                "wx": {1, 2, 3, 4, 5},
                "xy": {6, 7, 8, 9, 10},
                "vz": {1, 2, 3},
                "xt": {4, 5, 6},
            }
        )

    def test_fully_disjoint_everything(self):
        check_five_path(
            {
                "uv": {1, 2, 3, 4, 5},
                "vw": {20, 21, 22, 23, 24},
                "wx": {30, 31, 32, 33, 34},
                "xy": {6, 7, 8, 9, 10},
                "vz": {11, 12, 13},
                "xt": {14, 15, 16},
            }
        )

    def test_all_identical_six_lists(self):
        # every list {1..6}: the shared-color cases fire all the way down
        check_five_path({r: set(range(1, 7)) for r in _FIVE_ROLES})

    def test_oversized_lists_are_truncated(self):
        check_five_path({r: set(range(1, 12)) for r in _FIVE_ROLES})

    def test_too_small_rejected(self):
        lists = {r: set(range(FIVE_SIZES[r])) for r in _FIVE_ROLES}
        lists["vz"] = {1, 2}
        with pytest.raises(sc.ListTooSmall):
            run_five_path(lists)

    def test_random_draws(self):
        rng = SplitMix64(101)
        for trial in range(500):
            palette = 6 + rng.below(7)
            check_five_path(
                {r: set(rng.subset(FIVE_SIZES[r], palette)) for r in _FIVE_ROLES}
            )

    def test_deterministic(self):
        lists = {r: set(range(2, 2 + FIVE_SIZES[r])) for r in _FIVE_ROLES}
        a = run_five_path(lists)
        b = run_five_path(lists)
        assert a == b

    def test_on_cycle_with_colored_neighbours(self):
        # on the 8-cycle gadget the seed sits on u-v-w-x-y = 0..4 with
        # pendants 1-8 and 3-9; the cycle edges 7-0 and 4-5 are already
        # colored and each costs the seed's edges at most one color
        b = cycle_gadget(8)
        cfg = FivePathConfig(
            (0, 1, 2, 3, 4, 8, 9),
            {"uv": 0, "vw": 1, "wx": 2, "xy": 3, "vz": 8, "xt": 9},
        )
        cg = sc.build_conflict_graph(b)
        rng = SplitMix64(8)
        for trial in range(200):
            palette = 6 + rng.below(3)
            L = sc.random_lists(range(b.graph.edge_count), 6, palette, rng.next_u64())
            pc = PartialColoring({7: min(L[7]), 4: max(L[4] - {min(L[7])})})
            sc.precolor_five_path(L, pc, cfg, cg, SolveStats())
            assert sorted(pc.assigned) == [0, 3, 4, 7, 8, 9]
            assert sc.verify_strong(b, L, pc, cg=cg) == []
            assert len(sc.available(1, L, pc, cg)) >= 3
            assert len(sc.available(2, L, pc, cg)) >= 2


def run_odd_path(n, lists_by_role):
    """Assignments of ``color_odd_path`` on the standalone gadget, in order."""
    cfg = OddPathConfig.standalone(n)
    L = ListAssignment({cfg.edge_for(r): frozenset(cs) for r, cs in lists_by_role.items()})
    cg = sc.build_conflict_graph(odd_path_graph(n))
    pc = sc.color_odd_path(L, PartialColoring(), cfg, cg, SolveStats())
    return list(pc.assigned.items())


def check_odd_path(n, lists_by_role):
    cfg = OddPathConfig.standalone(n)
    out = run_odd_path(n, lists_by_role)
    b = odd_path_graph(n)
    L = ListAssignment({cfg.edge_for(r): frozenset(cs) for r, cs in lists_by_role.items()})
    pc = PartialColoring(dict(out))
    assert len(pc.assigned) == len(lists_by_role)
    assert sc.verify_strong(b, L, pc, require_total=True) == []
    return out


class TestColorOddPath:
    def test_base_shared_pendant_color(self):
        out = check_odd_path(
            5,
            {
                ("p", 1): {1, 2, 3},
                ("q", 2): {7, 8},
                ("p", 2): {1, 2, 3, 4},
                ("p", 3): {1, 2, 3, 4},
                ("q", 4): {7, 9},
                ("p", 4): {4, 5, 6},
            },
        )
        colors = dict(out)
        # standalone ids: path edges 0..3, pendant at position 2 -> 4, at 4 -> 5
        assert colors[4] == colors[5] == 7

    def test_base_all_pairings_disjoint_needs_rainbow(self):
        # the four compatible pairs all have disjoint lists
        check_odd_path(
            5,
            {
                ("p", 1): {1, 2, 3},
                ("q", 2): {10, 11},
                ("p", 2): {1, 2, 10, 20},
                ("p", 3): {3, 11, 21, 30},
                ("q", 4): {20, 21},
                ("p", 4): {4, 5, 6},
            },
        )

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_random_draws(self, n):
        rng = SplitMix64(1000 + n)
        req = _odd_required_sizes(n)
        for trial in range(400):
            palette = 6 + rng.below(7)
            lists = {role: set(rng.subset(k, palette)) for role, k in req.items()}
            check_odd_path(n, lists)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            OddPathConfig.standalone(6)

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            OddPathConfig.standalone(3)

    def test_undersized_list_rejected(self):
        req = _odd_required_sizes(5)
        lists = {role: set(range(k)) for role, k in req.items()}
        lists[("p", 2)] = {1, 2}
        with pytest.raises(sc.ListTooSmall):
            run_odd_path(5, lists)

    def test_deterministic(self):
        req = _odd_required_sizes(7)
        lists = {role: set(range(3, 3 + k)) for role, k in req.items()}
        a = run_odd_path(7, lists)
        b = run_odd_path(7, lists)
        assert a == b
