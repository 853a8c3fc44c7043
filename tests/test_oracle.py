import pytest

import strongcolor as sc
from strongcolor import ListAssignment, OracleBudget, PartialColoring

from conftest import assert_valid_strong, rand_b23


class TestBacktrackColor:
    def test_k23_five_colors_infeasible(self, k23):
        assert sc.backtrack_color(k23, sc.uniform_lists(range(6), 5)) is None

    def test_k23_six_colors_feasible(self, k23):
        got = sc.backtrack_color(k23, sc.uniform_lists(range(6), 6))
        assert got is not None
        assert_valid_strong(k23, sc.uniform_lists(range(6), 6), PartialColoring(got))

    def test_p4_three_vs_two(self):
        b = sc.infer_parts(sc.named("p4"))
        assert sc.backtrack_color(b, sc.uniform_lists(range(3), 3)) is not None
        assert sc.backtrack_color(b, sc.uniform_lists(range(3), 2)) is None

    def test_edge_budget_gate(self, k23):
        with pytest.raises(sc.BudgetExceeded):
            sc.backtrack_color(
                k23, sc.uniform_lists(range(6), 6), OracleBudget(max_edges=3)
            )

    def test_node_budget_distinct_from_infeasible(self, k23):
        # tiny node budget: must raise, never claim "no coloring"
        with pytest.raises(sc.BudgetExceeded):
            sc.backtrack_color(
                k23, sc.uniform_lists(range(6), 6), OracleBudget(max_nodes=2)
            )

    def test_respects_lists(self):
        b = sc.infer_parts(sc.named("p4"))
        L = ListAssignment({0: frozenset({1}), 1: frozenset({2}), 2: frozenset({1, 3})})
        got = sc.backtrack_color(b, L)
        assert got == {0: 1, 1: 2, 2: 3}

    def test_monotone_in_lists(self):
        b = sc.infer_parts(sc.named("c8"))
        for k in range(3, 7):
            small = sc.backtrack_color(b, sc.uniform_lists(range(8), k))
            big = sc.backtrack_color(b, sc.uniform_lists(range(8), k + 1))
            if small is not None:
                assert big is not None


class TestStrongChromaticIndex:
    def test_k23_is_six(self, k23):
        assert sc.strong_chromatic_index(k23) == 6

    def test_p4_is_three(self):
        assert sc.strong_chromatic_index(sc.infer_parts(sc.named("p4"))) == 3

    def test_c8_golden(self):
        # frozen from the exhaustive search: 8 is not divisible by 3
        assert sc.strong_chromatic_index(sc.infer_parts(sc.named("c8"))) == 4

    def test_edgeless_is_zero(self):
        b = sc.BipartiteGraph(sc.build_multigraph(2, []), ["A", "B"])
        assert sc.strong_chromatic_index(b) == 0


class TestIncidenceChromaticNumber:
    def test_k4_golden(self):
        assert sc.incidence_chromatic_number(sc.named("k4")) == 4

    def test_single_edge(self):
        assert sc.incidence_chromatic_number(sc.build_multigraph(2, [(0, 1)])) == 2

    def test_triple_edge_needs_six(self):
        # the subdivision is exactly K_{2,3}
        assert sc.incidence_chromatic_number(sc.named("triple-edge")) == 6

    def test_small_cubic_at_most_six(self):
        for seed in range(6):
            g = sc.random_cubic(6, seed)
            if g.edge_count * 2 <= 20:
                assert sc.incidence_chromatic_number(g) <= 6

    def test_double_edge_golden(self):
        assert sc.incidence_chromatic_number(sc.named("double-edge")) == 4


class TestOracleAgainstSolver:
    def test_agreement_on_six_lists(self):
        # with 6-lists the solver must succeed and the oracle must agree
        rng = sc.SplitMix64(3)
        for trial in range(40):
            b = rand_b23(2 + rng.below(5), 2 + rng.below(4), rng.next_u64())
            if b.graph.edge_count > 10:
                continue
            L = sc.random_lists(range(b.graph.edge_count), 6, 6 + rng.below(7), rng.next_u64())
            pc, _ = sc.color_strong_23(b, L)
            assert_valid_strong(b, L, pc, total=True)
            assert sc.backtrack_color(b, L) is not None
