import ast
import inspect
import sys
from heapq import heapify, heappop, heappush

import pytest

import strongcolor as sc
from strongcolor import ListAssignment, PartialColoring, PeelState, SolveStats, oracle, solver
from strongcolor.generate import SplitMix64, disjoint_union
from strongcolor.graph import components

from conftest import (
    assert_valid_strong,
    c4_gadget,
    c6_gadget,
    cycle_gadget,
    rand_b23,
)
from test_golden import _generalized_petersen


# Frozen copies of the peel and the greedy unwind in their first form: one
# call per peeled edge, a helper call per qualify test, and each greedy
# color read through ``available``.  The solver must reproduce their peel
# stack, coloring and counters exactly.


def _ref_qualifies(b, deg, v):
    if deg[v] < 1:
        return False
    cap = 1 if b.part_of[v] == sc.PART_A else 2
    return deg[v] <= cap


def _ref_remove_edge(b, alive, deg, heap, e):
    alive[e] = False
    for v in b.graph.endpoints(e):
        deg[v] -= 1
        if _ref_qualifies(b, deg, v):
            heappush(heap, v)


def _ref_peel_step(b, alive, deg, heap, stack):
    while heap:
        v = heappop(heap)
        if not _ref_qualifies(b, deg, v):
            continue
        e = min(eid for eid in b.graph.inc[v] if alive[eid])
        _ref_remove_edge(b, alive, deg, heap, e)
        stack.append(e)
        return e
    return None


def _ref_greedy_unwind(stack, L, pc, b, stats):
    while stack:
        item = stack.pop()
        if isinstance(item, sc.CycleDescriptor):
            extend = {4: sc.extend_c4, 6: sc.extend_c6}.get(len(item), sc.extend_long_cycle)
            extend(L, pc, item, b, stats)
            continue
        avail = sc.available(item, L, pc, b)
        if not avail:
            raise sc.InternalInvariant(f"peeled edge {item} has no available color at unwind")
        pc.set(item, min(avail))
    return pc


def _ref_solve(b, L):
    """The solver's peel, carves and unwind from the frozen copies: (stack, pc, stats)."""
    g = b.graph
    alive = [True] * g.edge_count
    deg = [g.degree(v) for v in range(g.vertex_count)]
    heap = [v for v in range(g.vertex_count) if _ref_qualifies(b, deg, v)]
    heapify(heap)
    stack = []
    stats = SolveStats()
    while _ref_peel_step(b, alive, deg, heap, stack) is not None:
        stats.peeled_edges += 1
    carved = []
    for s in range(g.vertex_count):
        if deg[s]:
            cyc, descents = solver._carve_cycle(b, s)
            stats.carve_descents += descents
            desc = solver._descriptor_from_cycle(b, cyc)
            for v in desc.vertices:
                for eid in g.inc[v]:
                    if alive[eid]:
                        _ref_remove_edge(b, alive, deg, heap, eid)
            carved.append(desc)
            while _ref_peel_step(b, alive, deg, heap, stack) is not None:
                stats.peeled_edges += 1
    stack[:0] = carved
    peeled = list(stack)
    pc = _ref_greedy_unwind(stack, L, PartialColoring(), b, stats)
    return peeled, pc, stats


def _relabel(b, L, rng):
    """A copy with shuffled vertex ids, edge ids and endpoint order."""
    g = b.graph
    vmap = list(range(g.vertex_count))
    rng.shuffle(vmap)
    order = list(range(g.edge_count))  # new edge i is old edge order[i]
    rng.shuffle(order)
    pairs = []
    for old in order:
        u, v = g.edges[old]
        pairs.append((vmap[v], vmap[u]) if rng.below(2) else (vmap[u], vmap[v]))
    part_of = [None] * g.vertex_count
    for v, p in enumerate(b.part_of):
        part_of[vmap[v]] = p
    relabelled = sc.BipartiteGraph(sc.build_multigraph(g.vertex_count, pairs), part_of)
    return relabelled, {i: L[old] for i, old in enumerate(order)}


class TestPeelUnwindEquivalence:
    @staticmethod
    def piece(rng, kind):
        if kind == 0:
            return rand_b23(1 + rng.below(14), 1 + rng.below(10), rng.next_u64())
        if kind == 1:
            return sc.subdivide(sc.random_cubic(4 + 2 * rng.below(8), rng.next_u64())).bipartite
        n = 5 + rng.below(10)
        return sc.subdivide(_generalized_petersen(n, 1 + rng.below(n // 2 - 1))).bipartite

    @staticmethod
    def lists(m, rng, family):
        """Lists for m edges from one of four families.

        0: 6 to 8 colors from a palette of 8 to 12, drawn per edge;
        1: 6 to 8 sparse colors, among them 0 and values of 2**64 and more;
        2: 6 to 12 colors from a palette of 12 to 16;
        3: one shared 1024-color frozenset on every edge.
        """
        if family == 0:
            palette = 8 + rng.below(5)
            return {e: frozenset(rng.subset(6 + rng.below(3), palette)) for e in range(m)}
        if family == 1:
            values = [0, 2**64, 2**64 + 1, 2**100] + [rng.next_u64() for _ in range(4 + rng.below(5))]
            return {
                e: frozenset(values[i] for i in rng.subset(6 + rng.below(3), len(values)))
                for e in range(m)
            }
        if family == 2:
            palette = 12 + rng.below(5)
            return {e: frozenset(rng.subset(6 + rng.below(7), palette)) for e in range(m)}
        shared = frozenset(range(1, 1025))
        return dict.fromkeys(range(m), shared)

    def test_same_stack_coloring_and_stats(self, monkeypatch):
        unwound = []
        unwind = solver.greedy_unwind

        def recorded(peeled, carved, *args):
            unwound.append(carved + peeled)
            return unwind(peeled, carved, *args)

        monkeypatch.setattr(solver, "greedy_unwind", recorded)
        rng = SplitMix64(20261018)
        descriptors = peeled = 0
        for i in range(200):
            kind = i % 4
            if kind < 3:
                b = self.piece(rng, kind)
            else:
                b = disjoint_union([self.piece(rng, rng.below(3)) for _ in range(2 + rng.below(3))])
            L = self.lists(b.graph.edge_count, rng, i // 4 % 4)
            for b, L in ((b, L), _relabel(b, L, rng)):
                stack, pc, stats = _ref_solve(b, L)
                unwound.clear()
                live_pc, live_stats = sc.color_strong_23(b, L)
                assert unwound == [stack]
                assert live_pc.assigned == pc.assigned
                assert live_stats == stats
                # every carved cycle lies below every peeled edge
                carved = [isinstance(x, sc.CycleDescriptor) for x in stack]
                assert carved == sorted(carved, reverse=True)
                descriptors += sum(carved)
                peeled += stats.peeled_edges
        assert descriptors > 350 and peeled > 14000


class TestPeelStep:
    def test_path_peels_completely(self):
        b = sc.infer_parts(sc.named("p5"))
        state = PeelState.for_graph(b)
        peeled = list(sc.peel(b, state))
        assert sorted(peeled) == list(range(4))
        assert not any(state.alive)

    def test_even_cycle_peels_completely(self):
        b = sc.infer_parts(sc.named("c8"))
        state = PeelState.for_graph(b)
        assert sum(1 for _ in sc.peel(b, state)) == 8

    def test_biregular_core_returns_none(self):
        b = sc.subdivide(sc.named("k4")).bipartite
        state = PeelState.for_graph(b)
        assert list(sc.peel(b, state)) == []

    def test_cap_by_part(self):
        b = sc.infer_parts(sc.named("p5"))
        state = PeelState.for_graph(b)
        assert state.cap == [1 if p == sc.PART_A else 2 for p in b.part_of]


class TestGreedyUnwind:
    def test_path_smallest_colors(self):
        b = sc.infer_parts(sc.named("p5"))
        L = sc.uniform_lists(range(4), 6)
        peeled = list(sc.peel(b, PeelState.for_graph(b)))
        pc = sc.greedy_unwind(peeled, [], L, b, SolveStats())
        assert_valid_strong(b, L, pc)
        assert min(pc.assigned.values()) == 1

    def test_subdivided_star(self):
        b = sc.subdivide(sc.named("star")).bipartite
        L = sc.uniform_lists(range(b.graph.edge_count), 6)
        peeled = list(sc.peel(b, PeelState.for_graph(b)))
        pc = sc.greedy_unwind(peeled, [], L, b, SolveStats())
        assert_valid_strong(b, L, pc)

    def test_exhausted_list_raises(self):
        b = sc.infer_parts(sc.named("p5"))
        peeled = list(sc.peel(b, PeelState.for_graph(b)))
        L = dict.fromkeys(range(4), frozenset({1}))
        with pytest.raises(sc.InternalInvariant, match="has no available color at unwind"):
            sc.greedy_unwind(peeled, [], L, b, SolveStats())

    def test_a_rule_edges_keep_two_colors(self):
        # an edge deferred at an A-endpoint of degree <= 1 has at most 4
        # conflicts in its residue, so 6-lists keep at least 2 colors
        rng = SplitMix64(77)
        for trial in range(60):
            b = rand_b23(4 + rng.below(10), 3 + rng.below(8), rng.next_u64())
            m = b.graph.edge_count
            if m == 0:
                continue
            L = sc.uniform_lists(range(m), 6)
            state = PeelState.for_graph(b)
            it = sc.peel(b, state)
            peeled = []
            rules = {}
            while True:
                qualifying = [
                    v
                    for v in range(b.graph.vertex_count)
                    if state.deg[v] >= 1
                    and state.deg[v] <= (1 if b.part_of[v] == "A" else 2)
                ]
                e = next(it, None)
                if e is None:
                    break
                peeled.append(e)
                rules[e] = b.part_of[min(qualifying)]
            pc = PartialColoring()
            for e in reversed(peeled):
                avail = sc.available(e, L, pc, b)
                if rules[e] == "A":
                    assert len(avail) >= 2
                else:
                    assert len(avail) >= 1
                pc.set(e, min(avail))
            assert_valid_strong(b, L, pc, total=(len(pc.assigned) == m))


class TestAssignShared:
    # p5 is 0-1-2-3-4; its end edges 0 and 3 do not conflict
    @staticmethod
    def region(first, last):
        b = sc.infer_parts(sc.named("p5"))
        L = {0: frozenset(first), 1: frozenset(range(1, 8)), 2: frozenset(range(1, 8)),
             3: frozenset(last)}
        return solver._Region(L, PartialColoring(), b, range(4))

    def test_smallest_common_color_to_both(self):
        region = self.region({2, 4, 6, 7}, {3, 4, 6, 7})
        assert region.assign_shared(0, 3) is True
        assert region.pc.assigned == {0: 4, 3: 4}
        assert region.avail == {1: set(range(1, 8)) - {4}, 2: set(range(1, 8)) - {4}}

    def test_disjoint_lists_assign_nothing(self):
        region = self.region({1, 2, 3}, {4, 5, 6})
        before = {e: set(cs) for e, cs in region.avail.items()}
        assert region.assign_shared(0, 3) is False
        assert region.pc.assigned == {}
        assert region.avail == before


def _c6_lists(b, by_role):
    """Build a ListAssignment for the c6 gadget keyed by role names.

    The cycle is u-v-w-x-y-z, with pendants up, wp and yp at u, w and y.
    The opposite pairs are (zu, wx), (uv, xy) and (vw, yz).
    """
    edge_of = {
        "zu": 0, "uv": 1, "vw": 2, "wx": 3, "xy": 4, "yz": 5,
        "up": 6, "wp": 7, "yp": 8,
    }
    return ListAssignment({edge_of[r]: frozenset(cs) for r, cs in by_role.items()})


class TestExtendC4:
    def setup_method(self):
        self.b = c4_gadget()
        self.cycle = sc.shortest_cycle(self.b)
        # gadget edge ids: cycle edges 0..3, pendant edges 4 (at v=1), 5 (at x=3)
        self.pend = sorted(eid for _, eid in self.cycle.pendant.values())
        self.cyc = list(self.cycle.edges)

    def run(self, L):
        pc = PartialColoring()
        stats = SolveStats()
        sc.extend_c4(L, pc, self.cycle, self.b, stats)
        assert_valid_strong(self.b, L, pc)
        assert len(pc.assigned) == 6
        return pc, stats

    def test_shared_pendant_color_then_greedy(self):
        lists = {e: {1, 2, 3, 4, 5} for e in self.cyc}
        lists.update({e: {1, 2, 3} for e in self.pend})
        pc, stats = self.run(ListAssignment(lists))
        assert pc.assigned.get(self.pend[0]) == pc.assigned.get(self.pend[1])
        assert stats.c4_extensions == 1

    def test_disjoint_pendants_rainbow(self):
        lists = {e: {1, 2, 3, 4, 5} for e in self.cyc}
        lists[self.pend[0]] = {1, 2, 3}
        lists[self.pend[1]] = {4, 5, 6}
        pc, stats = self.run(ListAssignment(lists))
        assert len(set(pc.assigned.values())) == 6
        assert stats.sdr_calls == 1

    def test_random_exact_entry_sizes(self):
        rng = SplitMix64(9)
        for trial in range(300):
            palette = 6 + rng.below(7)
            lists = {e: set(rng.subset(5, palette)) for e in self.cyc}
            lists.update({e: set(rng.subset(3, palette)) for e in self.pend})
            self.run(ListAssignment(lists))


class TestExtendC4Coincident:
    def test_k23_component_rainbow(self, k23):
        cycle = sc.shortest_cycle(k23)
        L = sc.uniform_lists(range(6), 6)
        pc = PartialColoring()
        stats = SolveStats()
        sc.extend_c4(L, pc, cycle, k23, stats)
        assert_valid_strong(k23, L, pc, total=True)
        assert sorted(pc.assigned.values()) == [1, 2, 3, 4, 5, 6]
        assert stats.k23_base_cases == 1 and stats.c4_extensions == 0


class TestExtendC6:
    def setup_method(self):
        self.b = c6_gadget()
        self.cycle = sc.shortest_cycle(self.b)

    def run(self, by_role):
        L = _c6_lists(self.b, by_role)
        pc = PartialColoring()
        stats = SolveStats()
        sc.extend_c6(L, pc, self.cycle, self.b, stats)
        assert_valid_strong(self.b, L, pc)
        assert len(pc.assigned) == 9
        assert stats.c6_extensions == 1
        return pc, stats

    def test_hall_corner_colors_without_search(self):
        # a shared color on (uv, xy) first leaves the other seven edges
        # with no rainbow choice; pendant color 0 and three shared pairs
        # need none
        by_role = {
            "uv": {0, 7, 8, 9, 10},
            "xy": {0, 7, 8, 9, 10},
            "vw": {0, 1, 2, 3, 4},
            "wx": {0, 3, 4, 5, 6},
            "yz": {0, 1, 2, 5, 6},
            "zu": {0, 1, 2, 5, 6},
            "up": {0, 1, 2},
            "wp": {0, 3, 4},
            "yp": {0, 5, 6},
        }
        pc, stats = self.run(by_role)
        assert pc.assigned == {0: 5, 1: 7, 2: 1, 3: 5, 4: 7, 5: 1, 6: 0, 7: 0, 8: 0}
        assert stats.sdr_calls == 0

    def test_prefix_lists_extend_validly(self):
        by_role = {r: {1, 2, 3, 4, 5} for r in ("uv", "vw", "wx", "xy", "yz", "zu")}
        by_role.update({r: {1, 2, 3} for r in ("up", "wp", "yp")})
        self.run(by_role)

    @pytest.mark.parametrize("left", [0, 1, 2, 3])
    def test_pairs_left_for_the_rainbow_step(self, left):
        # the pendants take 1, 2, 3, which leaves every cycle edge exactly
        # three colors: {4, 5, 6}, or {7, 8, 9} on the last ``left`` of
        # wx, xy, yz.  Each of those makes its opposite pair disjoint.
        by_role = {
            "up": {1, 10, 11},
            "wp": {2, 12, 13},
            "yp": {3, 14, 15},
            "zu": {1, 3, 4, 5, 6},
            "uv": {1, 2, 4, 5, 6},
            "vw": {1, 2, 4, 5, 6},
            "wx": {2, 3, 4, 5, 6},
            "xy": {2, 3, 4, 5, 6},
            "yz": {1, 3, 4, 5, 6},
        }
        for role in ("wx", "xy", "yz")[3 - left :]:
            by_role[role] = by_role[role] - {4, 5, 6} | {7, 8, 9}
        pc, stats = self.run(by_role)
        assert [pc.assigned.get(e) for e in (6, 7, 8)] == [1, 2, 3]
        shared = [pc.assigned.get(i) == pc.assigned.get(i + 3) for i in range(3)]
        assert shared == [True] * (3 - left) + [False] * left
        assert stats.sdr_calls == (1 if left else 0)

    def test_nine_list_colors_without_search(self):
        by_role = {
            "uv": {1, 2, 3, 4, 5},
            "vw": {1, 2, 3, 4, 5},
            "wx": {1, 2, 3, 4, 5},
            "xy": {6, 7, 8, 9, 10},
            "yz": {6, 7, 8, 9, 10},
            "zu": {6, 7, 8, 9, 10},
            "up": {1, 2, 3},
            "wp": {1, 2, 3},
            "yp": {1, 2, 4},
        }
        pc, stats = self.run(by_role)
        assert pc.assigned == {0: 8, 1: 4, 2: 3, 3: 2, 4: 7, 5: 6, 6: 1, 7: 1, 8: 1}
        assert stats.sdr_calls == 1

    def test_random_exact_entry_sizes(self):
        rng = SplitMix64(6)
        for trial in range(300):
            palette = 5 + rng.below(8)
            by_role = {r: set(rng.subset(5, palette)) for r in ("uv", "vw", "wx", "xy", "yz", "zu")}
            by_role.update({r: set(rng.subset(3, palette)) for r in ("up", "wp", "yp")})
            self.run(by_role)


class TestExtendLongCycle:
    @pytest.mark.parametrize("n", [8, 10, 12, 16])
    def test_exact_entry_sizes(self, n):
        b = cycle_gadget(n)
        cycle = sc.shortest_cycle(b)
        sizes = {e: 5 for e in cycle.edges}
        for _, eid in cycle.pendant.values():
            sizes[eid] = 3
        rng = SplitMix64(n)
        for trial in range(200):
            palette = 6 + rng.below(7)
            L = ListAssignment({e: frozenset(rng.subset(k, palette)) for e, k in sizes.items()})
            pc = PartialColoring()
            stats = SolveStats()
            sc.extend_long_cycle(L, pc, cycle, b, stats)
            assert_valid_strong(b, L, pc, total=True)

    def test_rejects_short_cycle(self):
        b = c6_gadget()
        cycle = sc.shortest_cycle(b)
        L = sc.uniform_lists(range(9), 6)
        with pytest.raises(sc.InternalInvariant):
            sc.extend_long_cycle(L, PartialColoring(), cycle, b, SolveStats())


class TestColorStrong23:
    def test_k23_uses_six_distinct(self, k23):
        L = sc.uniform_lists(range(6), 6)
        pc, stats = sc.color_strong_23(k23, L)
        assert_valid_strong(k23, L, pc, total=True)
        assert sorted(pc.assigned.values()) == [1, 2, 3, 4, 5, 6]
        assert stats.k23_base_cases == 1

    def test_edgeless(self):
        b = sc.BipartiteGraph(sc.build_multigraph(3, []), ["A", "B", "A"])
        pc, _ = sc.color_strong_23(b, ListAssignment({}))
        assert pc.assigned == {}

    def test_petersen_subdivision_random_lists_oracle_feasible(self):
        b = sc.subdivide(sc.named("petersen")).bipartite
        L = sc.random_lists(range(b.graph.edge_count), 6, 12, 2024)
        pc, stats = sc.color_strong_23(b, L)
        assert_valid_strong(b, L, pc, total=True)
        assert stats.long_cycle_extensions >= 1
        oracle = sc.backtrack_color(b, L, sc.OracleBudget(max_edges=30, max_nodes=10**7))
        assert oracle is not None

    def test_list_too_small(self, k23):
        with pytest.raises(sc.ListTooSmall):
            sc.color_strong_23(k23, sc.uniform_lists(range(6), 5))

    def test_not_two_three(self):
        star = sc.build_multigraph(4, [(0, 1), (0, 2), (0, 3)])
        b = sc.BipartiteGraph(star, ["A", "B", "B", "B"])
        with pytest.raises(sc.NotTwoThree):
            sc.color_strong_23(b, sc.uniform_lists(range(3), 6))

    def test_multiple_components(self):
        # two disjoint copies of K_{2,3}
        pairs = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
        shifted = [(u + 5, v + 5) for u, v in pairs]
        g = sc.build_multigraph(10, pairs + shifted)
        b = sc.BipartiteGraph(g, ["A"] * 3 + ["B"] * 2 + ["A"] * 3 + ["B"] * 2)
        L = sc.uniform_lists(range(12), 6)
        pc, stats = sc.color_strong_23(b, L)
        assert_valid_strong(b, L, pc, total=True)
        assert stats.k23_base_cases == 2

    def test_deterministic_coloring_and_stats(self):
        b = sc.subdivide(sc.named("heawood")).bipartite
        L = sc.random_lists(range(b.graph.edge_count), 6, 12, 5)
        first = sc.color_strong_23(b, L)
        second = sc.color_strong_23(b, L)
        assert first[0].assigned == second[0].assigned
        assert first[1].as_dict() == second[1].as_dict()

    def test_every_color_from_own_list(self):
        rng = SplitMix64(88)
        for trial in range(50):
            b = rand_b23(3 + rng.below(12), 3 + rng.below(9), rng.next_u64())
            L = sc.random_lists(range(b.graph.edge_count), 6, 6 + rng.below(8), rng.next_u64())
            pc, _ = sc.color_strong_23(b, L)
            for e, c in pc.assigned.items():
                assert c in L[e]


class TestOneCarvePerBiregularComponent:
    @staticmethod
    def union_draw(rng):
        """Subdivided cubic and GP(n, k) pieces, random (2,3)-bipartite
        pieces and isolated vertices, side by side."""
        parts = []
        for _ in range(1 + rng.below(6)):
            kind = rng.below(4)
            if kind == 0:
                g = sc.random_cubic(4 + 2 * rng.below(8), rng.next_u64())
                parts.append(sc.subdivide(g).bipartite)
            elif kind == 1:
                n = 5 + rng.below(10)
                g = _generalized_petersen(n, 1 + rng.below(n // 2 - 1))
                parts.append(sc.subdivide(g).bipartite)
            elif kind == 2:
                parts.append(rand_b23(1 + rng.below(12), 1 + rng.below(9), rng.next_u64()))
            else:
                k = 1 + rng.below(3)
                parts.append(sc.BipartiteGraph(sc.build_multigraph(k, []), ["A", "B", "A"][:k]))
        return disjoint_union(parts)

    def test_one_carve_each(self, monkeypatch):
        carves = []
        carve = solver._carve_cycle

        def counted(*args):
            carves.append(args)
            return carve(*args)

        def forbidden(*args):
            raise AssertionError("the solve called a whole-graph pass")

        monkeypatch.setattr(solver, "_carve_cycle", counted)
        # rebind every alias, as a module may have imported the names
        for name in ("_residual_shortest_cycle", "components"):
            original = getattr(sc.graph, name)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "strongcolor" or mod_name.startswith("strongcolor."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, forbidden)
        rng = SplitMix64(20261018)
        biregular_total = peeled_components = 0
        for _ in range(150):
            b = self.union_draw(rng)
            g = b.graph
            biregular = peeled = 0
            for comp in components(g):
                if not g.inc[comp[0]]:
                    continue
                full = all(g.degree(v) == (2 if b.part(v) == "A" else 3) for v in comp)
                biregular += full
                peeled += not full
            L = sc.random_lists(range(g.edge_count), 6, 8, rng.next_u64())
            carves.clear()
            _, stats = sc.color_strong_23(b, L)
            extensions = (stats.c4_extensions + stats.c6_extensions
                          + stats.long_cycle_extensions + stats.k23_base_cases)
            assert len(carves) == extensions == biregular
            assert [s for _, s in carves] == sorted(s for _, s in carves)
            biregular_total += biregular
            peeled_components += peeled
        assert biregular_total > 150 and peeled_components > 50
        g = sc.random_cubic(40, 3)
        carves.clear()
        sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        assert len(carves) >= 1


class TestColorIncidence:
    def test_k4_at_most_six(self):
        g = sc.named("k4")
        coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        assert sc.verify_incidence(g, coloring, require_total=True) == []
        assert len(set(coloring.values())) <= 6

    def test_double_edge_multigraph(self):
        g = sc.named("double-edge")
        coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        assert sc.verify_incidence(g, coloring, require_total=True) == []

    def test_c5_valid_and_oracle_minimum(self):
        g = sc.build_multigraph(5, [(i, (i + 1) % 5) for i in range(5)])
        coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        assert sc.verify_incidence(g, coloring, require_total=True) == []
        assert sc.incidence_chromatic_number(g) == 4

    def test_degree_cap(self):
        k5 = sc.build_multigraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        with pytest.raises(sc.DegreeTooHigh):
            sc.color_incidence(k5, sc.uniform_incidence_lists(k5, 6))

    def test_small_lists_rejected(self):
        g = sc.named("k4")
        with pytest.raises(sc.ListTooSmall):
            sc.color_incidence(g, sc.uniform_incidence_lists(g, 5))

    def test_random_cubic_transport(self):
        rng = SplitMix64(55)
        for trial in range(30):
            g = sc.random_cubic(4 + 2 * rng.below(10), rng.next_u64())
            lists = {
                inc: frozenset(rng.subset(6, 6 + rng.below(7))) for inc in g.incidences()
            }
            coloring, _ = sc.color_incidence(g, lists)
            assert sc.verify_incidence(g, coloring, lists, require_total=True) == []


class TestPathCoverage:
    def test_fixture_battery_drives_all_counters(self):
        total = SolveStats()
        for name in ("tree", "p4", "p5", "k23", "triple-edge", "domino", "k4", "petersen", "heawood"):
            fixture = sc.named(name)
            if isinstance(fixture, sc.BipartiteGraph):
                b = fixture
            else:
                b = sc.subdivide(fixture).bipartite
            L = sc.uniform_lists(range(b.graph.edge_count), 6)
            _, stats = sc.color_strong_23(b, L)
            total.merge(stats)
        assert total.peeled_edges >= 1
        assert total.k23_base_cases >= 1
        assert total.c4_extensions >= 1
        assert total.c6_extensions >= 1
        assert total.long_cycle_extensions >= 1


def test_solver_cannot_reach_the_search():
    """No code path in the solver can call the oracle's exhaustive search."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(solver))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not any(name.rsplit(".", 1)[-1] == "oracle" for name in imported), imported
    assert "exhaustive_search" not in vars(solver)
    assert all(v is not oracle and v is not oracle.exhaustive_search for v in vars(solver).values())
