"""Cross-module invariants, driven by the seeded generators via hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

import strongcolor as sc
from strongcolor import ListAssignment, PartialColoring, PeelState, solver
from strongcolor.generate import SplitMix64

from conftest import rand_b23
from test_golden import _generalized_petersen

seeds = st.integers(min_value=0, max_value=2**63)


def random_subcubic(n: int, tries: int, seed: int) -> sc.Multigraph:
    """Loopless multigraph with maximum degree <= 3 grown by random pair draws."""
    rng = SplitMix64(seed)
    deg = [0] * n
    pairs = []
    for _ in range(tries):
        u, v = rng.below(n), rng.below(n)
        if u != v and deg[u] < 3 and deg[v] < 3:
            deg[u] += 1
            deg[v] += 1
            pairs.append((u, v))
    return sc.build_multigraph(n, pairs)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=20))
def test_subdivision_of_subcubic_validates(seed, n, tries):
    g = random_subcubic(n, tries, seed)
    sub = sc.subdivide(g)
    sub.bipartite.validate_23()
    assert sub.bipartite.graph.vertex_count == g.vertex_count + g.edge_count
    assert sub.bipartite.graph.edge_count == 2 * g.edge_count


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=9))
def test_conflict_symmetry_and_bound(seed, na, nb):
    b = rand_b23(na, nb, seed)
    cg = sc.build_conflict_graph(b)
    for e in range(b.graph.edge_count):
        assert len(cg[e]) <= 7
        assert e not in cg[e]
        for f in cg[e]:
            assert e in cg[f]


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=10))
def test_rainbow_merge_is_always_valid(seed, na):
    # any rainbow choice over current available lists extends a valid
    # partial coloring, whatever the conflict structure among the items
    b = rand_b23(na, na, seed)
    m = b.graph.edge_count
    if m == 0:
        return
    rng = SplitMix64(seed ^ 0xABCDEF)
    L = sc.random_lists(range(m), 6, 12, rng.next_u64())
    pc = PartialColoring()
    precolored = [e for e in range(m) if rng.below(2) == 0]
    for e in precolored:
        avail = sc.available(e, L, pc, b)
        if avail:
            pc.set(e, min(avail))
    rest = [e for e in range(m) if e not in pc.assigned]
    chosen = sc.rainbow_sdr(rest, {e: sc.available(e, L, pc, b) for e in rest})
    if chosen is None:
        return
    for e, c in chosen.items():
        pc.set(e, c)
    assert sc.verify_strong(b, L, pc, require_total=True) == []


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=18))
def test_solver_end_to_end(seed, na, nb):
    b = rand_b23(na, nb, seed)
    m = b.graph.edge_count
    L = sc.random_lists(range(m), 6, 6 + seed % 8, seed ^ 0x5EED)
    pc, stats = sc.color_strong_23(b, L)
    assert sc.verify_strong(b, L, pc, require_total=True) == []
    for e, c in pc.assigned.items():
        assert c in L[e]
    again, stats2 = sc.color_strong_23(b, L)
    assert again.assigned == pc.assigned and stats2.as_dict() == stats.as_dict()


def _peel_to_the_end(b, state) -> None:
    for _ in sc.peel(b, state):
        pass


def _full_degree(b, v) -> bool:
    return b.graph.degree(v) == (2 if b.part(v) == sc.PART_A else 3)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=15), st.booleans())
def test_one_removed_edge_peels_its_biregular_component(seed, n, petersen):
    # the cascade lemma of the solver's module docstring
    rng = SplitMix64(seed)
    if petersen:
        g = _generalized_petersen(n + 3, 1 + rng.below((n + 3) // 2 - 1))
    else:
        g = sc.random_cubic(2 * n, rng.next_u64())  # may be disconnected
    b = sc.subdivide(g).bipartite
    state = PeelState.for_graph(b)
    assert state.heap == []  # biregular: nothing qualifies
    removed = rng.below(b.graph.edge_count)
    solver._remove_edge(b, state, removed)
    _peel_to_the_end(b, state)
    hit = next(set(c) for c in sc.components(b.graph) if b.graph.edges[removed][0] in c)
    for e, (u, _) in enumerate(b.graph.edges):
        assert state.alive[e] == (u not in hit)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=18))
def test_a_component_below_full_degree_peels_without_a_removal(seed, na, nb):
    b = rand_b23(na, nb, seed)
    state = PeelState.for_graph(b)
    _peel_to_the_end(b, state)
    g = b.graph
    for comp in sc.components(g):
        biregular = all(_full_degree(b, v) for v in comp)
        for v in comp:
            assert all(state.alive[e] == biregular for e in g.inc[v])


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=15))
def test_truncation_monotonicity(seed, na):
    # a coloring found from lists truncated to their 6 smallest colors is
    # valid for the original, larger lists
    b = rand_b23(na, na, seed)
    m = b.graph.edge_count
    big = sc.random_lists(range(m), 9, 15, seed ^ 0x7777)
    truncated = ListAssignment({e: frozenset(sorted(big[e])[:6]) for e in range(m)})
    pc, _ = sc.color_strong_23(b, truncated)
    assert sc.verify_strong(b, big, pc, require_total=True) == []


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=16))
def test_incidence_transport(seed, n, tries):
    g = random_subcubic(n, tries, seed)
    coloring, _ = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
    assert sc.verify_incidence(g, coloring, require_total=True) == []
    assert len(set(coloring.values())) <= 6


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=6))
def test_generator_outputs_validate(seed, na, nb):
    b = rand_b23(na, nb, seed)
    b.validate_23()
    for eid, (u, v) in enumerate(b.graph.edges):
        assert b.part(u) != b.part(v)
