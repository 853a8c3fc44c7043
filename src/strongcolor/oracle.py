"""Exhaustive backtracking solver for small instances.

Ground truth for feasibility and minimum color counts.  The solver's case
chains share nothing with this search beyond the conflict relation and
never call it, so agreement between the two is a meaningful cross-check.
Running out of budget is reported as :class:`BudgetExceeded`, never as
"infeasible".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .conflict import (
    ListAssignment,
    PartialColoring,
    build_conflict_graph,
    uniform_lists,
    verify_strong,
)
from .errors import BudgetExceeded, InternalInvariant
from .graph import BipartiteGraph, Multigraph, subdivide


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 20
    max_nodes: int = 100_000_000

    def __post_init__(self):
        if self.max_edges <= 0 or self.max_nodes <= 0:
            raise ValueError("budgets must be positive")


def exhaustive_search(edges: Sequence[int], avail, cg, max_nodes: int) -> Optional[Dict[int, int]]:
    """Color ``edges`` from ``avail[e]`` with no conflict among them, or None iff impossible.

    Branches on the most-constrained edge (ties to the lowest id) and tries
    its colors in ``avail`` order; colors of edges outside ``edges`` must
    already be missing from ``avail``.  Raises :class:`BudgetExceeded`
    past ``max_nodes`` search nodes.
    """
    chosen: Dict[int, int] = {}
    nodes = 0

    def options(e: int):
        blocked = {chosen[f] for f in cg[e] if f in chosen}
        return [c for c in avail[e] if c not in blocked]

    def dfs() -> bool:
        nonlocal nodes
        if len(chosen) == len(edges):
            return True
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(f"oracle search exceeded {max_nodes} nodes")
        count, e, opts = min(
            (len(o), e, o) for e, o in ((e, options(e)) for e in edges if e not in chosen)
        )
        if count == 0:
            return False
        for c in opts:
            chosen[e] = c
            if dfs():
                return True
            del chosen[e]
        return False

    return chosen if dfs() else None


def backtrack_color(
    b: BipartiteGraph, L: ListAssignment, budget: Optional[OracleBudget] = None
) -> Optional[Dict[int, int]]:
    """A valid total strong list coloring, or None iff none exists.

    Most-constrained-edge-first ordering with forward pruning; exact
    within the budget.
    """
    budget = budget or OracleBudget()
    m = b.graph.edge_count
    if m > budget.max_edges:
        raise BudgetExceeded(f"{m} edges exceed the oracle edge budget {budget.max_edges}")
    cg = build_conflict_graph(b)
    avail = [sorted(L.get(e, ())) for e in range(m)]
    chosen = exhaustive_search(range(m), avail, cg, budget.max_nodes)
    if chosen is None:
        return None
    bad = verify_strong(b, L, PartialColoring(chosen), require_total=True)
    if bad:
        raise InternalInvariant(f"oracle produced an invalid coloring: {bad[:3]}")
    return chosen


def _greedy_clique_lower_bound(b: BipartiteGraph) -> int:
    """Size of a greedily grown clique in the conflict graph.

    Any pairwise-conflicting edge set needs that many distinct colors, so
    this is a valid lower bound for the minimum color count.
    """
    cg = build_conflict_graph(b)
    m = b.graph.edge_count
    if m == 0:
        return 0
    best = 1
    by_degree = sorted(range(m), key=lambda e: (-len(cg[e]), e))
    for seed in by_degree[: min(m, 8)]:
        clique = [seed]
        for f in sorted(cg[seed], key=lambda f: (-len(cg[f]), f)):
            if all(f in cg[c] for c in clique):
                clique.append(f)
        best = max(best, len(clique))
    return best


def strong_chromatic_index(b: BipartiteGraph, budget: Optional[OracleBudget] = None) -> int:
    """Least k such that identical lists {1..k} admit a strong edge-coloring."""
    budget = budget or OracleBudget()
    m = b.graph.edge_count
    if m == 0:
        return 0
    k = _greedy_clique_lower_bound(b)
    while True:
        L = uniform_lists(range(m), k)
        if backtrack_color(b, L, budget) is not None:
            return k
        k += 1


def incidence_chromatic_number(g: Multigraph, budget: Optional[OracleBudget] = None) -> int:
    """Least color count of an incidence coloring, via the subdivision transport."""
    return strong_chromatic_index(subdivide(g).bipartite, budget)
