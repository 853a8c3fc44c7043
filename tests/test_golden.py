"""Golden digests: the solver's output and case counters, pinned.

Each corpus is solved end to end; the sha256 of the concatenated
coloring files and the summed ``SolveStats`` must match the values below
exactly.  A refactor that claims "same behaviour" has to leave them
unchanged; a change that alters colorings on purpose must update them
and say why.
"""

import hashlib

import strongcolor as sc
from strongcolor import ListAssignment, PartialColoring, SolveStats, fileio
from strongcolor.generate import SplitMix64

from conftest import five_path_graph, odd_path_graph
from test_acceptance import _criterion3_instances


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for text in chunks:
        h.update(text.encode())
    return h.hexdigest()


def _generalized_petersen(n: int, k: int) -> sc.Multigraph:
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return sc.build_multigraph(2 * n, outer + spokes + inner)


def _extension_corpus(count: int = 1500):
    """Subdivided small cubic graphs with 6-lists from palettes of 6-8.

    Unlike criterion 2, every instance keeps a (2,3)-biregular core, so
    the 4-, 6- and long-cycle extensions, both path procedures and the
    rainbow steps all run on non-uniform lists.
    """
    rng = SplitMix64(20261017)
    for i in range(count):
        if i % 2 == 0:
            mg = sc.random_cubic(4 + 2 * rng.below(14), rng.next_u64())
        else:
            mg = _generalized_petersen(5 + rng.below(12), 2 + rng.below(2))
        b = sc.subdivide(mg).bipartite
        palette = 6 + rng.below(3)
        yield b, sc.random_lists(range(b.graph.edge_count), 6, palette, rng.next_u64())


def test_golden_criterion3_corpus():
    total = SolveStats()
    chunks = []
    for n, seed in _criterion3_instances():
        g = sc.random_cubic(n, seed)
        coloring, stats = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        chunks.append(fileio.coloring_to_text(coloring, "incidence"))
        total.merge(stats)
    assert _digest(chunks) == (
        "55a33037f5ee6f914811a94c70f5e2090cd76dbe8467460b2f964d956e9b7d36"
    )
    assert total.as_dict() == {
        "peeled_edges": 72960,
        "c4_extensions": 68,
        "c6_extensions": 89,
        "long_cycle_extensions": 343,
        "k23_base_cases": 3,
        "sdr_calls": 89,
        "carve_descents": 2,
    }


def test_golden_criterion7_instance():
    g = sc.random_cubic(5000, 424242)
    coloring, stats = sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
    assert _digest([fileio.coloring_to_text(coloring, "incidence")]) == (
        "4c1dbcf8d6cdf0fdef2648310e03bc245e538ddb476286801c9d0ff3a69391c6"
    )
    assert stats.as_dict() == {
        "peeled_edges": 14967,
        "c4_extensions": 0,
        "c6_extensions": 0,
        "long_cycle_extensions": 1,
        "k23_base_cases": 0,
        "sdr_calls": 0,
        "carve_descents": 0,
    }


def test_golden_extension_corpus():
    total = SolveStats()
    chunks = []
    for b, L in _extension_corpus():
        pc, stats = sc.color_strong_23(b, L)
        chunks.append(fileio.coloring_to_text(pc.assigned, "strong"))
        total.merge(stats)
    assert total.c4_extensions >= 1
    assert total.c6_extensions >= 1
    assert total.long_cycle_extensions >= 1
    assert total.sdr_calls >= 1
    assert _digest(chunks) == (
        "4afc33560320f01f69f471d15661e0b0f2151272f949a23559ccf140404b357f"
    )
    assert total.as_dict() == {
        "peeled_edges": 67200,
        "c4_extensions": 238,
        "c6_extensions": 261,
        "long_cycle_extensions": 1000,
        "k23_base_cases": 5,
        "sdr_calls": 477,
        "carve_descents": 8,
    }


def _standalone_lists(rng, sizes):
    """Lists of entry size + 0-2 colors from a palette of 5-13, keyed by standalone edge id."""
    palette = 5 + rng.below(9)
    return ListAssignment(
        {e: frozenset(rng.subset(min(k + rng.below(3), palette), palette))
         for e, k in enumerate(sizes)}
    )


def test_golden_path_procedures():
    """Both path procedures alone: their ordered assignments and rainbow-step counts.

    Standalone edge ids run uv, vw, wx, xy, vz, xt for the five-path, and
    path edges then pendants for the odd path; the entry sizes below are
    written out here rather than read from the solver.
    """
    rng = SplitMix64(20261018)
    chunks = []
    runs = [(five_path_graph(), sc.FivePathConfig.standalone(), sc.precolor_five_path,
             (5, 5, 5, 5, 3, 3), 2000)]
    for n in range(5, 14, 2):
        sizes = (3, 4) + (5,) * (n - 5) + (4, 3) + (2,) + (3,) * ((n - 5) // 2) + (2,)
        runs.append((odd_path_graph(n), sc.OddPathConfig.standalone(n), sc.color_odd_path,
                     sizes, 500))
    for b, cfg, procedure, sizes, count in runs:
        for _ in range(count):
            stats = SolveStats()
            pc = procedure(_standalone_lists(rng, sizes), PartialColoring(), cfg, b, stats)
            chunks.append(repr((list(pc.assigned.items()), stats.sdr_calls)))
    assert _digest(chunks) == (
        "bbe751a9effe3aa9e4da2872d598b85608c5434944ed9813c2a2eefd84ef3de1"
    )
