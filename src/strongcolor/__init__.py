"""Strong list edge-coloring of (2,3)-bipartite graphs with 6-lists and
incidence coloring of loopless subcubic multigraphs with 6 colors.

The public surface re-exports the graph types, the conflict relation and
verifiers, the matching engine, the constructive solver, the exhaustive
oracle, and the seeded generators.
"""

from .conflict import (
    ConflictGraph,
    ListAssignment,
    PartialColoring,
    Violation,
    available,
    build_conflict_graph,
    conflict_edges,
    uniform_lists,
    verify_incidence,
    verify_strong,
)
from .errors import (
    BadEdgeId,
    BadSize,
    BadVertexId,
    BudgetExceeded,
    DegreeTooHigh,
    FormatError,
    Infeasible,
    InputError,
    InternalInvariant,
    ListTooSmall,
    LoopEdge,
    NotBipartite,
    NotTwoThree,
    UnknownName,
)
from .graph import (
    PART_A,
    PART_B,
    BipartiteGraph,
    CycleDescriptor,
    Incidence,
    Multigraph,
    SubdivisionMap,
    build_multigraph,
    components,
    infer_parts,
    shortest_cycle,
    subdivide,
)
from .matching import max_matching, rainbow_sdr
from .oracle import (
    OracleBudget,
    backtrack_color,
    incidence_chromatic_number,
    strong_chromatic_index,
)
from .generate import (
    SplitMix64,
    disjoint_union,
    fixture_names,
    generalized_petersen,
    named,
    random_23_bipartite,
    random_cubic,
    random_lists,
)
from .solver import (
    FivePathConfig,
    OddPathConfig,
    PeelState,
    SolveStats,
    color_incidence,
    color_odd_path,
    color_strong_23,
    extend_c4,
    extend_c6,
    extend_long_cycle,
    greedy_unwind,
    peel,
    precolor_five_path,
    uniform_incidence_lists,
)

__version__ = "0.1.0"
