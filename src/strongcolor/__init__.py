"""Strong list edge-coloring of (2,3)-bipartite graphs with 6-lists and
incidence coloring of loopless subcubic multigraphs with 6 colors.

The package root exports the supported API: the two solvers and their
verifiers, the graph and list types, the path procedures, the oracle, the
generators and the errors.  Internals are imported from their modules.
"""

from .conflict import (
    ListAssignment,
    PartialColoring,
    Violation,
    uniform_lists,
    verify_incidence,
    verify_strong,
)
from .errors import (
    BadColor,
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
    Incidence,
    Multigraph,
    SubdivisionMap,
    build_multigraph,
    infer_parts,
    subdivide,
)
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
    SolveStats,
    color_incidence,
    color_odd_path,
    color_strong_23,
    precolor_five_path,
    uniform_incidence_lists,
)

__version__ = "0.1.0"
