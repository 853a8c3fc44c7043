"""The package root exports the supported API and nothing else.

Internals (peel and unwind, the extensions, the conflict relation, the
matching engine, the girth scan) are imported from their modules, so a
rewrite of them does not change what ``import strongcolor`` offers.
"""

import importlib
import inspect
import re
from pathlib import Path

import strongcolor

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    # the two solvers, their verifiers and the path procedures
    "color_strong_23", "color_incidence", "verify_strong", "verify_incidence",
    "SolveStats", "PartialColoring", "Violation",
    "FivePathConfig", "OddPathConfig", "precolor_five_path", "color_odd_path",
    # graphs and lists
    "Multigraph", "BipartiteGraph", "Incidence", "SubdivisionMap", "PART_A", "PART_B",
    "build_multigraph", "infer_parts", "subdivide",
    "ListAssignment", "uniform_lists", "uniform_incidence_lists",
    # the exhaustive oracle
    "OracleBudget", "backtrack_color", "strong_chromatic_index", "incidence_chromatic_number",
    # seeded generators and fixtures
    "SplitMix64", "random_cubic", "random_23_bipartite", "random_lists",
    "generalized_petersen", "disjoint_union", "named", "fixture_names",
    # errors
    "InputError", "BadColor", "BadEdgeId", "BadSize", "BadVertexId", "DegreeTooHigh", "FormatError",
    "ListTooSmall", "LoopEdge", "NotBipartite", "NotTwoThree", "UnknownName",
    "Infeasible", "BudgetExceeded", "InternalInvariant",
}

INTERNAL = {
    "conflict": ("ConflictGraph", "available", "build_conflict_graph", "conflict_edges"),
    "graph": ("CycleDescriptor", "components", "shortest_cycle"),
    "matching": ("max_matching", "rainbow_sdr"),
    "solver": ("PeelState", "peel", "greedy_unwind", "extend_c4", "extend_c6", "extend_long_cycle"),
}


def test_the_root_exports_exactly_the_supported_names():
    exported = {
        name
        for name, value in vars(strongcolor).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(PUBLIC) == 50
    assert exported == PUBLIC


def test_internals_import_from_their_modules():
    missing = [
        f"strongcolor.{module}.{name}"
        for module, names in INTERNAL.items()
        for name in names
        if not hasattr(importlib.import_module(f"strongcolor.{module}"), name)
    ]
    assert missing == []


def test_the_readme_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
