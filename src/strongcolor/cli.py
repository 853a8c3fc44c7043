"""Command-line surface: color, verify, gen, oracle, stress.

Exit codes: 0 success / valid / feasible; 1 precondition violation,
invalid coloring, infeasible instance, or a stress run below 100%;
2 malformed files or arguments; 3 internal invariant failure;
4 oracle budget exceeded.

The oracle budget can be overridden with the environment variables
STRONGCOLOR_ORACLE_MAX_EDGES and STRONGCOLOR_ORACLE_MAX_NODES, each a
positive integer; any other value is a malformed argument (exit 2).
``--uniform K`` allocates the palette {1..K}, so K above
``MAX_UNIFORM_COLORS`` is a malformed argument too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from . import fileio
from .conflict import (
    ListAssignment,
    PartialColoring,
    verify_incidence,
    verify_strong,
)
from .errors import (
    BudgetExceeded,
    FormatError,
    InputError,
    InternalInvariant,
)
from .generate import (
    SplitMix64,
    fixture_names,
    named,
    random_23_bipartite,
    random_cubic,
    random_lists,
)
from .graph import BipartiteGraph, Multigraph, infer_parts, subdivide
from .oracle import OracleBudget, backtrack_color, incidence_chromatic_number, strong_chromatic_index
from .solver import SolveStats, color_incidence, color_strong_23, uniform_incidence_lists

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4

MAX_UNIFORM_COLORS = 1024


def _uniform_colors(text: str) -> int:
    """The K of ``--uniform K``, checked before any palette is built."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"K must be an integer, got {text!r}") from None
    if k > MAX_UNIFORM_COLORS:
        raise argparse.ArgumentTypeError(f"K must be at most {MAX_UNIFORM_COLORS}, got {k}")
    return k


def _oracle_budget() -> OracleBudget:
    try:
        max_edges = int(os.environ.get("STRONGCOLOR_ORACLE_MAX_EDGES", OracleBudget.max_edges))
        max_nodes = int(os.environ.get("STRONGCOLOR_ORACLE_MAX_NODES", OracleBudget.max_nodes))
        return OracleBudget(max_edges=max_edges, max_nodes=max_nodes)
    except ValueError as exc:
        raise FormatError(
            "STRONGCOLOR_ORACLE_MAX_EDGES and STRONGCOLOR_ORACLE_MAX_NODES "
            f"must be positive integers: {exc}"
        ) from exc


def _load_graph(path: str):
    return fileio.graph_from_text(fileio.read_text(path))


def _as_bipartite(g) -> BipartiteGraph:
    return g if isinstance(g, BipartiteGraph) else infer_parts(g)


def _as_multigraph(g) -> Multigraph:
    return g.graph if isinstance(g, BipartiteGraph) else g


def _emit(text: str, out: Optional[str]) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        fileio.write_text(out, text)


def _cmd_color(args) -> int:
    g = _load_graph(args.graph)
    if args.mode == "strong":
        b = _as_bipartite(g)
        if args.uniform is not None:
            L = ListAssignment.uniform(range(b.graph.edge_count), args.uniform)
        else:
            L = fileio.lists_from_text(fileio.read_text(args.lists))
        pc, stats = color_strong_23(b, L)
        _emit(fileio.coloring_to_text(pc.assigned, "strong"), args.out)
    else:
        mg = _as_multigraph(g)
        if args.uniform is not None:
            L = uniform_incidence_lists(mg, args.uniform)
        else:
            L = fileio.lists_from_text(fileio.read_text(args.lists), incidence=True)
        coloring, stats = color_incidence(mg, L)
        _emit(fileio.coloring_to_text(coloring, "incidence"), args.out)
    if args.stats:
        # stderr, so stdout holds the coloring alone even with --out -
        sys.stderr.write(json.dumps(stats.as_dict(), sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    mode, colors = fileio.coloring_from_text(fileio.read_text(args.coloring))
    if mode == "strong":
        b = _as_bipartite(g)
        L = fileio.lists_from_text(fileio.read_text(args.lists)) if args.lists else None
        violations = verify_strong(b, L, PartialColoring(colors), require_total=True)
    else:
        mg = _as_multigraph(g)
        L = (
            fileio.lists_from_text(fileio.read_text(args.lists), incidence=True)
            if args.lists
            else None
        )
        violations = verify_incidence(mg, colors, L, require_total=True)
    for v in violations:
        sys.stdout.write(f"{v}\n")
    return EXIT_OK if not violations else EXIT_INVALID


def _cmd_gen(args) -> int:
    try:
        if args.family == "cubic":
            g = random_cubic(args.n, args.seed)
        elif args.family == "bipartite":
            g = random_23_bipartite(args.na, args.nb, args.seed)
        else:
            g = named(args.family)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    _emit(fileio.graph_to_text(g), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    budget = _oracle_budget()
    if args.min_colors:
        if args.mode == "strong":
            value = strong_chromatic_index(_as_bipartite(g), budget)
        else:
            value = incidence_chromatic_number(_as_multigraph(g), budget)
        sys.stdout.write(f"{value}\n")
        return EXIT_OK
    if args.mode == "strong":
        b = _as_bipartite(g)
        if args.uniform is not None:
            L = ListAssignment.uniform(range(b.graph.edge_count), args.uniform)
        else:
            L = fileio.lists_from_text(fileio.read_text(args.lists))
        coloring = backtrack_color(b, L, budget)
    else:
        mg = _as_multigraph(g)
        sub = subdivide(mg)
        if args.uniform is not None:
            inc_lists = uniform_incidence_lists(mg, args.uniform)
        else:
            inc_lists = fileio.lists_from_text(fileio.read_text(args.lists), incidence=True)
        L = ListAssignment(sub.edge_lists(inc_lists))
        coloring = backtrack_color(sub.bipartite, L, budget)
    if coloring is None:
        sys.stdout.write("infeasible\n")
        return EXIT_INVALID
    sys.stdout.write("feasible\n")
    return EXIT_OK


def _cmd_stress(args) -> int:
    budget = _oracle_budget()  # up front: a bad value is exit 2, not a failed instance
    rng = SplitMix64(args.seed)
    stats = SolveStats()
    ok = 0
    started = time.perf_counter()
    for index in range(args.count):
        graph_seed = rng.next_u64()
        lists_seed = rng.next_u64()
        try:
            if args.family == "cubic":
                n = max(4, args.size + args.size % 2)
                g = random_cubic(n, graph_seed)
                sub = subdivide(g)
                b = sub.bipartite
            else:
                nb = max(2, (2 * args.size) // 3 + 1)
                b = random_23_bipartite(args.size, nb, graph_seed)
            m = b.graph.edge_count
            L = random_lists(range(m), args.k, args.palette, lists_seed)
            _, one = color_strong_23(b, L)  # verifies its own result
            stats.merge(one)
            if m <= 16 and backtrack_color(b, L, budget) is None:
                continue
            ok += 1
        except InputError:
            continue
        except BudgetExceeded:
            ok += 1  # oracle cross-check skipped, solve itself verified
    wall = time.perf_counter() - started
    line = (
        f"instances={args.count} ok={ok} rate={100.0 * ok / max(1, args.count):.1f}% "
        f"peeled={stats.peeled_edges} c4={stats.c4_extensions} c6={stats.c6_extensions} "
        f"long={stats.long_cycle_extensions} k23={stats.k23_base_cases} "
        f"fallback={stats.fallback_uses} sdr={stats.sdr_calls} wall={wall:.2f}s"
    )
    sys.stdout.write(line + "\n")
    return EXIT_OK if ok == args.count else EXIT_INVALID


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="strongcolor",
        description="Strong list edge-coloring of (2,3)-bipartite graphs and "
        "incidence coloring of subcubic multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a graph from lists of size >= 6")
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lists", help="lists file")
    group.add_argument("--uniform", type=_uniform_colors, metavar="K",
                       help=f"identical lists {{1..K}}, K <= {MAX_UNIFORM_COLORS}")
    p.add_argument("--mode", choices=("strong", "incidence"), default="strong")
    p.add_argument("--out", default="-")
    p.add_argument("--stats", action="store_true", help="print solve counters as JSON to stderr")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check that a coloring file is total and valid")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--lists", help="also check list membership")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="write a graph file")
    p.add_argument("family", help="cubic, bipartite, or a fixture: " + ", ".join(fixture_names()))
    p.add_argument("--n", type=int, default=10, help="cubic vertex count")
    p.add_argument("--na", type=int, default=9, help="bipartite |A|")
    p.add_argument("--nb", type=int, default=7, help="bipartite |B|")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="exact feasibility or minimum color count")
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lists")
    group.add_argument("--uniform", type=_uniform_colors, metavar="K")
    group.add_argument("--min-colors", action="store_true")
    p.add_argument("--mode", choices=("strong", "incidence"), default="strong")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("stress", help="generate, solve, and verify seeded instances")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--size", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--palette", type=int, default=12)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--family", choices=("bipartite", "cubic"), default="bipartite")
    p.set_defaults(func=_cmd_stress)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except InternalInvariant as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
