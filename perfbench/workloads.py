"""The benchmark's workloads: inputs made from a seed, the two timed
operations (``color`` and ``verify``), and a correctness check of each
coloring that shares no code with the package.

Every workload holds a fixed pool of instances and cycles through it.  The
first time an instance is colored, ``check`` validates the coloring from
first principles and returns its canonical text; later colorings of the
same instance must equal that first output exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Tuple


class OpFailed(Exception):
    """An operation returned a failure (a non-zero exit code)."""


def generalized_petersen(sc, n: int, k: int):
    """GP(n, k): outer cycle, spokes and inner step-k cycle, via ``build_multigraph``."""
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return sc.build_multigraph(2 * n, outer + spokes + inner)


def strong_conflict_free(vertex_count: int, edges, color) -> bool:
    """True iff no two edges at distance at most one share a color.

    Edge f is strongly adjacent to e = uv exactly when f touches a vertex of
    N[u] | N[v]; ``color`` is indexed by edge position in ``edges``.
    """
    adj = [[] for _ in range(vertex_count)]
    for i, (u, v) in enumerate(edges):
        adj[u].append(i)
        adj[v].append(i)
    for i, (u, v) in enumerate(edges):
        near = set()
        for x in (u, v):
            for j in adj[x]:
                a, b = edges[j]
                near.update(adj[a])
                near.update(adj[b])
        near.discard(i)
        c = color[i]
        if any(color[j] == c for j in near):
            return False
    return True


# -- library workloads: color_strong_23, then verify_strong ------------------


@dataclass
class StrongInstance:
    b: Any  # BipartiteGraph
    lists: Any  # ListAssignment
    items: int  # edges colored


class StrongWorkload:
    """``color`` is ``color_strong_23``; ``verify`` is ``verify_strong(require_total=True)``."""

    def color(self, sc, inst: StrongInstance):
        pc, _ = sc.color_strong_23(inst.b, inst.lists)
        return pc

    def output(self, inst: StrongInstance, pc):
        return pc.assigned

    def verify(self, sc, inst: StrongInstance, pc) -> bool:
        return not sc.verify_strong(inst.b, inst.lists, pc, require_total=True)

    def check(self, inst: StrongInstance, assigned) -> Tuple[bool, str]:
        g = inst.b.graph
        m = g.edge_count
        color = [assigned.get(e) for e in range(m)]
        text = "".join(f"{e} {c}\n" for e, c in enumerate(color))
        ok = (
            len(assigned) == m
            and all(c in inst.lists[e] for e, c in enumerate(color))
            and strong_conflict_free(g.vertex_count, g.edges, color)
        )
        return ok, text


def _subdivided(sc, mg, rng: random.Random, palette: int) -> StrongInstance:
    b = sc.subdivide(mg).bipartite
    m = b.graph.edge_count
    return StrongInstance(b, sc.random_lists(range(m), 6, palette, rng.getrandbits(64)), m)


class StrongGirth(StrongWorkload):
    """One high-girth graph, several list sets: the shortest-cycle scan dominates."""

    name = "strong_girth"
    N, K, LIST_SETS = 1000, 37, 4

    def generate(self, sc, seed: int, workdir: Path):
        rng = random.Random(seed)
        mg = generalized_petersen(sc, self.N, self.K)
        return [_subdivided(sc, mg, rng, 8) for _ in range(self.LIST_SETS)]


class StrongSmall(StrongWorkload):
    """Many small graphs, each carving a cycle: the extension machinery runs often."""

    name = "strong_small"
    POOL = 2000

    def generate(self, sc, seed: int, workdir: Path):
        rng = random.Random(seed)
        pool = []
        for i in range(self.POOL):
            if i % 2 == 0:
                mg = sc.random_cubic(rng.randrange(4, 31, 2), rng.getrandbits(64))
            else:
                mg = generalized_petersen(sc, rng.randint(5, 16), 2)
            pool.append(_subdivided(sc, mg, rng, rng.choice((7, 8))))
        return pool


# -- CLI workload: strongcolor color / verify on files -----------------------


@dataclass
class CliInstance:
    graph_path: str
    out_path: str
    vertex_count: int
    edges: tuple  # original multigraph, for the independent check
    items: int  # incidences colored


class CliIncidence:
    """``strongcolor color --mode incidence`` then ``strongcolor verify``, in process."""

    name = "cli_incidence"
    N, POOL, COLORS = 1000, 20, 6

    def generate(self, sc, seed: int, workdir: Path):
        rng = random.Random(seed)
        pool = []
        for i in range(self.POOL):
            mg = sc.random_cubic(self.N, rng.getrandbits(64))
            graph_path = workdir / f"graph-{i}.json"
            graph_path.write_text(sc.fileio.graph_to_text(mg), encoding="utf-8")
            pool.append(
                CliInstance(
                    str(graph_path),
                    str(workdir / f"coloring-{i}.json"),
                    mg.vertex_count,
                    mg.edges,
                    2 * mg.edge_count,
                )
            )
        return pool

    def color(self, sc, inst: CliInstance) -> int:
        return sc.cli.main(
            ["color", inst.graph_path, "--mode", "incidence",
             "--uniform", str(self.COLORS), "--out", inst.out_path]
        )

    def output(self, inst: CliInstance, rc: int) -> bytes:
        if rc != 0:
            raise OpFailed(f"color exited with {rc}")
        return Path(inst.out_path).read_bytes()

    def verify(self, sc, inst: CliInstance, rc) -> bool:
        return sc.cli.main(["verify", inst.graph_path, inst.out_path]) == 0

    def check(self, inst: CliInstance, raw: bytes) -> Tuple[bool, str]:
        """Exactly 2m incidences, colors in 1..6, adjacent incidences distinct.

        ``strongcolor verify`` does not require a total coloring, so this is
        the only check that catches a truncated output.
        """
        n, edges = inst.vertex_count, inst.edges
        try:
            body = json.loads(raw)["colors"]
            color: list = [None] * inst.items
            for key, c in body.items():
                v, e = (int(x) for x in key.split(":"))
                if not 0 <= e < len(edges):
                    return False, ""
                # incidence (v, e) is edge (v, n + e) of the subdivision
                color[2 * e + edges[e].index(v)] = c
        except (ValueError, KeyError, TypeError, AttributeError):
            return False, ""
        text = "".join(
            f"{edges[i // 2][i % 2]}:{i // 2} {c}\n" for i, c in enumerate(color)
        )
        sub_edges = [(edges[i // 2][i % 2], n + i // 2) for i in range(inst.items)]
        ok = (
            len(body) == inst.items
            and all(type(c) is int and 1 <= c <= self.COLORS for c in color)
            and strong_conflict_free(n + len(edges), sub_edges, color)
        )
        return ok, text


WORKLOADS = {w.name: w for w in (CliIncidence(), StrongGirth(), StrongSmall())}
