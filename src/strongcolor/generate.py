"""Deterministic seeded generators and the named fixture catalog.

The PRNG is pinned bit-exactly so corpora reproduce across runs, platforms
and reimplementations: splitmix64 with the usual constants

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z XOR z>>30) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR z>>27) * 0x94D049BB133111EB mod 2^64
    output <- z XOR z>>31

Bounded draws are ``next_u64() % n`` (documented modulo reduction);
shuffles are Fisher-Yates from the top index down; k-subsets are the
first k slots of a partial Fisher-Yates over the palette, sorted.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

from .conflict import ListAssignment
from .errors import BadSize, Infeasible, InternalInvariant, UnknownName
from .graph import PART_A, PART_B, BipartiteGraph, Multigraph, build_multigraph

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The pinned 64-bit generator; same seed, same stream, everywhere."""

    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * self._MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * self._MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise BadSize(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def subset(self, k: int, palette: int) -> Tuple[int, ...]:
        """A uniform k-subset of {0..palette-1}, returned sorted."""
        if not 0 <= k <= palette:
            raise BadSize(f"cannot draw {k} distinct colors from a palette of {palette}")
        pool = list(range(palette))
        for i in range(k):
            j = i + self.below(palette - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))


def random_cubic(n: int, seed: int) -> Multigraph:
    """Configuration-model cubic multigraph: pair 3n half-edges uniformly,
    resample whole pairings containing a loop, keep parallel edges."""
    if n < 4 or n % 2 != 0:
        raise BadSize(f"cubic graphs need an even vertex count >= 4, got {n}")
    rng = SplitMix64(seed)
    for _ in range(1000):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[0::2], stubs[1::2]))
        if any(u == v for u, v in pairs):
            continue
        return build_multigraph(n, pairs)
    raise InternalInvariant("loop-free pairing not found in 1000 attempts")


def random_23_bipartite(nA: int, nB: int, seed: int) -> BipartiteGraph:
    """Random simple bipartite graph with Δ(A) <= 2 and Δ(B) <= 3.

    A-degrees are drawn uniformly from {0,1,2}; the A-stubs are matched
    into shuffled B-slots (3 per B-vertex).  Draws that collide into a
    parallel edge are resampled wholesale.  Requests whose maximum stub
    count exceeds the B capacity (2 nA > 3 nB) are rejected.
    """
    if nA < 0 or nB < 0:
        raise BadSize("part sizes must be non-negative")
    if 2 * nA > 3 * nB and nA > 0:
        raise Infeasible(f"2*{nA} A-stubs cannot fit into 3*{nB} B-slots")
    rng = SplitMix64(seed)
    for _ in range(1000):
        degs = [rng.below(3) for _ in range(nA)]
        slots = [nA + b for b in range(nB) for _ in range(3)]
        rng.shuffle(slots)
        pairs = []
        for a in range(nA):
            for _ in range(degs[a]):
                pairs.append((a, slots[len(pairs)]))
        if len(set(pairs)) != len(pairs):
            continue
        g = build_multigraph(nA + nB, pairs)
        return BipartiteGraph(g, [PART_A] * nA + [PART_B] * nB).validate_23()
    raise Infeasible(f"no collision-free draw for nA={nA}, nB={nB}")


def random_lists(edge_ids: Iterable[int], k: int, palette: int, seed: int) -> ListAssignment:
    """Independent uniform k-subsets of {0..palette-1}, one per edge.

    Equal draws share one frozenset, so the lists take memory per distinct
    subset (at most 28 for 6 of 8 colors), not per edge.  Each is copied
    from a set, which CPython sizes at twice its length rather than the
    four times of a frozenset grown element by element.
    """
    if k > palette:
        raise BadSize(f"list size {k} exceeds palette {palette}")
    rng = SplitMix64(seed)
    shared: dict = {}  # each drawn subset, a sorted tuple -> its one frozenset
    lists = {}
    for e in sorted(edge_ids):
        draw = rng.subset(k, palette)
        lst = shared.get(draw)
        if lst is None:
            lst = shared[draw] = frozenset(set(draw))
        lists[e] = lst
    return lists


def _k23() -> BipartiteGraph:
    g = build_multigraph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    return BipartiteGraph(g, [PART_A, PART_A, PART_A, PART_B, PART_B])


def _petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_multigraph(10, outer + spokes + inner)


def _heawood() -> Multigraph:
    rim = [(i, (i + 1) % 14) for i in range(14)]
    chords = [(0, 5), (2, 7), (4, 9), (6, 11), (8, 13), (10, 1), (12, 3)]
    return build_multigraph(14, rim + chords)


_FIXTURES = {
    # tightness witness for the 6-color bound
    "k23": _k23,
    "k4": lambda: build_multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "double-edge": lambda: build_multigraph(2, [(0, 1), (0, 1)]),
    "triple-edge": lambda: build_multigraph(2, [(0, 1), (0, 1), (0, 1)]),
    # cubic multigraph whose subdivision is (2,3)-biregular with girth 4
    # and distinct pendants around the short cycles
    "domino": lambda: build_multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)]),
    "petersen": _petersen,
    "heawood": _heawood,
    "p4": lambda: build_multigraph(4, [(0, 1), (1, 2), (2, 3)]),
    "p5": lambda: build_multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "c6": lambda: build_multigraph(6, [(i, (i + 1) % 6) for i in range(6)]),
    "c8": lambda: build_multigraph(8, [(i, (i + 1) % 8) for i in range(8)]),
    "star": lambda: build_multigraph(4, [(0, 1), (0, 2), (0, 3)]),
    "tree": lambda: build_multigraph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
}


def named(name: str) -> Union[Multigraph, BipartiteGraph]:
    """Canonical fixtures by name; see ``fixture_names`` for the catalog."""
    key = name.strip().lower()
    if key not in _FIXTURES:
        raise UnknownName(f"unknown fixture {name!r}; known: {', '.join(sorted(_FIXTURES))}")
    return _FIXTURES[key]()


def fixture_names() -> List[str]:
    return sorted(_FIXTURES)
