"""Deterministic seeded generators and the named fixture catalog.

The PRNG is pinned bit-exactly so corpora reproduce across runs, platforms
and reimplementations: splitmix64 with the usual constants

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z XOR z>>30) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR z>>27) * 0x94D049BB133111EB mod 2^64
    output <- z XOR z>>31

Bounded draws are ``z % n`` (documented modulo reduction); shuffles are
Fisher-Yates from the top index down; k-subsets are the first k slots of a
partial Fisher-Yates over the palette, sorted.

Bulk draws are the same stream, mixed in 128-bit lanes.  The i-th state
after s is s + i*gamma mod 2^64, so ``SplitMix64.draws`` writes up to 1024
of them into one integer, one lane each, and runs every step of the mix as
one whole-integer operation under a lane mask that keeps the low 64 bits
of each lane.  Lanes cannot mix:

- after each mask a lane holds z < 2^64, so z * MIX < 2^128 fits its lane;
- a right shift of at most 31 bits moves the next lane's bits to bit 97 or
  higher of this lane, where the mask clears them (after the last shift
  they stay there, as only the low 64 bits of a lane are read);
- the initial lane, s plus (i*gamma mod 2^64), is below 2^65.

The lanes are packed and read little-endian on every host, so the streams
do not depend on the platform.  A call is mixed in blocks of at most 1024
lanes: one integer for a whole long call costs memory in proportion to
its length, and 1024 lanes was also the fastest block size measured.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from operator import eq
from typing import Iterable, Iterator, List, Tuple, Union

from .conflict import ListAssignment
from .errors import BadSize, Infeasible, InternalInvariant, UnknownName
from .graph import PART_A, PART_B, BipartiteGraph, Multigraph, build_multigraph

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_LANES = 1024  # lanes per block
_BIG_ENDIAN = sys.byteorder == "big"
if array("Q").itemsize != 8:
    raise ImportError("strongcolor.generate needs 8-byte array('Q') items")


def _pack(words) -> int:
    """One 128-bit lane per 64-bit word, lane 0 lowest."""
    words = array("Q", words)
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = words
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


# lane i of a full block: (i+1)*gamma mod 2^64, 1, and the low-64-bit mask
_STEPS = _pack((i * _GAMMA) & _MASK64 for i in range(1, _LANES + 1))
_ONES = _pack([1] * _LANES)
_LOW = _pack([_MASK64] * _LANES)


def _mix_lanes(state: int, n: int) -> array:
    """The n outputs after ``state``, one block of n <= 1024 lanes."""
    steps, ones, low = _STEPS, _ONES, _LOW
    if n < _LANES:
        keep = (1 << (128 * n)) - 1
        steps, ones, low = steps & keep, ones & keep, low & keep
    z = (state * ones + steps) & low
    z = ((z ^ (z >> 30)) & low) * _MIX1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX2 & low
    z ^= z >> 31  # no mask: the next lane's bits land in the high half, never read
    lanes = array("Q")
    lanes.frombytes(z.to_bytes(16 * n, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes[::2]


def _check_subset(k: int, palette: int) -> None:
    if not 0 <= k <= palette:
        raise BadSize(f"cannot draw {k} distinct colors from a palette of {palette}")


def _pick(k: int, palette: int, zs: Iterator[int]) -> Tuple[int, ...]:
    """The first k slots of a partial Fisher-Yates over {0..palette-1},
    sorted, drawing from ``zs``.  ``moved`` holds only the displaced slots,
    so time and memory go with k, not with the palette."""
    moved: dict = {}
    picked = []
    for i, z in zip(range(k), zs):
        j = i + z % (palette - i)
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    picked.sort()
    return tuple(picked)


class SplitMix64:
    """The pinned 64-bit generator; same seed, same stream, everywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """One output by the scalar formula: the reference for ``draws``."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def draws(self, count: int) -> Iterator[int]:
        """The next ``count`` outputs, equal to ``count`` calls of ``next_u64``.

        The state advances by ``count`` at the call; the iterator mixes one
        block of at most 1024 lanes at a time.  For a single draw
        ``next_u64`` is cheaper.
        """
        if count < 0:
            raise BadSize(f"cannot make {count} draws")
        start = self._state
        self._state = (start + count * _GAMMA) & _MASK64
        return chain.from_iterable(
            _mix_lanes((start + i * _GAMMA) & _MASK64, min(_LANES, count - i))
            for i in range(0, count, _LANES)
        )

    def below(self, n: int) -> int:
        if n <= 0:
            raise BadSize(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def shuffle(self, xs: list) -> None:
        top = len(xs) - 1
        for i, z in zip(range(top, 0, -1), self.draws(max(top, 0))):
            j = z % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def subset(self, k: int, palette: int) -> Tuple[int, ...]:
        """A uniform k-subset of {0..palette-1}, returned sorted."""
        _check_subset(k, palette)
        return _pick(k, palette, self.draws(k))


def random_cubic(n: int, seed: int) -> Multigraph:
    """Configuration-model cubic multigraph: pair 3n half-edges uniformly,
    resample whole pairings containing a loop, keep parallel edges."""
    if n < 4 or n % 2 != 0:
        raise BadSize(f"cubic graphs need an even vertex count >= 4, got {n}")
    rng = SplitMix64(seed)
    unshuffled = [v for v in range(n) for _ in range(3)]
    for _ in range(1000):
        stubs = unshuffled.copy()
        rng.shuffle(stubs)
        us, vs = stubs[0::2], stubs[1::2]
        if any(map(eq, us, vs)):
            continue
        return build_multigraph(n, list(zip(us, vs)))
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
        degs = [z % 3 for z in rng.draws(nA)]
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

    Each list is the sorted tuple the draw gives, and equal draws share one
    tuple, so the lists take memory per distinct subset (at most 28 for 6
    of 8 colors), not per edge.
    """
    _check_subset(k, palette)
    edges = sorted(edge_ids)
    zs = SplitMix64(seed).draws(k * len(edges))
    shared: dict = {}  # each distinct draw -> its first tuple
    lists = {}
    for e in edges:
        draw = _pick(k, palette, zs)
        lists[e] = shared.setdefault(draw, draw)
    return lists


def generalized_petersen(n: int, k: int) -> Multigraph:
    """GP(n, k): the outer n-cycle, the spokes i -- n+i, and the inner
    cycle joining n+i to n+(i+k) mod n, in that edge order.  It is cubic
    and simple for 1 <= k < n/2; GP(5, 2) is the Petersen graph."""
    if k < 1 or 2 * k >= n:
        raise BadSize(f"GP(n, k) needs 1 <= k < n/2, got n={n}, k={k}")
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return build_multigraph(2 * n, outer + spokes + inner)


def disjoint_union(graphs: Iterable[BipartiteGraph]) -> BipartiteGraph:
    """The graphs side by side, vertex ids offset in the order given; each
    vertex keeps its part, and edge ids follow in the same order."""
    pairs, part_of = [], []
    for b in graphs:
        off = len(part_of)
        pairs += [(u + off, v + off) for u, v in b.graph.edges]
        part_of += b.part_of
    return BipartiteGraph(build_multigraph(len(part_of), pairs), part_of)


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
