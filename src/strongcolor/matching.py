"""Systems of distinct representatives via bipartite matching.

Every "choose pairwise-distinct colors, one per list" step in the coloring
procedures terminates here.  A rainbow choice is automatically a valid
strong-coloring extension: distinct colors cannot violate any conflict, and
each color is drawn from the edge's current available list.

Plain augmenting-path matching is enough: the instances have at most six
items.  The interface permits swapping in a faster engine later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import TooLarge

_HALL_SCAN_LIMIT = 20


@dataclass(frozen=True)
class SdrProblem:
    """Ordered items (edge ids) with finite color lists."""

    items: Tuple[int, ...]
    lists: Mapping[int, FrozenSet[int]]

    def __post_init__(self):
        if len(set(self.items)) != len(self.items):
            raise ValueError("SDR items must be distinct")

    @staticmethod
    def of(items: Sequence[int], lists: Mapping[int, frozenset]) -> "SdrProblem":
        return SdrProblem(tuple(items), {e: frozenset(lists[e]) for e in items})


def max_matching(left_count: int, right_count: int, adjacency: Sequence) -> Dict[int, int]:
    """Maximum-cardinality matching (left -> right) by augmenting paths.

    Deterministic: left vertices are processed in ascending order and each
    adjacency list is scanned in sorted order.
    """
    adj = [sorted(set(adjacency[i])) for i in range(left_count)]
    match_right = [-1] * right_count  # right -> left
    match_left = [-1] * left_count

    def augment(i: int, seen: list) -> bool:
        for j in adj[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_right[j] == -1 or augment(match_right[j], seen):
                match_right[j] = i
                match_left[i] = j
                return True
        return False

    for i in range(left_count):
        augment(i, [False] * right_count)
    return {i: j for i, j in enumerate(match_left) if j != -1}


def rainbow_sdr(p: SdrProblem) -> Optional[Dict[int, int]]:
    """Pairwise-distinct colors, one from each item's list, or None.

    Exists iff Hall's condition holds on the family of lists; computed as a
    maximum matching between items and colors.
    """
    colors = sorted(set().union(*(p.lists[e] for e in p.items)) if p.items else set())
    index = {c: j for j, c in enumerate(colors)}
    adjacency = [sorted(index[c] for c in p.lists[e]) for e in p.items]
    matching = max_matching(len(p.items), len(colors), adjacency)
    if len(matching) < len(p.items):
        return None
    return {e: colors[matching[i]] for i, e in enumerate(p.items)}


def hall_witness(p: SdrProblem) -> Optional[Tuple[int, ...]]:
    """A subset S of items with |S| > |union of its lists|, or None.

    Exponential scan in ascending bitmask order; None iff rainbow_sdr
    succeeds.
    """
    n = len(p.items)
    if n > _HALL_SCAN_LIMIT:
        raise TooLarge(f"hall_witness limited to {_HALL_SCAN_LIMIT} items, got {n}")
    for mask in range(1, 1 << n):
        members = [p.items[i] for i in range(n) if mask >> i & 1]
        union = set()
        for e in members:
            union |= p.lists[e]
        if len(members) > len(union):
            return tuple(members)
    return None
