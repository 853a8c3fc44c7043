"""Systems of distinct representatives via bipartite matching.

Every "choose pairwise-distinct colors, one per list" step in the coloring
procedures terminates here.  A rainbow choice is automatically a valid
strong-coloring extension: distinct colors cannot violate any conflict, and
each color is drawn from the edge's current available list.

Plain augmenting-path matching is enough: the instances have at most six
items.  An SDR problem is passed as ``(items, lists)``: the ordered,
pairwise-distinct items (edge ids) and a mapping from each item to its
finite color list.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence


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


def rainbow_sdr(
    items: Sequence[int], lists: Mapping[int, Iterable[int]]
) -> Optional[Dict[int, int]]:
    """Pairwise-distinct colors, one from each item's list, or None.

    Exists iff Hall's condition holds on the family of lists; computed as a
    maximum matching between items and colors.
    """
    # a repeated item would silently collapse in the returned dict
    if len(set(items)) != len(items):
        raise ValueError("SDR items must be distinct")
    colors = sorted(set().union(*(lists[e] for e in items)))
    index = {c: j for j, c in enumerate(colors)}
    adjacency = [sorted(index[c] for c in lists[e]) for e in items]
    matching = max_matching(len(items), len(colors), adjacency)
    if len(matching) < len(items):
        return None
    return {e: colors[matching[i]] for i, e in enumerate(items)}
