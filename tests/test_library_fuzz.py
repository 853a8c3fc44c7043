"""Malformed color lists through the library: every solve colors or refuses.

``color_strong_23`` and ``color_incidence`` run on small fixtures with
lists drawn as a few shared objects, as the builders give them.  Their
colors are usually valid and now and then repeated, negative, bools,
floats, strings or None; a list may hold too few colors, and keys may be
missing.  Each call must return a coloring that its verifier accepts or
raise an ``InputError``.  Any other exception fails the test, an
``InternalInvariant`` included, as that would mean a bug.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import strongcolor as sc

junk = st.one_of(
    st.integers(min_value=-3, max_value=-1),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=2),
    st.none(),
)


def mostly(valid, bad=junk):
    """Usually a draw from ``valid``; one draw in ten comes from ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else valid)


colors = st.integers(0, 11)
shapes = st.sampled_from([tuple, list, frozenset, set])
# a list usually holds 6 to 9 entries from 12 colors, so repeats are common;
# one in ten may hold junk or fewer than 6 entries
entries = mostly(st.lists(colors, min_size=6, max_size=9), st.lists(mostly(colors), max_size=9))
color_lists = st.tuples(shapes, entries).map(lambda drawn: drawn[0](drawn[1]))

GRAPHS = [sc.named(name) for name in ("k4", "petersen", "triple-edge", "domino", "c6", "star", "p5")]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), g=st.sampled_from(GRAPHS), incidence=st.booleans())
def test_each_solve_colors_or_refuses(data, g, incidence):
    b = sc.subdivide(g).bipartite
    keys = list(g.incidences()) if incidence else list(range(b.graph.edge_count))
    pool = data.draw(st.lists(color_lists, min_size=1, max_size=3))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(keys), max_size=len(keys)))
    L = {key: pool[i] for key, i in zip(keys, picks)}
    for key in data.draw(mostly(st.just([]), st.lists(st.sampled_from(keys), max_size=2))):
        L.pop(key, None)
    try:
        if incidence:
            coloring, _ = sc.color_incidence(g, L)
        else:
            pc, _ = sc.color_strong_23(b, L)
    except sc.InputError:
        return
    if incidence:
        assert sc.verify_incidence(g, coloring, L, require_total=True) == []
    else:
        assert sc.verify_strong(b, L, pc, require_total=True) == []
