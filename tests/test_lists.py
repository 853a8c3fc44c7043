"""The color-list contract: every builder gives ascending tuples of distinct
colors, one object per distinct list, and the solver reads any collection
of distinct colors the same way, whatever order it iterates in."""

import json

import pytest

import strongcolor as sc
from strongcolor import fileio
from strongcolor.generate import SplitMix64
from strongcolor.graph import Incidence


def assert_shared_ascending_tuples(L):
    for lst in L.values():
        assert type(lst) is tuple
        assert list(lst) == sorted(set(lst))
    assert len({id(lst) for lst in L.values()}) == len(set(L.values()))


def _lists_doc(lists: dict) -> str:
    return json.dumps({"format_version": 1, "lists": lists})


class TestBuilders:
    @pytest.mark.parametrize("k", [0, 1, 6, 9])
    def test_uniform_lists(self, k):
        L = sc.uniform_lists(range(5), k)
        assert_shared_ascending_tuples(L)
        assert L[0] == tuple(range(1, k + 1))
        assert len({id(lst) for lst in L.values()}) == 1

    def test_uniform_incidence_lists(self):
        g = sc.named("k4")
        L = sc.uniform_incidence_lists(g, 6)
        assert_shared_ascending_tuples(L)
        assert list(L) == list(g.incidences())

    @pytest.mark.parametrize("k, palette", [(0, 3), (3, 3), (6, 7), (6, 8), (6, 64), (6, 10**6)])
    def test_random_lists(self, k, palette):
        L = sc.random_lists(range(500), k, palette, palette)
        assert_shared_ascending_tuples(L)
        assert all(len(lst) == k for lst in L.values())

    @pytest.mark.parametrize("incidence", [False, True])
    def test_lists_from_text(self, incidence):
        L = sc.random_lists(range(300), 6, 8, 2)
        if incidence:
            L = {Incidence(e % 5, e): lst for e, lst in L.items()}
        back = fileio.lists_from_text(fileio.lists_to_text(L, incidence), incidence)
        assert back == L
        assert_shared_ascending_tuples(back)

    def test_repeated_and_unordered_colors_read_ascending(self):
        # a set of 3, 64 and 100 iterates 64 first
        doc = {"0": [3, 1, 3], "1": [1, 3], "2": [], "3": [100, 3, 64, 3]}
        L = fileio.lists_from_text(_lists_doc(doc))
        assert L == {0: (1, 3), 1: (1, 3), 2: (), 3: (3, 64, 100)}
        assert L[0] is L[1]

    @pytest.mark.parametrize("colors", [[3, -1, 3], [-1], [-1, -1, 0]])
    def test_negative_color_message(self, colors):
        text = _lists_doc({"0": [1, 2], "7": colors})
        with pytest.raises(sc.FormatError) as err:
            fileio.lists_from_text(text)
        assert str(err.value) == "list of 7 holds a negative color -1"


class TestEdgeLists:
    def test_gives_back_the_callers_objects(self):
        g = sc.named("petersen")
        sub = sc.subdivide(g)
        rng = SplitMix64(3)
        shapes = [lambda c: c, frozenset, list]  # any collection passes through as it is
        inc_lists = {
            inc: shapes[i % 3](rng.subset(6, 9))
            for i, inc in enumerate(g.incidences())
            if i % 4
        }
        got = sub.edge_lists(inc_lists)
        assert list(got) == list(range(2 * g.edge_count))
        for inc, eid in sub.incidence_to_edge.items():
            if inc in inc_lists:
                assert got[eid] is inc_lists[inc]
            else:
                assert got[eid] == ()


def _cubic_corpus(palette: int, count: int, seed: int):
    """``count`` random cubic multigraphs of 4-42 vertices, each with 6-lists
    on its incidences drawn from ``palette`` colors."""
    rng = SplitMix64(seed)
    for _ in range(count):
        g = sc.random_cubic(4 + 2 * rng.below(20), rng.next_u64())
        draws = sc.random_lists(range(2 * g.edge_count), 6, palette, rng.next_u64())
        yield g, dict(zip(g.incidences(), draws.values()))


def _frozen(L):
    return {key: frozenset(lst) for key, lst in L.items()}


class TestListOrderFree:
    """Colorings and counters are equal for tuples and frozenset copies of
    them, also where a frozenset iterates out of ascending order."""

    PALETTES = [7, 8, 64, 1000, 10**6]

    @pytest.mark.parametrize("palette", PALETTES)
    def test_strong_and_incidence(self, palette):
        unordered = 0
        for g, inc_L in _cubic_corpus(palette, 60, palette):
            b = sc.subdivide(g).bipartite
            L = dict(enumerate(inc_L.values()))  # incidence i is edge i of the subdivision
            frozen = _frozen(L)
            pc, stats = sc.color_strong_23(b, L)
            pc_f, stats_f = sc.color_strong_23(b, frozen)
            assert pc.assigned == pc_f.assigned and stats == stats_f
            coloring, stats = sc.color_incidence(g, inc_L)
            coloring_f, stats_f = sc.color_incidence(g, _frozen(inc_L))
            assert coloring == coloring_f and stats == stats_f
            unordered += any(list(lst) != sorted(lst) for lst in frozen.values())
        if palette >= 64:
            assert unordered >= 50
