"""The color-list contract: every builder gives ascending tuples of distinct
colors, one object per distinct list, and the solver reads any collection
of distinct colors the same way, whatever order it iterates in."""

import json

import pytest

import strongcolor as sc
from strongcolor import fileio, solver
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


class TestSizeCheck:
    """Both solvers count a list's distinct colors, not its entries."""

    def test_repeated_colors_are_too_few(self):
        g = sc.named("k4")
        b = sc.subdivide(g).bipartite
        strong = sc.uniform_lists(range(b.graph.edge_count), 6)
        strong[5] = (1, 2, 3, 4, 5, 5)
        with pytest.raises(sc.ListTooSmall) as err:
            sc.color_strong_23(b, strong)
        assert str(err.value) == "edge 5 has a list of 5 distinct colors, need 6"
        doubled = dict.fromkeys(g.incidences(), (1, 1, 2, 2, 3, 3))
        with pytest.raises(sc.ListTooSmall) as err:
            sc.color_incidence(g, doubled)
        assert str(err.value) == (
            "incidence Incidence(vertex=0, edge=0) has a list of 3 distinct colors, need 6"
        )

    @pytest.mark.parametrize("shape", [tuple, list])
    def test_six_distinct_colors_in_seven_entries_solve(self, shape):
        # each list gets its own copy with its smallest color twice, so
        # every copy is counted; lists are unhashable too
        for g, inc_L in _cubic_corpus(8, 20, 5):
            b = sc.subdivide(g).bipartite
            L = dict(enumerate(inc_L.values()))
            padded = {e: shape(lst + lst[:1]) for e, lst in L.items()}
            pc, stats = sc.color_strong_23(b, L)
            pc_p, stats_p = sc.color_strong_23(b, padded)
            assert pc.assigned == pc_p.assigned and stats == stats_p
            coloring, _ = sc.color_incidence(g, inc_L)
            inc_padded = {inc: shape(lst + lst[:1]) for inc, lst in inc_L.items()}
            assert sc.color_incidence(g, inc_padded)[0] == coloring


    def test_incidence_lists_are_checked_once(self, monkeypatch):
        calls = []
        door = solver._ascending_lists

        def counted(what, keys, lists):
            calls.append(what)
            return door(what, keys, lists)

        monkeypatch.setattr(solver, "_ascending_lists", counted)
        g = sc.named("petersen")
        sc.color_incidence(g, sc.uniform_incidence_lists(g, 6))
        assert calls == ["edge"]


class TestColorCheck:
    """Both solvers take only ints >= 0 as colors, and name the first key
    whose list holds anything else."""

    SIX = (1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize(
        "bad, shown",
        [
            ((1, 2, 3, 4, 5, "x"), "'x'"),
            ((True, 2, 3, 4, 5, 6), "True"),
            ((1, 2, 3, 4, 5, 6, False), "False"),
            ((-1, 2, 3, 4, 5, 6), "-1"),
            ((1.0, 2, 3, 4, 5, 6), "1.0"),
            ((1, 2, 3, 4, 5, 6, None), "None"),
            ([[1], 2, 3, 4, 5, 6], "[1]"),
        ],
    )
    def test_strong_and_incidence(self, bad, shown):
        g = sc.named("k4")
        b = sc.subdivide(g).bipartite
        strong = sc.uniform_lists(range(b.graph.edge_count), 6)
        strong[3] = strong[7] = bad
        with pytest.raises(sc.BadColor) as err:
            sc.color_strong_23(b, strong)
        assert str(err.value) == f"edge 3 has {shown} in its list, need ints >= 0"
        lists = sc.uniform_incidence_lists(g, 6)
        inc = list(lists)[3]
        lists[inc] = bad
        with pytest.raises(sc.BadColor) as err:
            sc.color_incidence(g, lists)
        assert str(err.value) == f"incidence {inc} has {shown} in its list, need ints >= 0"

    def test_a_bool_list_equal_to_an_int_list_is_rejected(self):
        # (True, 2, ...) == (1, 2, ...), so equality alone would merge them
        b = sc.subdivide(sc.named("k4")).bipartite
        L = dict.fromkeys(range(b.graph.edge_count), self.SIX)
        L[4] = (True,) + self.SIX[1:]
        assert L[4] == self.SIX
        with pytest.raises(sc.BadColor, match="^edge 4 has True in its list"):
            sc.color_strong_23(b, L)

    def test_the_first_bad_key_is_named(self):
        b = sc.subdivide(sc.named("k4")).bipartite
        L = dict.fromkeys(range(b.graph.edge_count), self.SIX)
        L[2] = (1, 2, 3)
        L[5] = (1, 2, 3, 4, 5, -6)
        with pytest.raises(sc.ListTooSmall, match="^edge 2 "):
            sc.color_strong_23(b, L)
        L[1] = L[5]
        with pytest.raises(sc.BadColor, match="^edge 1 has -6 "):
            sc.color_strong_23(b, L)


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
