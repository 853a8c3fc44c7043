import pytest

import strongcolor as sc
from strongcolor.generate import SplitMix64
from strongcolor.matching import max_matching, rainbow_sdr

from conftest import HallScanTooLarge, hall_witness


class TestMaxMatching:
    def test_identity_perfect(self):
        m = max_matching(3, 3, [{0}, {1}, {2}])
        assert m == {0: 0, 1: 1, 2: 2}

    def test_k23_saturates_small_side(self):
        m = max_matching(2, 3, [{0, 1, 2}, {0, 1, 2}])
        assert len(m) == 2

    def test_empty(self):
        assert max_matching(2, 2, [set(), set()]) == {}

    def test_augmenting_path_needed(self):
        # greedy would match 0->0 and strand 1; augmentation fixes it
        m = max_matching(2, 2, [{0, 1}, {0}])
        assert m == {0: 1, 1: 0}


class TestRainbowSdr:
    def test_pair_sharing_single_color_fails(self):
        assert rainbow_sdr([10, 11], {10: {1}, 11: {1}}) is None

    def test_six_full_lists_permute(self):
        lists = {e: frozenset(range(1, 7)) for e in range(6)}
        got = rainbow_sdr(list(range(6)), lists)
        assert sorted(got.values()) == [1, 2, 3, 4, 5, 6]

    def test_three_two_lists(self):
        lists = {0: {1, 2}, 1: {2, 3}, 2: {1, 3}}
        got = rainbow_sdr([0, 1, 2], lists)
        assert got is not None
        assert len(set(got.values())) == 3
        for e, c in got.items():
            assert c in lists[e]

    def test_deterministic(self):
        lists = {0: frozenset({3, 5}), 1: frozenset({3, 5, 7}), 2: frozenset({5, 7})}
        assert rainbow_sdr([0, 1, 2], lists) == rainbow_sdr([0, 1, 2], lists)


class TestHallWitness:
    def test_pair_witness(self):
        assert hall_witness([4, 9], {4: {1}, 9: {1}}) == (4, 9)

    def test_k23_lists_hold(self):
        lists = {e: frozenset(range(1, 7)) for e in range(6)}
        assert hall_witness(list(range(6)), lists) is None

    def test_triple_over_two_colors(self):
        assert hall_witness([0, 1, 2], {e: {1, 2} for e in range(3)}) == (0, 1, 2)

    def test_too_large(self):
        with pytest.raises(HallScanTooLarge):
            hall_witness(list(range(21)), {e: {e} for e in range(21)})


@pytest.mark.parametrize("solve", [rainbow_sdr, hall_witness])
def test_repeated_item_rejected(solve):
    # a repeated item would collapse into one key of the returned choice
    with pytest.raises(ValueError, match="distinct"):
        solve([3, 3], {3: {1, 2}})


class TestSdrHallEquivalence:
    def test_random_problems(self):
        rng = SplitMix64(31337)
        for trial in range(400):
            n = 1 + rng.below(12)
            lists = {}
            for e in range(n):
                k = 1 + rng.below(4)
                lists[e] = frozenset(rng.subset(k, 10))
            sdr = rainbow_sdr(list(range(n)), lists)
            witness = hall_witness(list(range(n)), lists)
            assert (sdr is None) == (witness is not None)
            if sdr is not None:
                assert len(set(sdr.values())) == n


class TestSdrMergeStaysValid:
    def test_rainbow_extension_ignores_conflicts(self, k23):
        # all six K_{2,3} edges pairwise conflict, yet any SDR extends validly
        L = sc.uniform_lists(range(6), 6)
        got = rainbow_sdr(list(range(6)), L)
        pc = sc.PartialColoring(got)
        assert sc.verify_strong(k23, L, pc, require_total=True) == []
