"""Decomposability: component decision, triangularization, subset oracle."""

import random

import pytest

from rpotent.decomposition import (
    Digraph,
    block_triangularize,
    brute_force_decomposable,
    brute_force_decomposable_pattern,
    is_decomposable,
    is_decomposable_pattern,
    main_decomposability_test,
    rank_one_idempotent_diag_test,
)
from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    rank_one_idempotent,
    uniform_idempotent,
)
from rpotent.matrix import PatternMatrix, RMatrix

from oracles import closed_subsets

HALF = RMatrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
DIAG10 = RMatrix.from_rows([[1, 0], [0, 0]])


class TestDigraph:
    def test_zero_matrix_is_edgeless(self):
        g = Digraph.from_matrix(RMatrix.zeros(3))
        assert g.out == (0, 0, 0)

    def test_cycle_is_a_directed_cycle(self):
        g = Digraph.from_matrix(cycle_matrix(3))
        # column j supports row j+1, so vertex j points at j+1
        assert g.out == (0b010, 0b100, 0b001)

    def test_positive_matrix_is_complete_with_loops(self):
        g = Digraph.from_matrix(HALF)
        assert g.out == (0b11, 0b11)

    def test_component_count(self):
        assert len(Digraph.from_matrix(cycle_matrix(4)).strongly_connected_components()) == 1
        assert len(Digraph.from_matrix(RMatrix.zeros(3)).strongly_connected_components()) == 3

    def test_long_cycle_and_path_do_not_recurse(self):
        n = 1500
        cycle = Digraph(n, tuple(1 << ((v + 1) % n) for v in range(n)))
        assert cycle.strongly_connected_components() == [tuple(range(n))]
        # a path v -> v + 1 emits its sink first, like the recursive Tarjan
        path = Digraph(n, tuple(1 << (v + 1) if v + 1 < n else 0 for v in range(n)))
        assert path.strongly_connected_components() == [(v,) for v in reversed(range(n))]


class TestIsDecomposable:
    def test_positive_idempotent_is_not(self):
        assert not is_decomposable(HALF)

    def test_diagonal_unit_is(self):
        assert is_decomposable(DIAG10)

    def test_cycles_are_not(self):
        for length in (1, 2, 3, 5):
            assert not is_decomposable(cycle_matrix(length))

    def test_one_by_one_zero_is_not(self):
        assert not is_decomposable(RMatrix.zeros(1))

    def test_zero_matrix_of_size_two_is(self):
        assert is_decomposable(RMatrix.zeros(2))


class TestBruteForceOracle:
    def test_diagonal_unit_witness(self):
        w = brute_force_decomposable(DIAG10)
        assert w is not None
        assert w.subset in ({0}, {1})
        assert w.verify(DIAG10)

    def test_positive_matrix_has_no_witness(self):
        assert brute_force_decomposable(HALF) is None

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="n <= 20"):
            brute_force_decomposable(RMatrix.zeros(21))

    def test_agrees_with_components_on_all_three_by_three_patterns(self):
        for packed in range(512):
            p = PatternMatrix.from_packed(3, packed)
            witness = brute_force_decomposable_pattern(p)
            assert (witness is not None) == is_decomposable_pattern(p)
            if witness is not None:
                assert witness.verify_pattern(p)

    def test_witness_matches_full_subset_enumeration(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 5)
            p = PatternMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            subsets = closed_subsets(p)
            witness = brute_force_decomposable_pattern(p)
            assert (witness is not None) == bool(subsets)
            if witness is not None:
                assert witness.subset in subsets


class TestBlockTriangularize:
    def test_uniform_tower_blocks(self):
        tower = block_diagonal([uniform_idempotent(k) for k in (1, 2, 3)])
        t = block_triangularize(tower)
        assert t.block_sizes == (1, 2, 3)
        assert not t.is_trivial
        assert t.is_valid()
        conj = t.conjugated()
        # block diagonal with zero coupling: everything off the blocks is zero
        assert conj == tower

    def test_cycle_is_trivial(self):
        t = block_triangularize(cycle_matrix(3))
        assert t.is_trivial
        assert t.block_sizes == (3,)

    def test_strictly_upper_nilpotent(self):
        n = RMatrix.from_rows([[0, 1], [0, 0]])
        t = block_triangularize(n)
        assert t.block_sizes == (1, 1)
        assert t.permutation.images == (0, 1)
        assert t.conjugated() == n
        assert t.is_valid()

    def test_every_block_is_indecomposable(self):
        for seed in range(40):
            r = (2, 3, 4, 5)[seed % 4]
            a = random_r_potent(r, 1 + seed % 5, seed, max_dim=16)
            t = block_triangularize(a)
            assert t.is_valid()
            for blk in t.diagonal_blocks:
                assert not is_decomposable(blk)

    def test_conjugated_form_is_block_upper_triangular(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 7)
            rows = [
                [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)
            ]
            a = RMatrix.from_rows(rows)
            t = block_triangularize(a)
            assert t.is_valid()
            assert sum(t.block_sizes) == n

    def test_deterministic_tie_break(self):
        # two isolated vertices and no edges: smallest index first
        t = block_triangularize(RMatrix.zeros(2))
        assert t.components == ((0,), (1,))

    def test_golden_order_for_mixed_condensation(self):
        # components {0,3} (a 2-cycle), {1} (zero), {2} (a fixed point);
        # vertices 1 and 2 both point into the cycle, so the cycle is the
        # unique sink and the remaining tie breaks by smallest index
        a = RMatrix.from_rows(
            [
                [0, 1, 0, 1],
                [0, 0, 0, 0],
                [0, 0, 1, 0],
                [1, 0, 1, 0],
            ]
        )
        t = block_triangularize(a)
        assert t.components == ((0, 3), (1,), (2,))
        assert t.permutation.images == (0, 3, 1, 2)
        assert t.block_sizes == (2, 1, 1)
        assert t.is_valid()


class TestRankOneDiagTest:
    def test_positive_case(self):
        assert rank_one_idempotent_diag_test(HALF) is False
        assert not is_decomposable(HALF)

    def test_decomposable_case(self):
        assert rank_one_idempotent_diag_test(DIAG10) is True
        assert is_decomposable(DIAG10)

    def test_positive_outer_product(self):
        m = rank_one_idempotent([1, 2], ["1/3", "1/3"])
        assert rank_one_idempotent_diag_test(m) is False

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            rank_one_idempotent_diag_test(RMatrix.identity(2))

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            rank_one_idempotent_diag_test(cycle_matrix(3))


class TestMainDecomposabilityTest:
    def test_high_rank_kron_case(self):
        rank2 = block_diagonal([uniform_idempotent(1), uniform_idempotent(2)])
        m = cycle_matrix(3).kron(rank2)
        assert m.rank() == 6
        pred = main_decomposability_test(m, 4)
        assert pred.case == "rank_above_threshold"
        assert pred.predicted_decomposable and pred.actual_decomposable
        assert pred.agrees

    def test_cycle_gets_no_prediction(self):
        for r in (3, 4, 5):
            pred = main_decomposability_test(cycle_matrix(r - 1), r)
            assert pred.case == "no_prediction"
            assert not pred.actual_decomposable
            assert pred.agrees

    def test_rejects_non_potent_input(self):
        with pytest.raises(ValueError):
            main_decomposability_test(RMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), 3)

    def test_idempotent_rank_one_gets_no_prediction(self):
        # singular rank-one idempotent: the power window is empty for r = 2,
        # and the branch must not fire (the positive one is indecomposable)
        pred = main_decomposability_test(HALF, 2)
        assert pred.case == "no_prediction"
        assert pred.agrees

    def test_singular_zero_diag_case(self):
        m = block_diagonal([cycle_matrix(3), RMatrix.zeros(1)])
        pred = main_decomposability_test(m, 4)
        assert pred.case == "singular_zero_diagonal"
        assert pred.actual_decomposable
        assert pred.agrees
