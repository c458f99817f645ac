"""Decomposability: component decision, triangularization, column-closure oracle."""

import random

import pytest

from rpotent.decomposition import (
    BlockTriangularization,
    Digraph,
    block_triangularize,
    brute_force_decomposable,
    brute_force_decomposable_pattern,
)
from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    random_singular_zero_diag,
    uniform_idempotent,
)
from rpotent.matrix import PatternMatrix, RMatrix
from rpotent import potency
from rpotent.potency import main_decomposability_test, minimal_potency, zero_diagonal_powers

from oracles import (
    as_potent,
    closed_subsets,
    closure_block_order,
    is_decomposable,
    is_decomposable_pattern,
    random_pattern_local,
    rank_one_idempotent,
    rank_one_idempotent_diag_test,
    small_patterns,
    small_zero_one_matrices,
    small_zero_one_potents,
    triangularization_is_valid,
    zero_one_patterns,
)

HALF = RMatrix([["1/2", "1/2"], ["1/2", "1/2"]])
DIAG10 = RMatrix([[1, 0], [0, 0]])


class TestDigraph:
    def test_zero_matrix_is_edgeless(self):
        g = Digraph(RMatrix.zeros(3).pattern())
        assert g.out == (0, 0, 0)

    def test_cycle_is_a_directed_cycle(self):
        g = Digraph(cycle_matrix(3).pattern())
        # column j supports row j+1, so vertex j points at j+1
        assert g.out == (0b010, 0b100, 0b001)

    def test_positive_matrix_is_complete_with_loops(self):
        g = Digraph(HALF.pattern())
        assert g.out == (0b11, 0b11)

    def test_component_count(self):
        assert len(Digraph(cycle_matrix(4).pattern()).strongly_connected_components()) == 1
        assert len(Digraph(RMatrix.zeros(3).pattern()).strongly_connected_components()) == 3

    def test_long_cycle_and_path_do_not_recurse(self):
        n = 1500
        # an edge v -> w is entry (w, v): row w holds bit v
        cycle = Digraph(PatternMatrix(n, tuple(1 << ((w - 1) % n) for w in range(n))))
        assert cycle.strongly_connected_components() == [tuple(range(n))]
        # a path v -> v + 1 puts its sink, the last vertex, first
        path = Digraph(PatternMatrix(n, tuple(1 << (w - 1) if w else 0 for w in range(n))))
        assert path.strongly_connected_components() == [(v,) for v in reversed(range(n))]
        back = Digraph(PatternMatrix(n, tuple(1 << (w + 1) if w + 1 < n else 0 for w in range(n))))
        assert back.strongly_connected_components() == [(v,) for v in range(n)]

    def test_block_order_matches_the_transitive_closure_reference(self):
        patterns = list(small_patterns())
        rng = random.Random(19)
        for n in range(1, 41):
            # from mostly lone vertices to one large component, by the expected out-degree
            for degree in (0.5, 1, 1.5, 3):
                patterns.append(random_pattern_local(rng, n, min(1.0, degree / n)))
        for p in patterns:
            assert Digraph(p).strongly_connected_components() == closure_block_order(p), p


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
        assert w.verify_pattern(DIAG10.pattern())

    def test_positive_matrix_has_no_witness(self):
        assert brute_force_decomposable(HALF) is None

    def test_zero_matrix_above_the_old_scan_limit(self):
        w = brute_force_decomposable(RMatrix.zeros(21))
        assert w is not None and w.subset == {0}

    def test_forty_cycle_has_no_witness(self):
        assert brute_force_decomposable(cycle_matrix(40)) is None

    def test_agrees_with_components_on_all_three_by_three_patterns(self):
        for p in zero_one_patterns(3):
            witness = brute_force_decomposable_pattern(p)
            assert (witness is not None) == is_decomposable_pattern(p)
            if witness is not None:
                assert witness.verify_pattern(p)

    def test_witness_matches_full_subset_enumeration(self):
        # the witness is the least-bitmask invariant set, None when there is none
        patterns = list(small_patterns())
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(4, 10)
            density = rng.random()
            patterns.append(
                PatternMatrix(n, tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)))
            )
        for p in patterns:
            subsets = closed_subsets(p)
            least = min(subsets, key=lambda s: sum(1 << i for i in s), default=None)
            witness = brute_force_decomposable_pattern(p)
            assert (None if witness is None else witness.subset) == least, p


class TestBlockTriangularize:
    def test_uniform_tower_blocks(self):
        tower = block_diagonal([uniform_idempotent(k) for k in (1, 2, 3)])
        t = block_triangularize(tower)
        assert t.block_sizes == (1, 2, 3)
        assert not t.is_trivial
        assert triangularization_is_valid(t)
        conj = t.source.conjugate(t.permutation)
        # block diagonal with zero coupling: everything off the blocks is zero
        assert conj == tower

    def test_cycle_is_trivial(self):
        t = block_triangularize(cycle_matrix(3))
        assert t.is_trivial
        assert t.block_sizes == (3,)

    def test_strictly_upper_nilpotent(self):
        n = RMatrix([[0, 1], [0, 0]])
        t = block_triangularize(n)
        assert t.block_sizes == (1, 1)
        assert t.permutation.images == (0, 1)
        assert t.source.conjugate(t.permutation) == n
        assert triangularization_is_valid(t)

    def test_every_block_is_indecomposable(self):
        # the subset oracle, not a second component search: structure reports
        # every diagonal block indecomposable without testing it
        potents = []
        for seed in range(40):
            r = (2, 3, 4, 5)[seed % 4]
            potents.append(random_r_potent(r, 1 + seed % 5, seed, max_dim=16).a)
        for a in [*small_zero_one_matrices(), *potents]:
            t = block_triangularize(a)
            assert triangularization_is_valid(t)
            for blk in t.diagonal_blocks:
                assert brute_force_decomposable(blk) is None, a

    def test_conjugated_form_is_block_upper_triangular(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 7)
            rows = [
                [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)
            ]
            a = RMatrix(rows)
            t = block_triangularize(a)
            assert triangularization_is_valid(t)
            assert sum(t.block_sizes) == n

    def test_deterministic_tie_break(self):
        # two isolated vertices and no edges: smallest index first
        t = block_triangularize(RMatrix.zeros(2))
        assert t.components == ((0,), (1,))
        # sinks 0 and 1, and 2 -> 0: the sink 1 comes before 2, which must follow 0
        t = block_triangularize(RMatrix([[1, 0, 0], [0, 1, 0], [1, 0, 0]]))
        assert t.components == ((1,), (2,), (0,))

    def test_golden_order_for_mixed_condensation(self):
        # components {0,3} (a 2-cycle), {1} (zero), {2} (a fixed point);
        # vertices 1 and 2 both point into the cycle, so the cycle is the
        # unique sink and the remaining tie breaks by smallest index
        a = RMatrix(
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
        assert triangularization_is_valid(t)

    def test_witness_is_the_verified_sink_component(self):
        rng = random.Random(32)
        for _ in range(60):
            n = rng.randint(1, 7)
            a = RMatrix([[rng.choice([0, 0, 0, 1]) for _ in range(n)] for _ in range(n)])
            t = block_triangularize(a)
            if t.is_trivial:
                assert t.witness is None
                assert brute_force_decomposable(a) is None
            else:
                assert t.witness.subset == frozenset(t.components[0])
                assert t.witness.verify_pattern(a.pattern())

    def test_witness_of_a_non_sink_first_block_is_refused(self):
        t = block_triangularize(RMatrix([[0, 1], [0, 0]]))
        assert t.witness.sorted_indices() == [0]
        with pytest.raises(RuntimeError, match="failed to verify"):
            BlockTriangularization(t.components[::-1], t.source, t.graph).witness


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
        pred = main_decomposability_test(as_potent(m, 4))
        assert pred.case == "rank_above_threshold"
        assert pred.predicted_decomposable and pred.actual_decomposable
        assert pred.agrees

    def test_cycle_gets_no_prediction(self):
        for r in (3, 4, 5):
            c = cycle_matrix(r - 1)
            pred = main_decomposability_test(as_potent(c, r))
            assert pred.case == "no_prediction"
            assert not pred.actual_decomposable
            assert pred.agrees

    def test_reads_the_triangularization_of_the_decision(self, monkeypatch):
        m = block_diagonal([cycle_matrix(3), RMatrix.zeros(1)])
        t = block_triangularize(m)
        p = minimal_potency(t)
        # the value keeps the decision's triangularization and builds no other
        monkeypatch.setattr(potency, "block_triangularize", None)
        assert p.tri is t and main_decomposability_test(p).actual_decomposable

    def test_rejects_non_potent_input(self):
        # the test takes a checked value; non-potent input stops at the check
        with pytest.raises(ValueError, match="not 3-potent"):
            as_potent(RMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), 3)

    def test_idempotent_rank_one_gets_no_prediction(self):
        # singular rank-one idempotent: the power window is empty for r = 2,
        # and the branch must not fire (the positive one is indecomposable)
        pred = main_decomposability_test(as_potent(HALF, 2))
        assert pred.case == "no_prediction"
        assert pred.agrees

    def test_singular_zero_diag_case(self):
        m = block_diagonal([cycle_matrix(3), RMatrix.zeros(1)])
        pred = main_decomposability_test(as_potent(m, 4))
        assert pred.case == "singular_zero_diagonal"
        assert pred.actual_decomposable
        assert pred.agrees

    def test_zero_block_reading_agrees_with_the_powers(self):
        # the singular branch reads a zero diagonal block off the periods; the
        # criterion itself asks for rank < n and a zero on the diagonal of
        # each of A^2 .. A^(r-1), taken here from the powers
        # each 0/1 potent at r = L + 1, 2L + 1 and 3L + 1
        cases = [as_potent(a, k * (r - 1) + 1) for a, r in small_zero_one_potents() for k in (1, 2, 3)]
        for seed in range(30):
            r = 3 + seed % 5
            cases.append(random_r_potent(r, 1 + seed % 4, seed, max_dim=8))
            cases.append(random_singular_zero_diag(r, seed, max_dim=8))
        fired = 0
        for p in cases:
            r, k, n = p.r, p.rank, p.a.n
            if k > r - 1:
                expected = "rank_above_threshold"
            elif r >= 3 and n >= 2 and k < n and set(range(2, r)) <= zero_diagonal_powers(p):
                expected = "singular_zero_diagonal"
            else:
                expected = "no_prediction"
            assert main_decomposability_test(p).case == expected, p.a
            fired += expected == "singular_zero_diagonal"
        assert fired >= 40
