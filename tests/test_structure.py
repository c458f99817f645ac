"""Block structure reports and the merge of adjacent zero components."""

import itertools
import json
from importlib import resources
from pathlib import Path

import pytest

from rpotent import potency
from rpotent.decomposition import block_triangularize
from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    random_singular_zero_diag,
    triangular_family,
    uniform_idempotent,
)
from rpotent.cli import main
from rpotent.matrix import RMatrix, load_matrix
from rpotent.potency import Potent, as_potent, is_r_potent, minimal_potency
from rpotent.structure import analyze_structure
from rpotent.verification import DEFAULT_SEED, decomposable_cases, structure_case_ok

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("rpotent").joinpath("data")


class TestAnalyzeStructure:
    def test_uniform_tower(self):
        r = 4
        tower = block_diagonal([uniform_idempotent(k) for k in range(1, r)])
        rep = analyze_structure(as_potent(tower, r))
        assert rep.applicable
        assert rep.k == r - 1
        assert rep.nonzero_count == r - 1
        assert all(not b.is_zero and b.block_rank == 1 for b in rep.blocks)
        assert all(b.block_is_indecomposable for b in rep.blocks)
        assert rep.bounds_ok
        assert rep.rank_sum_ok

    def test_kron_of_swaps(self):
        m = cycle_matrix(2).kron(cycle_matrix(2))
        rep = analyze_structure(as_potent(m, 3))
        assert rep.applicable
        assert rep.k == 4
        assert all(b.block_rank <= 2 for b in rep.blocks)
        assert 2 <= rep.nonzero_count <= 4
        assert rep.rank_sum_ok
        assert rep.bounds_ok

    def test_indecomposable_is_flagged_not_applicable(self):
        rep = analyze_structure(as_potent(cycle_matrix(3), 4))
        assert not rep.applicable
        assert rep.total_count == 1

    def test_rejects_non_potent(self):
        # the report takes a checked value; non-potent input stops at the check
        with pytest.raises(ValueError, match="not 2-potent"):
            as_potent(RMatrix.from_rows([[0, 1], [0, 0]]), 2)

    def test_reads_the_triangularization_of_the_decision(self, monkeypatch):
        tower = block_diagonal([uniform_idempotent(k) for k in (1, 2)])
        t = block_triangularize(tower)
        p = minimal_potency(t)
        # the value keeps the decision's triangularization and builds no other
        monkeypatch.setattr(potency, "block_triangularize", None)
        assert p.tri is t and analyze_structure(p).total_count == 2

    def test_generated_families_satisfy_all_block_facts(self):
        for seed in range(40):
            r = (2, 3, 4, 5)[seed % 4]
            p = random_r_potent(r, r + seed % 2, seed, max_dim=16)
            rep = analyze_structure(p)
            assert rep.blocks_ok
            assert rep.rank_sum_ok
            if rep.applicable:
                lower = -(-rep.k // (r - 1))
                assert lower <= rep.nonzero_count <= rep.k


class TestBlockPotencyAgainstThePower:
    """``block_is_r_potent``, read off the projection, against the r-th power of each block."""

    def test_structure_check_families(self):
        for _, _, r, p, _ in decomposable_cases(60, DEFAULT_SEED):
            flags = [b.block_is_r_potent for b in analyze_structure(p).blocks]
            assert flags == [is_r_potent(blk, r) for blk in p.tri.diagonal_blocks]

    @pytest.mark.parametrize(
        "source",
        [
            DATA.joinpath("decomposable_rank_one.json"),
            DATA.joinpath("uniform_block_tower_r4.json"),
            GOLDEN / "permutation_cycles_3_4_7.json",
            GOLDEN / "padded_rational.csv",
        ],
    )
    def test_analyze_at_minimal_r_plus_period(self, source, capsys):
        path = str(source)
        assert main(["analyze", path, "--json"]) == 0
        minimal = json.loads(capsys.readouterr().out)["potency"]["minimal_r"]
        r = minimal + (minimal - 1)  # the least r plus L = least r - 1
        assert main(["analyze", path, "--json", "--r", str(r)]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["potency"]["is_r_potent"] and bundle["structure"]["applicable"]
        blocks = block_triangularize(load_matrix(path)).diagonal_blocks
        flags = [b["block_is_r_potent"] for b in bundle["structure"]["blocks"]]
        assert flags == [is_r_potent(blk, r) for blk in blocks]


class TestZeroRunMerge:
    """Each run of consecutive zero components of the sink-first order is one zero block."""

    def test_single_block_unchanged(self):
        rep = analyze_structure(as_potent(RMatrix.zeros(1), 2))
        assert not rep.applicable
        assert [(b.indices, b.is_zero, b.block_is_indecomposable) for b in rep.blocks] == [((0,), True, True)]

    def test_two_adjacent_zeros_and_one_nonzero(self):
        # diag(0, 0, 1): the two zero components are adjacent, so they make one 2x2 zero block
        m = block_diagonal([RMatrix.zeros(1), RMatrix.zeros(1), RMatrix.from_rows([[1]])])
        p = as_potent(m, 2)
        assert p.tri.block_sizes == (1, 1, 1)
        rep = analyze_structure(p)
        assert [(b.size, b.is_zero) for b in rep.blocks] == [(2, True), (1, False)]
        assert rep.total_count == 2 and rep.nonzero_count == 1
        assert rep.bounds_ok and rep.blocks_ok and rep.rank_sum_ok

    def test_merged_block_is_indecomposable_only_at_size_one(self):
        for zeros in range(1, 6):
            m = block_diagonal([RMatrix.zeros(1)] * zeros + [RMatrix.from_rows([[1]])])
            zero_block = analyze_structure(as_potent(m, 2)).blocks[0]
            assert zero_block.is_zero and zero_block.size == zeros
            assert zero_block.block_is_indecomposable == (zeros == 1)

    def test_already_alternating_is_unchanged(self):
        m = block_diagonal([RMatrix.zeros(1), uniform_idempotent(2)])
        p = as_potent(m, 2)
        rep = analyze_structure(p)
        assert [b.indices for b in rep.blocks] == list(p.tri.components)
        assert all(b.block_is_indecomposable for b in rep.blocks)

    def test_zeros_split_by_a_nonzero_block_stay_apart(self):
        # the rank-one idempotent (1,1,0)^T (0,1,1): zero, nonzero, zero, so 3 = 2k + 1 blocks
        p = as_potent(RMatrix.from_rows([[0, 1, 1], [0, 1, 1], [0, 0, 0]]), 2)
        rep = analyze_structure(p)
        assert [b.is_zero for b in rep.blocks] == [True, False, True]
        assert rep.total_count == 2 * rep.k + 1
        assert rep.bounds_ok

    def test_eighteen_components(self):
        blocks = [RMatrix.from_rows([[1]]) for _ in range(16)] + [RMatrix.zeros(1), RMatrix.zeros(1)]
        p = as_potent(block_diagonal(blocks), 2)
        assert len(p.tri.components) == 18
        rep = analyze_structure(p)
        assert rep.total_count == 17 and rep.nonzero_count == 16
        assert [b.size for b in rep.blocks if b.is_zero] == [2]
        assert rep.bounds_ok

    def test_wrapped_families_merge_into_zero_submatrices(self):
        for seed in range(30):
            r = (3, 4, 5)[seed % 3]
            p = random_singular_zero_diag(r, seed)
            rep = analyze_structure(p)
            assert rep.bounds_ok
            assert all(p.a.submatrix(b.indices).is_zero() for b in rep.blocks if b.is_zero)
            assert sorted(i for b in rep.blocks for i in b.indices) == list(range(p.a.n))

    def test_total_block_bound_after_separation(self):
        for seed in range(30):
            r = (2, 3, 4)[seed % 3]
            p = random_r_potent(r, r + seed % 3, seed, max_dim=14)
            assert analyze_structure(p).total_count <= 2 * p.rank + 1


class TestEveryZeroOneMatrixUpToThree:
    """All 87 potent 0/1 matrices with n <= 3 meet the bounds and check 4.1's contract."""

    def test_bounds_and_structure_contract(self, tmp_path, capsys):
        potent = 0
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n * n):
                rows = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
                p = minimal_potency(block_triangularize(RMatrix.from_rows(rows)))
                if not isinstance(p, Potent):
                    continue
                potent += 1
                path = tmp_path / "m.json"
                path.write_text(json.dumps({"n": n, "entries": rows}))
                assert main(["analyze", str(path), "--json"]) == 0, rows
                assert json.loads(capsys.readouterr().out)["structure"]["bounds_ok"], rows
                assert structure_case_ok(p)[0], rows
        assert potent == 87


class TestTriangularFamilyShapes:
    def test_coupled_wrap_keeps_rank_and_potency(self):
        b = cycle_matrix(3)
        m = triangular_family(as_potent(b, 4), [[1], [1], [1]])
        assert m.n == 4
        assert m.pow(4) == m
        assert m.rank() == 3

    def test_idempotent_wrap_from_unit(self):
        m = triangular_family(as_potent(RMatrix.from_rows([[1]]), 2), [[1]])
        assert m == RMatrix.from_rows([[1, 1], [0, 0]])
        assert m.pow(2) == m

    def test_zero_coupling_gives_block_diagonal(self):
        b = cycle_matrix(2)
        m = triangular_family(as_potent(b, 3), [[0], [0]])
        assert m == block_diagonal([b, RMatrix.zeros(1)])
