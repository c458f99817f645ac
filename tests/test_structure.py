"""Block structure reports and the merge of adjacent zero components."""

import json
from importlib import resources
from pathlib import Path

import pytest

from rpotent import generators, potency
from rpotent.decomposition import block_triangularize
from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    random_singular_zero_diag,
    uniform_idempotent,
)
from rpotent.cli import _analysis_bundle, main
from rpotent.decomposition import BlockTriangularization
from rpotent.matrix import RMatrix, load_matrix
from rpotent.potency import Potent, is_r_potent, minimal_potency
from rpotent.structure import analyze_structure
from rpotent.verification import DEFAULT_SEED, decomposable_cases, structure_case_ok

from oracles import as_potent, bareiss_rank, decide, gauss_rank, period_by_diagonal_hits, small_zero_one_potents

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("rpotent").joinpath("data")


def _potents_at_r_and_r_plus_period(a: RMatrix) -> list[Potent]:
    """``a`` checked at its least r and at r + L; empty when ``a`` is not potent."""
    p = decide(a)
    if not isinstance(p, Potent):
        return []
    return [p, p.at(p.r + p.period)]


def _assert_blocks_match_the_old_path(p: Potent) -> None:
    """Each record of ``analyze_structure(p)`` against its diagonal block, built and checked exactly."""
    for rec in analyze_structure(p).blocks:
        blk = p.a.submatrix(rec.indices)
        assert rec.is_zero == blk.is_zero(), rec  # so every merged zero run is a zero submatrix
        assert rec.block_rank == bareiss_rank(blk), rec
        assert is_r_potent(blk, p.r), rec
        assert block_triangularize(blk).is_trivial == (not rec.is_zero or rec.size == 1), rec


def _assert_the_unreported_block_facts(p: Potent) -> None:
    """The facts revision 7 of the analyze schema no longer reports, against independent oracles.

    Each nonzero block's rank is its period, every zero block has rank 0 and
    spans a zero submatrix, the block ranks sum to rank A, and ``ok`` is the
    revision-6 formula, which also required every nonzero block rank to be
    at most r - 1 and the block ranks to sum to rank A.
    """
    blocks = analyze_structure(p).blocks
    for rec in blocks:
        blk = p.a.submatrix(rec.indices)
        if rec.is_zero:
            assert rec.block_rank == 0 and blk.is_zero(), rec
        else:
            assert rec.block_rank == period_by_diagonal_hits(blk.pattern()), rec
    assert sum(rec.block_rank for rec in blocks) == gauss_rank(p.a)
    bundle = _analysis_bundle(p.a, p.r)
    st, pot = bundle["structure"], bundle["potency"]
    blocks_ok = all(b["is_zero"] or b["block_rank"] <= p.r - 1 for b in st["blocks"])
    rank_sum_ok = sum(b["block_rank"] for b in st["blocks"]) == pot["rank"]
    revision_6_ok = (
        bundle["decomposability"]["oracle_agrees"]
        and pot["rank_trace_ok"]
        and bundle["prediction"]["agrees"]
        and blocks_ok
        and rank_sum_ok
        and st["bounds_ok"]
    )
    assert bundle["ok"] == revision_6_ok


class TestAnalyzeStructure:
    def test_uniform_tower(self):
        r = 4
        tower = block_diagonal([uniform_idempotent(k) for k in range(1, r)])
        p = as_potent(tower, r)
        rep = analyze_structure(p)
        assert rep.applicable
        assert p.rank == r - 1
        assert rep.nonzero_count == r - 1
        assert all(not b.is_zero and b.block_rank == 1 for b in rep.blocks)
        assert all(block_triangularize(p.a.submatrix(b.indices)).is_trivial for b in rep.blocks)
        assert rep.bounds_ok
        assert sum(b.block_rank for b in rep.blocks) == p.rank

    def test_kron_of_swaps(self):
        m = cycle_matrix(2).kron(cycle_matrix(2))
        p = as_potent(m, 3)
        rep = analyze_structure(p)
        assert rep.applicable
        assert p.rank == 4
        assert all(b.block_rank <= 2 for b in rep.blocks)
        assert 2 <= rep.nonzero_count <= 4
        assert sum(b.block_rank for b in rep.blocks) == p.rank
        assert rep.bounds_ok

    def test_indecomposable_is_flagged_not_applicable(self):
        rep = analyze_structure(as_potent(cycle_matrix(3), 4))
        assert not rep.applicable
        assert rep.total_count == 1

    def test_rejects_non_potent(self):
        # the report takes a checked value; non-potent input stops at the check
        with pytest.raises(ValueError, match="not 2-potent"):
            as_potent(RMatrix([[0, 1], [0, 0]]), 2)

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
            assert all(b.is_zero or b.block_rank <= r - 1 for b in rep.blocks)
            assert sum(b.block_rank for b in rep.blocks) == p.rank
            if rep.applicable:
                lower = -(-p.rank // (r - 1))
                assert lower <= rep.nonzero_count <= p.rank
            _assert_the_unreported_block_facts(p)


class TestBlockPotencyAgainstThePower:
    """Every block fact, read off the checked ``Potent``, against the diagonal block itself.

    The old path, which built each block, is the oracle: its rank by
    Bareiss elimination, its r-th power, and whether it is zero.
    """

    def test_every_zero_one_potent_up_to_three_at_r_and_r_plus_period(self):
        checked = 0
        for a, _ in small_zero_one_potents():
            for p in _potents_at_r_and_r_plus_period(a):
                _assert_blocks_match_the_old_path(p)
                _assert_the_unreported_block_facts(p)
                checked += 1
        assert checked == 2 * 87

    def test_every_potent_golden_and_bundled_input(self):
        sources = [*GOLDEN.glob("*.json"), *GOLDEN.glob("*.csv"), *DATA.iterdir()]
        reports = (".analyze.json", ".semigroup.json")
        inputs = [f for f in sources if f.name.endswith((".json", ".csv")) and not f.name.endswith(reports)]
        potent = 0
        for f in inputs:
            for p in _potents_at_r_and_r_plus_period(load_matrix(str(f))):
                _assert_blocks_match_the_old_path(p)
                potent += 1
        assert potent == 2 * 15

    def test_structure_check_families(self):
        # check 4.1's default family
        for _, _, _, p, _ in decomposable_cases(300, DEFAULT_SEED):
            _assert_blocks_match_the_old_path(p)

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
        reported = [(b["is_zero"], b["block_rank"]) for b in bundle["structure"]["blocks"]]
        assert reported == [(blk.is_zero(), bareiss_rank(blk)) for blk in blocks]
        assert all(is_r_potent(blk, r) for blk in blocks)


class TestAnalyzeBuildsNoBlock:
    """``analyze`` on a potent input computes one rank, that of A, and builds no diagonal block.

    Each input has L <= n: above n the potency decision checks every block
    at its own period first, and that builds the blocks.
    """

    @pytest.mark.parametrize(
        "name", ["padded_rational.csv", "diag_0_0_0_0_1_1.json", "block_order_tiebreak.json", "zero_3x3.json"]
    )
    def test_one_rank_and_no_block_at_r_and_r_plus_period(self, name, monkeypatch, capsys):
        path = str(GOLDEN / name)
        ranks, blocks = [], []
        rank = RMatrix.rank
        build_blocks = BlockTriangularization.__dict__["diagonal_blocks"].func
        monkeypatch.setattr(RMatrix, "rank", lambda a: ranks.append(a) or rank(a))
        monkeypatch.setattr(BlockTriangularization, "diagonal_blocks", property(lambda t: blocks.append(t) or build_blocks(t)))
        assert main(["analyze", path, "--json"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["structure"]["applicable"] and bundle["ok"]
        assert (len(ranks), len(blocks)) == (1, 0)
        minimal = bundle["potency"]["minimal_r"]
        ranks.clear()
        assert main(["analyze", path, "--json", "--r", str(2 * minimal - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["potency"]["is_r_potent"]
        assert (len(ranks), len(blocks)) == (1, 0)


class TestZeroRunMerge:
    """Each run of consecutive zero components of the sink-first order is one zero block."""

    def test_single_block_unchanged(self):
        rep = analyze_structure(as_potent(RMatrix.zeros(1), 2))
        assert not rep.applicable
        assert [(b.indices, b.is_zero, b.size) for b in rep.blocks] == [((0,), True, 1)]

    def test_two_adjacent_zeros_and_one_nonzero(self):
        # diag(0, 0, 1): the two zero components are adjacent, so they make one 2x2 zero block
        m = block_diagonal([RMatrix.zeros(1), RMatrix.zeros(1), RMatrix([[1]])])
        p = as_potent(m, 2)
        assert p.tri.block_sizes == (1, 1, 1)
        rep = analyze_structure(p)
        assert [(b.size, b.is_zero) for b in rep.blocks] == [(2, True), (1, False)]
        assert rep.total_count == 2 and rep.nonzero_count == 1
        assert rep.bounds_ok and [b.block_rank for b in rep.blocks] == [0, 1] and p.rank == 1

    def test_merged_block_is_indecomposable_only_at_size_one(self):
        for zeros in range(1, 6):
            m = block_diagonal([RMatrix.zeros(1)] * zeros + [RMatrix([[1]])])
            zero_block = analyze_structure(as_potent(m, 2)).blocks[0]
            assert zero_block.is_zero and zero_block.size == zeros
            assert block_triangularize(m.submatrix(zero_block.indices)).is_trivial == (zeros == 1)

    def test_already_alternating_is_unchanged(self):
        m = block_diagonal([RMatrix.zeros(1), uniform_idempotent(2)])
        p = as_potent(m, 2)
        rep = analyze_structure(p)
        assert [b.indices for b in rep.blocks] == list(p.tri.components)
        assert all(block_triangularize(p.a.submatrix(b.indices)).is_trivial for b in rep.blocks)

    def test_zeros_split_by_a_nonzero_block_stay_apart(self):
        # the rank-one idempotent (1,1,0)^T (0,1,1): zero, nonzero, zero, so 3 = 2k + 1 blocks
        p = as_potent(RMatrix([[0, 1, 1], [0, 1, 1], [0, 0, 0]]), 2)
        rep = analyze_structure(p)
        assert [b.is_zero for b in rep.blocks] == [True, False, True]
        assert rep.total_count == 2 * p.rank + 1
        assert rep.bounds_ok

    def test_eighteen_components(self):
        blocks = [RMatrix([[1]]) for _ in range(16)] + [RMatrix.zeros(1), RMatrix.zeros(1)]
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
        for a, r in small_zero_one_potents():
            p = decide(a)
            assert isinstance(p, Potent) and p.r == r, a
            potent += 1
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"n": a.n, "entries": a.num}))
            assert main(["analyze", str(path), "--json"]) == 0, a
            assert json.loads(capsys.readouterr().out)["structure"]["bounds_ok"], a
            assert structure_case_ok(p)[0], a
        assert potent == 87


def _wrap(p: Potent, column: list) -> RMatrix:
    """[[B, B^(r-1) x], [0, 0]] for the cycle B = ``p.a`` checked at r and one column x, from B's form F = G = I."""
    assert p.a == cycle_matrix(p.a.n)
    m, form = generators._coupled(p.a, generators._cycle_form(p.a.n), column)
    assert Potent.from_normal_form(m, p.r, form).rank == p.rank
    return m


class TestTriangularFamilyShapes:
    def test_coupled_wrap_keeps_rank_and_potency(self):
        b = cycle_matrix(3)
        m = _wrap(as_potent(b, 4), [1, 1, 1])
        assert m.n == 4
        assert m.pow(4) == m
        assert m.rank() == 3

    def test_idempotent_wrap_from_unit(self):
        m = _wrap(as_potent(RMatrix([[1]]), 2), [1])
        assert m == RMatrix([[1, 1], [0, 0]])
        assert m.pow(2) == m

    def test_zero_coupling_gives_block_diagonal(self):
        b = cycle_matrix(2)
        m = _wrap(as_potent(b, 3), [0, 0])
        assert m == block_diagonal([b, RMatrix.zeros(1)])
