"""Generator constructions: emission guarantees, determinism, rank targeting."""

import random
from fractions import Fraction

import pytest

from rpotent import generators
from rpotent.generators import (
    GENERATOR_KINDS,
    GeneratorSpec,
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    random_rank_one_idempotent,
    random_singular_zero_diag,
    rank_dominant_semigroup_generators,
    uniform_idempotent,
)
from rpotent.matrix import RMatrix, matrix_to_json
from rpotent.potency import is_r_potent, zero_diagonal_powers

from oracles import (
    as_potent,
    count_nonzero,
    decide,
    fraction_block_diagonal,
    fraction_cycle_matrix,
    fraction_random_idempotent,
    fraction_triangular_family,
    is_decomposable,
    is_positive,
    rank_one_idempotent,
)


def _same(m: RMatrix, oracle: RMatrix) -> bool:
    """Equal as values, and in the canonical ``(den, num)`` form that ``hash`` reads."""
    return m == oracle and hash(m) == hash(oracle) and (m.den, m.num) == (oracle.den, oracle.num)


class TestCycleMatrix:
    def test_length_one(self):
        assert cycle_matrix(1) == RMatrix([[1]])

    def test_length_three_matches_hand_value(self):
        assert cycle_matrix(3) == RMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_potency_for_divisor_lengths(self):
        assert is_r_potent(cycle_matrix(2), 5)
        assert is_r_potent(cycle_matrix(3), 4)
        assert not is_r_potent(cycle_matrix(3), 3)

    def test_is_length_plus_one_potent(self):
        for length in (1, 2, 3, 4, 5):
            assert decide(cycle_matrix(length)).r == length + 1

    def test_matches_fraction_oracle(self):
        for length in range(1, 9):
            assert _same(cycle_matrix(length), fraction_cycle_matrix(length))


class TestRankOneIdempotent:
    def test_uniform_half_matrix(self):
        m = rank_one_idempotent([1, 1], ["1/2", "1/2"])
        assert m == RMatrix([["1/2", "1/2"], ["1/2", "1/2"]])

    def test_unit_projector(self):
        assert rank_one_idempotent([1, 0], [1, 0]) == RMatrix([[1, 0], [0, 0]])

    def test_skew_weights(self):
        m = rank_one_idempotent([1, 2], ["1/3", "1/3"])
        assert m @ m == m
        assert m.rank() == 1

    def test_uniform_idempotent_is_the_canonical_outer_product(self):
        for k in range(1, 8):
            m = uniform_idempotent(k)
            reference = rank_one_idempotent([1] * k, [Fraction(1, k)] * k)
            assert (m.den, m.num) == (reference.den, reference.num) == (k, ((1,) * k,) * k)

    def test_rejects_bad_inner_product(self):
        with pytest.raises(ValueError, match="inner product"):
            rank_one_idempotent([1, 1], [1, 1])

    def test_random_family_is_idempotent_rank_one(self):
        for seed in range(60):
            m = random_rank_one_idempotent(2 + seed % 5, seed)
            assert m @ m == m
            assert m.rank() == 1

    def test_padded_plants_zero_diagonal(self):
        for seed in range(20):
            m = random_rank_one_idempotent(4, seed, padded=True)
            assert m.pattern().has_zero_diagonal_entry()

    def test_unpadded_is_positive(self):
        for seed in range(20):
            m = random_rank_one_idempotent(3, seed, padded=False)
            assert is_positive(m)


class TestBlockDiagonal:
    def test_single_block(self):
        assert block_diagonal([cycle_matrix(3)]) == cycle_matrix(3)

    def test_tower_is_the_canonical_example(self):
        r = 4
        tower = block_diagonal([uniform_idempotent(k) for k in range(1, r)])
        assert is_r_potent(tower, r)
        assert tower.rank() == r - 1
        assert is_decomposable(tower)

    def test_mixed_cycles_lcm_potency(self):
        m = block_diagonal([cycle_matrix(2), cycle_matrix(3)])
        assert decide(m).r == 7

    def test_matches_fraction_oracle(self):
        cases = [
            # mixed denominators: 1/2, 1/3 and 1/5 grids beside an integer block
            [uniform_idempotent(2), uniform_idempotent(3), cycle_matrix(2), uniform_idempotent(5)],
            [RMatrix([["2/3", "1/6"], [0, "5/4"]]), RMatrix([["7/10"]])],
            # zero blocks, alone, between others and as 1 x 1 blocks
            [RMatrix.zeros(3)],
            [RMatrix.zeros(1), uniform_idempotent(3), RMatrix.zeros(2), RMatrix.zeros(1)],
            [RMatrix([["1/2"]]), RMatrix([[3]]), RMatrix.zeros(1)],
        ]
        for seed in range(40):
            cases.append([random_rank_one_idempotent(1 + (seed + i) % 4, seed + i) for i in range(1 + seed % 4)])
        for blocks in cases:
            assert _same(block_diagonal(blocks), fraction_block_diagonal(blocks))


class TestTriangularFamily:
    """The wrap [[B, B^(r-1) x], [0, 0]] that ``random_r_potent`` and the ``triangular_family`` kind make.

    ``_coupled(B, B^(r-1), x)`` on one column of pool fractions, against the entry-by-entry oracle.
    """

    def test_rejects_non_potent_base(self):
        # the wrap takes a checked base block; a non-potent one stops at the check
        with pytest.raises(ValueError, match="not 2-potent"):
            as_potent(RMatrix([[2]]), 2)

    def test_seeded_cores_match_fraction_oracle(self):
        pool = generators._POOL_WITH_ZERO
        for r in (2, 3, 4, 5):
            for seed in range(12):
                rng = random.Random(seed)
                # the core of random_r_potent(r, target, seed, 12), drawn as it draws it
                core = generators._random_core(rng, r, 1 + seed % 4, 12)
                p = as_potent(core, r)
                k = core.n
                columns = [
                    [Fraction(0)] * k,
                    [Fraction(1 + i % 3, 2) for i in range(k)],
                    [Fraction(i % 4, 3) for i in range(k)],
                    [rng.choice(pool) for _ in range(k)],
                ]
                for x in columns:
                    m = generators._coupled(core, core.pow(r - 1), x)
                    assert _same(m, fraction_triangular_family(p, [[c] for c in x])), (r, seed, x)
                    assert is_r_potent(m, r) and m.rank() == p.rank, (r, seed)


class TestRandomRPotent:
    def test_emission_contract(self):
        for seed in range(80):
            r = (2, 3, 4, 5)[seed % 4]
            target = 1 + seed % 6
            p = random_r_potent(r, target, seed)
            m = p.a
            assert p.r == r and p.rank == target
            assert is_r_potent(m, r)
            assert m.rank() == target
            assert m.n <= 36

    def test_unreachable_targets(self):
        with pytest.raises(ValueError, match="unreachable"):
            random_r_potent(2, 0, 1)
        with pytest.raises(ValueError, match="unreachable"):
            random_r_potent(3, 40, 1, max_dim=36)

    def test_deterministic_per_seed(self):
        for seed in (0, 7, 123):
            a = random_r_potent(3, 4, seed).a
            b = random_r_potent(3, 4, seed).a
            assert a == b
            assert matrix_to_json(a) == matrix_to_json(b)

    def test_distinct_seeds_vary(self):
        outputs = {matrix_to_json(random_r_potent(3, 4, seed).a) for seed in range(10)}
        assert len(outputs) > 1

    def test_huge_exponent(self):
        # only the divisors of r - 1 up to the target rank are sought, so a
        # 13-digit r is as quick as a small one
        r = 10**12 + 1
        p = random_r_potent(r, 2, 0)
        assert p.r == r and p.rank == 2
        assert as_potent(p.a, r).rank == 2


class TestSingularZeroDiagFamily:
    def test_emission_contract(self):
        for seed in range(60):
            r = (3, 4, 5)[seed % 3]
            p = random_singular_zero_diag(r, seed)
            m = p.a
            assert p.r == r
            assert is_r_potent(m, r)
            assert m.rank() <= r - 1
            assert m.rank() < m.n
            assert zero_diagonal_powers(p) == set(range(1, r))

    def test_rejects_r_two(self):
        with pytest.raises(ValueError):
            random_singular_zero_diag(2, 1)

    def test_exponent_beyond_the_dimension_budget(self):
        # the target rank is drawn at most max_dim - 1 = 23, so every seed is reachable at r = 30
        for seed in range(8):
            p = random_singular_zero_diag(30, seed)
            assert p.r == 30
            assert 1 <= p.rank < p.a.n <= 24


class TestSemigroupFamilies:
    def test_generators_satisfy_the_rank_hypothesis(self):
        for seed in range(20):
            r = (2, 3, 4)[seed % 3]
            gens = rank_dominant_semigroup_generators(r, 1 + seed % 3, seed)
            for g in gens:
                assert g.r == r
                assert is_r_potent(g.a, r)
                assert g.rank == RMatrix.rank(g.a) > r - 1

    def test_rejects_r_below_two_up_front(self):
        # a caller's error, not a broken emission contract (RuntimeError)
        for r in (1, 0, -2):
            with pytest.raises(ValueError, match="^potency exponent must be at least 2$"):
                rank_dominant_semigroup_generators(r, 2, 3)

    def test_emission_check_reports_a_broken_contract(self, monkeypatch):
        monkeypatch.setattr(generators, "potent_at", lambda m, r: None)
        with pytest.raises(RuntimeError, match="generator emitted a matrix that is not r-potent"):
            rank_dominant_semigroup_generators(3, 2, 3)

    def test_products_of_generators_stay_in_hypothesis(self):
        rng = random.Random(5)
        for seed in range(10):
            r = (2, 3, 4)[seed % 3]
            gens = [g.a for g in rank_dominant_semigroup_generators(r, 2 + seed % 2, seed)]
            word = gens[0]
            for _ in range(3):
                word = word @ rng.choice(gens)
                assert is_r_potent(word, r)
                assert word.rank() > r - 1


SEEDS = range(400)


def _r_potent(seed: int):
    return random_r_potent((2, 3, 4, 5)[seed % 4], 1 + seed % 8, seed, max_dim=(14, 22, 30)[seed % 3])


def _singular(seed: int):
    return random_singular_zero_diag((3, 4, 5)[seed % 3], seed)


# each builds the list of matrices a generator emits for one seed
_EMITTED = {
    "rank_one_padded": lambda seed: [random_rank_one_idempotent(1 + seed % 6, seed, True)],
    "rank_one_unpadded": lambda seed: [random_rank_one_idempotent(1 + seed % 6, seed, False)],
    "rank_one_default": lambda seed: [random_rank_one_idempotent(1 + seed % 6, seed)],
    "r_potent": lambda seed: [_r_potent(seed).a],
    "singular_zero_diag": lambda seed: [_singular(seed).a],
    "rank_dominant_semigroup": lambda seed: [
        g.a for g in rank_dominant_semigroup_generators((2, 3, 4)[seed % 3], 1 + seed % 3, seed)
    ],
}


@pytest.mark.parametrize("family", sorted(_EMITTED))
def test_integer_grid_idempotents_match_the_fraction_oracle(monkeypatch, family):
    """Equal ``(den, num)`` with the ``Fraction`` idempotent oracle over seeds 0-399.

    The oracle makes the same ``rng`` draws, so equal grids over a whole
    family also show that no later draw moved.
    """

    def grids():
        return [[(m.den, m.num) for m in _EMITTED[family](seed)] for seed in SEEDS]

    on_grid = grids()
    monkeypatch.setattr(generators, "_random_idempotent", fraction_random_idempotent)
    assert on_grid == grids()


class TestEmittedPotent:
    """The ``Potent`` a generator returns holds on a path other than the walk that made it."""

    @pytest.mark.parametrize("build", [_r_potent, _singular])
    def test_power_and_rank(self, build):
        for seed in SEEDS:
            p = build(seed)
            assert p.a.pow(p.r) == p.a, seed
            assert p.rank == RMatrix.rank(p.a), seed


class TestGeneratorSpec:
    def test_cycle_kind(self):
        assert GeneratorSpec("cycle", params={"length": 3}).build() == cycle_matrix(3)

    def test_kronecker_kind_deterministic(self):
        spec = GeneratorSpec("kronecker", seed=7, params={"r": 3, "rank": 4})
        assert spec.build() == spec.build()

    def test_block_diagonal_kind(self):
        m = GeneratorSpec("block_diagonal", params={"sizes": [1, 2, 3]}).build()
        assert m.rank() == 3
        assert is_r_potent(m, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            GeneratorSpec("nope").build()

    def test_permutation_kind(self):
        m = GeneratorSpec("permutation", seed=3, params={"n": 5}).build()
        assert count_nonzero(m.pattern()) == 5

    def test_a_fractional_size_is_refused_not_truncated(self):
        with pytest.raises(TypeError):
            GeneratorSpec("cycle", params={"length": 5.7}).build()

    @pytest.mark.parametrize("kind", sorted(GENERATOR_KINDS))
    def test_every_kind_rejects_a_foreign_parameter(self, kind):
        with pytest.raises(TypeError, match="'foreign'"):
            GeneratorSpec(kind, params={"foreign": 1}).build()
