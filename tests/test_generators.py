"""Generator constructions: emission guarantees, determinism, rank targeting."""

import hashlib
import json
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
from rpotent.potency import NormalForm, Potent, is_r_potent, potent_at, zero_diagonal_powers

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

    ``_coupled(B, form, x)`` on one column of pool fractions, B^(r-1) x read
    off B's normal form, against the entry-by-entry oracle.
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
                core, form = generators._random_core(rng, r, 1 + seed % 4, 12)
                p = as_potent(core, r)
                k = core.n
                columns = [
                    [Fraction(0)] * k,
                    [Fraction(1 + i % 3, 2) for i in range(k)],
                    [Fraction(i % 4, 3) for i in range(k)],
                    [rng.choice(pool) for _ in range(k)],
                ]
                for x in columns:
                    m, wrapped = generators._coupled(core, form, x)
                    assert _same(m, fraction_triangular_family(p, [[c] for c in x])), (r, seed, x)
                    assert is_r_potent(m, r) and m.rank() == p.rank, (r, seed)
                    assert Potent.from_normal_form(m, r, wrapped).rank == p.rank, (r, seed)


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
        # every factorization is relabelled last; doubling G's denominator breaks G F = I
        relabelled = generators._relabelled

        def broken(a, form, p):
            m, form = relabelled(a, form, p)
            return m, form._replace(g_den=2 * form.g_den)

        monkeypatch.setattr(generators, "_relabelled", broken)
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


# each builds the list of checked values a generator emits for one seed
_EMITTED_POTENTS = {
    "r_potent": lambda seed: [_r_potent(seed)],
    "singular_zero_diag": lambda seed: [_singular(seed)],
    "rank_dominant_semigroup": lambda seed: rank_dominant_semigroup_generators((2, 3, 4)[seed % 3], 1 + seed % 3, seed),
}

# each builds the list of matrices a generator emits for one seed
_EMITTED = {
    "rank_one_padded": lambda seed: [random_rank_one_idempotent(1 + seed % 6, seed, True)],
    "rank_one_unpadded": lambda seed: [random_rank_one_idempotent(1 + seed % 6, seed, False)],
    "rank_one_default": lambda seed: [random_rank_one_idempotent(1 + seed % 6, seed)],
    **{family: lambda seed, build=build: [p.a for p in build(seed)] for family, build in _EMITTED_POTENTS.items()},
}

# SHA-256 of every (matrix, r, rank) that the three checked families emit over seeds 0-399
EMISSION_DIGEST = "70ad4170f134e1ec12effab43810e67705fab80f5b5ee223e704db685fc55227"


def test_emission_digest():
    """Every seeded draw of the checked families, pinned byte for byte with its r and rank.

    A change to a seeded draw, or to the rank the emission reports, moves the
    digest.  Each record is the JSON of ``[matrix, r, rank]``, with the
    matrix as ``matrix_to_json`` writes it.
    """
    digest = hashlib.sha256()
    for family in sorted(_EMITTED_POTENTS):
        for seed in SEEDS:
            for p in _EMITTED_POTENTS[family](seed):
                record = [json.loads(matrix_to_json(p.a)), p.r, p.rank]
                digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == EMISSION_DIGEST


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
    """The ``Potent`` a generator returns holds on a path other than the certificate that made it."""

    @pytest.mark.parametrize("build", [_r_potent, _singular])
    def test_power_and_rank(self, build):
        for seed in SEEDS:
            p = build(seed)
            assert p.a.pow(p.r) == p.a, seed
            assert p.rank == RMatrix.rank(p.a), seed

    @pytest.mark.parametrize("family", sorted(_EMITTED_POTENTS))
    def test_certificate_agrees_with_the_decision(self, family):
        # the rank k of the normal form against elimination, and F G against potent_at's checked power
        for seed in SEEDS:
            for p in _EMITTED_POTENTS[family](seed):
                assert p.normal_form is not None and p.rank == p.normal_form.k, seed
                assert p.rank == RMatrix.rank(p.a), seed
                decided = potent_at(p.a, p.r)
                assert (p.projection.den, p.projection.num) == (decided.projection.den, decided.projection.num), seed


def _dense(form: NormalForm) -> RMatrix:
    """F C G entry by entry in ``Fraction``s: the oracle of a hand-built factorization."""
    n, k = len(form.f), form.k
    f = [[Fraction(0)] * k for _ in range(n)]
    for i, (j, v) in enumerate(form.f):
        f[i][j] += v
    c = [[Fraction(0)] * k for _ in range(k)]
    for i, (j, v) in enumerate(form.c):
        c[i][j] += Fraction(v, form.c_den)
    g = [[Fraction(x, form.g_den) for x in row] for row in form.g]
    fc = [[sum((f[i][t] * c[t][j] for t in range(k)), Fraction(0)) for j in range(k)] for i in range(n)]
    return RMatrix([[sum((fc[i][t] * g[t][j] for t in range(k)), Fraction(0)) for j in range(n)] for i in range(n)])


# A = F C G with C = [[0, 2], [1/2, 0]], a 2-cycle whose scalars multiply to 1: 3-potent of rank 2
_FORM = NormalForm(f=((0, 1), (1, 1), (0, 0)), c=((1, 4), (0, 1)), c_den=2, g=((1, 0, 1), (0, 1, 0)), g_den=1)


class TestEmissionCertificate:
    """``Potent.from_normal_form`` accepts a true factorization and rejects each broken condition."""

    def test_hand_built_form(self):
        a = _dense(_FORM)
        assert a == RMatrix([[0, 2, 0], ["1/2", 0, "1/2"], [0, 0, 0]])
        p = generators._verify_emission(a, 3, 2, _FORM)
        assert p.rank == 2 == a.rank() and a.pow(3) == a
        assert p.projection == a.pow(2) == _dense(_FORM._replace(c=((0, 1), (1, 1)), c_den=1))
        assert generators._verify_emission(a, 5, None, _FORM).projection == p.projection

    @pytest.mark.parametrize(
        "case, r, form",
        [
            ("G F is not the identity", 3, _FORM._replace(g=((2, 0, 2), (0, 2, 0)))),
            ("C is not monomial", 3, _FORM._replace(c=((1, 4), (1, 1)))),
            ("does not divide r - 1", 4, _FORM),
            ("do not multiply to 1", 3, _FORM._replace(c=((1, 4), (0, 2)))),
        ],
    )
    def test_each_broken_condition_is_rejected(self, case, r, form):
        # the matrix is F C G of the broken factors, so only the named condition fails
        a = _dense(form)
        with pytest.raises(ValueError, match=case):
            Potent.from_normal_form(a, r, form)
        with pytest.raises(RuntimeError, match="generator emitted a matrix that is not r-potent"):
            generators._verify_emission(a, r, None, form)

    @pytest.mark.parametrize(
        "form",
        [
            _FORM._replace(g=((1, 0), (0, 1))),  # G is 2 x 2 for a 3 x 3 matrix
            _FORM._replace(f=((0, 1), (1, 1))),  # F has 2 rows
            _FORM._replace(f=((0, 1), (2, 1), (0, 0))),  # a column of F past k
            _FORM._replace(g_den=0),
        ],
    )
    def test_factors_of_the_wrong_shape_are_rejected(self, form):
        with pytest.raises(ValueError, match="do not fit"):
            Potent.from_normal_form(_dense(_FORM), 3, form)

    def test_one_changed_entry_is_rejected(self):
        num = [list(row) for row in _dense(_FORM).entries]
        for i, j in [(0, 0), (1, 1), (2, 2), (1, 2)]:
            changed = [list(row) for row in num]
            changed[i][j] += 1
            with pytest.raises(RuntimeError, match="A is not F C G"):
                generators._verify_emission(RMatrix(changed), 3, None, _FORM)

    def test_a_missed_target_rank_is_reported(self):
        with pytest.raises(RuntimeError, match="missed the target rank"):
            generators._verify_emission(_dense(_FORM), 3, 1, _FORM)


class TestEmissionBudget:
    """An emission is proved from its factors: no power, no rank and no triangularization of the matrix."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The calls of each costly routine, made anywhere (``"all"``) and inside an emission check (``"check"``)."""
        import rpotent.decomposition
        import rpotent.potency

        calls = {"all": [], "check": []}
        inside = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls["all"].append(name)
                if inside:
                    calls["check"].append(name)
                return original(*args, **kwargs)

            return call

        # _power_form too: C^-1 is read off C's rows, never taken as the power C^(r-2)
        for owner, name in [
            (RMatrix, "rank"),
            (RMatrix, "pow"),
            (rpotent.potency, "block_triangularize"),
            (rpotent.decomposition, "block_triangularize"),
            (generators, "_power_form"),
        ]:
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        verify = generators._verify_emission

        def checking(*args):
            inside.append(True)
            try:
                return verify(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(generators, "_verify_emission", checking)
        return calls

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 10**12 + 1])
    def test_r_potent_and_singular_families_take_none(self, calls, r):
        wrapped = 0
        for seed in range(30):
            p = random_r_potent(r, 1 + seed % 4, seed, max_dim=12)
            assert p.r == r and p.rank == 1 + seed % 4
            wrapped += not all(v for _, v in p.normal_form.f)  # a zero row of F: the coupled wrap
            if r >= 3:
                q = random_singular_zero_diag(r, seed)
                assert q.r == r and q.rank < q.a.n
        assert wrapped and calls["all"] == []

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_semigroup_generators_check_takes_none(self, calls, r):
        # the family builds A^s (x) B^t from powers of its cores; its emission check takes none
        for seed in range(20):
            assert rank_dominant_semigroup_generators(r, 1 + seed % 3, seed)
        assert "pow" in calls["all"] and calls["check"] == []


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
