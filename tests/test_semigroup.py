"""Pattern closures, zero-entry equivalences, rank floors, permutation groups."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    rank_dominant_semigroup_generators,
    uniform_idempotent,
)
from rpotent.decomposition import BlockTriangularization, Digraph
from rpotent.matrix import PatternMatrix, Permutation, RMatrix
from rpotent.potency import as_potent
from rpotent.semigroup import (
    ClosureTruncated,
    PatternSemigroup,
    cyclic_semigroup,
    cyclic_semigroup_decomposable_check,
    equivalence_report,
    pattern_closure,
    rational_closure,
    semigroup_rank_floor_check,
    symmetric_group_analysis,
)
from rpotent.verification import run_check

from oracles import random_pattern_local, two_sided_closure, union_digraph_witness


def _patterns(n):
    row = st.integers(0, (1 << n) - 1)
    return st.lists(row, min_size=n, max_size=n).map(lambda rows: PatternMatrix(n, tuple(rows)))


def _pattern_generator_sets():
    return st.integers(1, 4).flatmap(lambda n: st.lists(_patterns(n), min_size=1, max_size=3))


def _exact_generator_sets():
    """1-3 partial transformation matrices, all conjugated by one diagonal D.

    D P D^-1 has entries in {0, 1, 2, 1/2, 4, 1/4} and the closure is D S D^-1
    for the finite closure S of the 0/1 matrices, so exact arithmetic with
    denominators is exercised while the O(|S|^2) oracle stays affordable.
    """

    def sets(n):
        transformation = st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
        factor = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)])
        scale = st.lists(factor, min_size=n, max_size=n)

        def build(d, images):
            return [
                RMatrix.from_rows(
                    [[d[i] / d[j] if j == c else 0 for j in range(n)] for i, c in enumerate(cols)]
                )
                for cols in images
            ]

        return st.builds(build, scale, st.lists(transformation, min_size=1, max_size=3))

    return st.integers(1, 4).flatmap(sets)


def _permutation_patterns(*images):
    return [Permutation(p).to_matrix().pattern() for p in images]


def _assert_matches_two_sided(gens, product, closure, cap):
    expected, truncated = two_sided_closure(gens, product, cap)
    assert closure.truncated == truncated
    if truncated:
        assert len(closure) == cap == len(expected)
    else:
        assert set(closure.members) == set(expected)
        assert len(closure) == len(expected)


class TestPatternClosure:
    def test_single_idempotent_pattern(self):
        p = uniform_idempotent(2).pattern()
        s = pattern_closure([p])
        assert len(s) == 1 and s.members == (p,)

    def test_cycle_pattern_closure(self):
        c = cycle_matrix(3).pattern()
        s = pattern_closure([c])
        assert len(s) == 3
        assert PatternMatrix.identity(3) in s.members

    def test_closure_is_a_fixed_point(self):
        rng = random.Random(77)
        for _ in range(30):
            gens = [random_pattern_local(rng, 4, 0.5) for _ in range(2)]
            s = pattern_closure(gens, cap=10_000)
            assert not s.truncated
            again = pattern_closure(list(s.members), cap=10_000)
            assert set(again.members) == set(s.members)

    def test_closed_under_product(self):
        rng = random.Random(13)
        for _ in range(20):
            gens = [random_pattern_local(rng, 3, 0.5)]
            s = pattern_closure(gens)
            members = set(s.members)
            for x in members:
                for y in members:
                    assert x * y in members

    def test_truncation_flag(self):
        rng = random.Random(1)
        gens = [random_pattern_local(rng, 4, 0.5) for _ in range(2)]
        s = pattern_closure(gens, cap=2)
        assert s.truncated
        with pytest.raises(ClosureTruncated):
            equivalence_report(s)


class TestGeneratorProductClosure:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_pattern_generator_sets(), st.integers(1, 5000))
    def test_pattern_closure_matches_two_sided_oracle(self, gens, cap):
        s = pattern_closure(gens, cap=cap)
        _assert_matches_two_sided(gens, operator.mul, s, cap)
        assert s.generator_count == len(set(gens))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_exact_generator_sets(), st.integers(1, 5000))
    def test_rational_closure_matches_two_sided_oracle(self, gens, cap):
        s = rational_closure(gens, cap=cap)
        _assert_matches_two_sided(gens, operator.matmul, s, cap)

    def test_seeded_random_closures_match_two_sided_oracle(self):
        # larger closures (up to a few hundred members) than hypothesis reaches
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 4)
            gens = [random_pattern_local(rng, n, rng.random()) for _ in range(rng.randint(1, 3))]
            cap = rng.randint(1, 5000)
            _assert_matches_two_sided(gens, operator.mul, pattern_closure(gens, cap=cap), cap)

    def test_symmetric_group_five_takes_one_product_per_member_and_generator(self, monkeypatch):
        calls = 0
        original = PatternMatrix.__mul__

        def counting(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(PatternMatrix, "__mul__", counting)
        s = pattern_closure(_permutation_patterns((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)))
        assert len(s) == 120 and not s.truncated
        assert calls == 120 * 2

    def test_symmetric_group_six(self):
        s = pattern_closure(_permutation_patterns((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)))
        assert len(s) == 720 and not s.truncated
        assert equivalence_report(s).zero_entry is None

    def test_truncated_closure_holds_exactly_cap_members(self):
        gens = _permutation_patterns((1, 0, 2, 3), (1, 2, 3, 0))
        for cap in (1, 2, 23):
            s = pattern_closure(gens, cap=cap)
            assert s.truncated and len(s) == cap
        s = pattern_closure(gens, cap=24)
        assert not s.truncated and len(s) == 24

    def test_duplicate_generators_count_once(self):
        c = cycle_matrix(3).pattern()
        s = pattern_closure([c, c, c * c], cap=3)
        assert s.generator_count == 2
        assert len(s) == 3 and not s.truncated
        assert pattern_closure([c, c * c], cap=1).truncated

    def test_argument_checks(self):
        c = cycle_matrix(3)
        for closure, gens in ((pattern_closure, [c.pattern()]), (rational_closure, [c])):
            with pytest.raises(ValueError):
                closure([])
            with pytest.raises(ValueError):
                closure(gens, cap=0)
        with pytest.raises(ValueError):
            pattern_closure([c.pattern(), cycle_matrix(4).pattern()])
        with pytest.raises(ValueError):
            rational_closure([c, cycle_matrix(4)])

    def test_union_pattern_agrees_between_pattern_and_exact_closures(self):
        for seed in range(6):
            r = (2, 3, 4)[seed % 3]
            gens = rank_dominant_semigroup_generators(r, 2, seed)
            exact = rational_closure(gens)
            boolean = pattern_closure([g.pattern() for g in gens])
            assert {m.pattern() for m in exact.members} == set(boolean.members)
            assert exact.union_pattern() == boolean.union_pattern()


class TestCommonZeroAndSum:
    def test_unit_projector_closure(self):
        s = pattern_closure([RMatrix.from_rows([[1, 0], [0, 0]]).pattern()])
        rep = equivalence_report(s)
        assert rep.zero_entry == (0, 1)
        assert rep.sum_has_zero

    def test_symmetric_group_has_no_common_zero(self):
        perms = [Permutation(p).to_matrix().pattern() for p in [(1, 0, 2), (1, 2, 0)]]
        s = pattern_closure(perms)
        rep = equivalence_report(s)
        assert rep.zero_entry is None
        assert not rep.sum_has_zero
        assert rep.witness is None

    def test_singleton_zero_matrix_sum_has_zero(self):
        s = pattern_closure([RMatrix.zeros(1).pattern()])
        rep = equivalence_report(s)
        assert rep.sum_has_zero
        assert rep.zero_entry == (0, 0)

    def test_block_tower_closure_has_off_block_zero(self):
        tower = block_diagonal([uniform_idempotent(k) for k in (1, 2, 3)])
        s = pattern_closure([tower.pattern()])
        rep = equivalence_report(s)
        assert rep.zero_entry is not None
        assert rep.consistent and rep.decomposable
        assert rep.offdiagonal_zero_entry is not None
        i, j = rep.offdiagonal_zero_entry
        assert i != j


class TestEquivalences:
    def test_three_way_agreement_on_random_closures(self):
        rng = random.Random(2024)
        complete = 0
        while complete < 1000:
            n = rng.randint(2, 4)
            gens = [random_pattern_local(rng, n, rng.uniform(0.15, 0.85))
                    for _ in range(rng.randint(1, 2))]
            s = pattern_closure(gens, cap=3000)
            if s.truncated:
                continue
            complete += 1
            rep = equivalence_report(s)
            assert rep.consistent
            assert (rep.witness is not None) == rep.sum_has_zero

    def test_one_union_per_report(self, monkeypatch):
        calls = []
        union = PatternSemigroup.union_pattern

        def counting(s):
            calls.append(s)
            return union(s)

        monkeypatch.setattr(PatternSemigroup, "union_pattern", counting)
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 5)
            s = pattern_closure([random_pattern_local(rng, n, 0.4) for _ in range(2)], cap=2000)
            if s.truncated:
                continue
            calls.clear()
            equivalence_report(s)
            assert calls == [s]

    def test_selector_pair_matches_zero_entry(self):
        s = pattern_closure([RMatrix.from_rows([[1, 0], [0, 0]]).pattern()])
        rep = equivalence_report(s)
        assert rep.selector_pair == rep.zero_entry
        i, j = rep.selector_pair
        for member in s.members:
            assert not member.get(i, j)


class TestSemigroupWitnessOracle:
    """The witness of ``equivalence_report`` against a direct sink search of the union's digraph."""

    def test_closures_of_random_generator_sets(self):
        rng = random.Random(17)
        kinds = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [random_pattern_local(rng, n, rng.uniform(0.1, 0.7)) for _ in range(rng.randint(1, 3))]
            s = pattern_closure(gens, cap=rng.choice((5, 60, 2000)))
            if s.truncated:
                kinds.add("truncated")
                with pytest.raises(ClosureTruncated):
                    equivalence_report(s)
                with pytest.raises(ClosureTruncated):
                    union_digraph_witness(s)
                continue
            witness = equivalence_report(s).witness
            kinds.add("decomposable" if witness else "indecomposable")
            assert witness == union_digraph_witness(s)
        assert kinds == {"truncated", "decomposable", "indecomposable"}

    def test_sets_that_are_not_closed(self):
        rng = random.Random(18)
        for _ in range(300):
            n = rng.randint(1, 6)
            members = tuple({random_pattern_local(rng, n, rng.uniform(0.05, 0.5)) for _ in range(rng.randint(1, 4))})
            s = PatternSemigroup(n, members, len(members), truncated=False)
            assert equivalence_report(s).witness == union_digraph_witness(s)


class TestCyclicSemigroup:
    def test_idempotent_gives_singleton(self):
        e = uniform_idempotent(2)
        s = cyclic_semigroup(as_potent(e, 2))
        assert s.members == (e,)

    def test_cycle_three_at_r_four(self):
        c = cycle_matrix(3)
        s = cyclic_semigroup(as_potent(c, 4))
        assert set(s.members) == {c, c.pow(2), RMatrix.identity(3)}

    def test_closure_property_exhaustive(self):
        for seed in range(20):
            r = (3, 4, 5)[seed % 3]
            s = cyclic_semigroup(random_r_potent(r, 1 + seed % 4, seed, max_dim=12))
            members = set(s.members)
            for x in members:
                for y in members:
                    assert x @ y in members

    def test_rejects_non_potent(self):
        # the semigroup is built from a checked value; non-potent input stops at the check
        with pytest.raises(ValueError, match="not 3-potent"):
            as_potent(RMatrix.from_rows([[0, 1], [0, 0]]), 3)


class TestCyclicSemigroupCheck:
    def test_high_rank_case_shares_a_permutation(self):
        for seed in range(20):
            r = (2, 3, 4)[seed % 3]
            rep = cyclic_semigroup_decomposable_check(random_r_potent(r, r + seed % 2, seed, max_dim=12))
            assert rep.prediction.agrees
            assert rep.applicable
            assert rep.all_triangular

    def test_indecomposable_case_not_applicable(self):
        rep = cyclic_semigroup_decomposable_check(as_potent(cycle_matrix(3), 4))
        assert not rep.applicable
        assert rep.prediction.case == "no_prediction"

    def test_one_component_search_of_a(self, monkeypatch):
        scc = Digraph.strongly_connected_components
        searched = []

        def counting(graph):
            searched.append(graph)
            return scc(graph)

        monkeypatch.setattr(Digraph, "strongly_connected_components", counting)
        for seed in range(8):
            r = (2, 3, 4)[seed % 3]
            p = random_r_potent(r, 1 + seed % 4, seed, max_dim=10)
            searched.clear()
            cyclic_semigroup_decomposable_check(p)
            assert searched == [Digraph.from_matrix(p.a)]

    def test_block_diagonal_is_trivially_common(self):
        m = block_diagonal([uniform_idempotent(1), uniform_idempotent(2)])
        rep = cyclic_semigroup_decomposable_check(as_potent(m, 2))
        assert rep.applicable and rep.all_triangular


class TestRationalClosure:
    def test_pattern_of_rational_words_matches_boolean_words(self):
        rng = random.Random(11)
        for seed in range(10):
            r = (2, 3, 4)[seed % 3]
            gens = rank_dominant_semigroup_generators(r, 2, seed)
            pats = [g.pattern() for g in gens]
            for _ in range(10):
                word = [rng.randrange(len(gens)) for _ in range(rng.randint(1, 4))]
                exact = gens[word[0]]
                boolean = pats[word[0]]
                for idx in word[1:]:
                    exact = exact @ gens[idx]
                    boolean = boolean * pats[idx]
                assert exact.pattern() == boolean

    def test_truncation(self):
        gens = [cycle_matrix(3)]
        s = rational_closure(gens, cap=2)
        assert s.truncated

    def test_infinite_semigroup_truncates_at_cap(self):
        s = rational_closure([RMatrix.from_rows([[2]])], cap=5)
        assert s.truncated
        assert set(s.members) == {RMatrix.from_rows([[2**k]]) for k in range(1, 6)}


class TestRankFloor:
    def test_single_high_rank_generator(self):
        for seed in range(10):
            r = (2, 3, 4)[seed % 3]
            a = random_r_potent(r, r + seed % 2, seed, max_dim=12).a
            rep = semigroup_rank_floor_check([a], r)
            assert rep.all_ok

    def test_family_generators(self):
        for seed in range(10):
            r = (2, 3, 4)[seed % 3]
            gens = rank_dominant_semigroup_generators(r, 1 + seed % 3, seed)
            rep = semigroup_rank_floor_check(gens, r)
            assert rep.all_ok
            assert rep.decomposable

    def test_all_zero_generator_is_vacuous(self):
        rep = semigroup_rank_floor_check([RMatrix.zeros(2)], 3)
        assert rep.all_ok
        assert all(not b.is_nonzero for b in rep.blocks)

    def test_rejects_non_potent_generators(self):
        with pytest.raises(ValueError):
            semigroup_rank_floor_check([RMatrix.from_rows([[0, 1], [0, 0]])], 3)
        # potent for no r, and its 10^10-th power would have 10^10-bit entries
        with pytest.raises(ValueError, match="every generator must be 10000000000-potent"):
            semigroup_rank_floor_check([RMatrix.from_rows([[2]])], 10**10)

    def test_generator_potent_at_a_large_multiple_of_its_period(self):
        # 3 divides 10^10 - 1, so the 3-cycle is 10^10-potent
        assert semigroup_rank_floor_check([cycle_matrix(3)], 10**10).all_ok

    def test_truncation_raises(self):
        with pytest.raises(ClosureTruncated):
            semigroup_rank_floor_check([cycle_matrix(3)], 4, cap=2)

    def test_klein_four_group_refutes_both_readings(self):
        # (12)(34) and (13)(24) generate the regular representation of Z2 x Z2:
        # four 3-potent members of rank 4 > r - 1 = 2 whose union pattern is
        # all ones.  So a semigroup of r-potents of rank > r - 1 need not be
        # decomposable (the reading behind check 6.3), and a block of its
        # triangularization need not hold a member of rank <= r - 1 (check 6.4).
        gens = [Permutation((1, 0, 3, 2)).to_matrix(), Permutation((2, 3, 0, 1)).to_matrix()]
        closure = rational_closure(gens, 100)
        assert len(closure) == 4 and not closure.truncated
        assert all(as_potent(m, 3).rank == 4 for m in closure.members)
        assert closure.union_pattern().is_full()
        assert equivalence_report(pattern_closure([g.pattern() for g in gens])).witness is None
        rep = semigroup_rank_floor_check(gens, 3)
        assert not rep.all_ok
        assert not rep.decomposable
        assert [(b.min_rank, b.floor_ok) for b in rep.blocks] == [(4, False)]


class TestSymmetricGroup:
    def test_n_two(self):
        rep = symmetric_group_analysis(2)
        assert rep.potency_counts == ((2, 1), (3, 1))
        assert rep.sum_positive and rep.indecomposable

    def test_n_three_classification(self):
        rep = symmetric_group_analysis(3)
        assert rep.potency_counts == ((2, 1), (3, 3), (4, 2))
        assert rep.max_potency == 4
        assert rep.sum_positive

    def test_n_four_classification(self):
        rep = symmetric_group_analysis(4)
        assert dict(rep.potency_counts) == {2: 1, 3: 9, 4: 8, 5: 6}
        assert rep.max_potency == 5

    def test_n_five_exceeds_the_single_cycle_classes(self):
        # cycle type 3+2 has lcm 6, so its potency is 7 even though the
        # largest single cycle only reaches 6
        rep = symmetric_group_analysis(5)
        assert rep.formula_mismatches == 0
        assert dict(rep.potency_counts)[6] > 0
        assert rep.max_potency == 7

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            symmetric_group_analysis(9)

    def test_check_does_not_read_the_block_periods(self, monkeypatch):
        # check 7.2 tests "minimal r = lcm of the cycle lengths + 1"; the block
        # periods of a permutation matrix are its cycle lengths, so a check
        # that read them would hold by construction
        def refuse(self):
            raise AssertionError("check 7.2 read the block periods")

        monkeypatch.setattr(BlockTriangularization, "periods", property(refuse))
        assert run_check("7.2").ok
