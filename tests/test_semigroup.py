"""Pattern closures, zero-entry equivalences, rank floors, permutation groups."""

import functools
import itertools
import operator
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

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
from rpotent.decomposition import BlockTriangularization, Digraph, block_triangularize
from rpotent.matrix import PatternMatrix, Permutation, RMatrix, load_matrix
from rpotent import cli
import rpotent.potency
from rpotent.potency import main_decomposability_test
import rpotent.semigroup
from rpotent.semigroup import (
    PatternSemigroup,
    equivalence_report,
    generator_blocks,
    generator_reach,
    pattern_closure,
    rational_closure,
    semigroup_rank_floor_check,
    symmetric_group_analysis,
)
from rpotent.verification import run_check, semigroup_family_cases

from oracles import (
    as_potent,
    member_union_rank_floor,
    naive_multiply,
    naive_power,
    per_member_rank_floor,
    random_pattern_local,
    right_product_closure,
    small_patterns,
    two_sided_closure,
    union_digraph_witness,
)

GOLDEN = Path(__file__).parent / "golden"


def _patterns(n):
    row = st.integers(0, (1 << n) - 1)
    return st.lists(row, min_size=n, max_size=n).map(lambda rows: PatternMatrix(n, tuple(rows)))


def _pattern_generator_sets(max_n=4):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(_patterns(n), min_size=1, max_size=3))


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
                RMatrix(
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
        assert PatternMatrix(3, (0b001, 0b010, 0b100)) in s.members

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

    def test_members_are_built_on_first_read(self):
        gens = _permutation_patterns((1, 0, 2, 3), (1, 2, 3, 0))
        s = pattern_closure(gens)
        assert "members" not in vars(s) and len(s) == 24
        assert s.members == tuple(PatternMatrix(4, rows) for rows in s.member_rows)
        assert s.members is s.members

    def test_bare_semigroup_command_builds_no_member_pattern(self, monkeypatch, capsys):
        closures, made = [], []

        def closing(*args, **kwargs):
            closures.append(pattern_closure(*args, **kwargs))
            return closures[-1]

        make = PatternMatrix._make.__func__

        def making(cls, n, rows):
            made.append(rows)
            return make(cls, n, rows)

        monkeypatch.setattr(cli, "pattern_closure", closing)
        monkeypatch.setattr(PatternMatrix, "_make", classmethod(making))
        s8 = [str(GOLDEN / "transposition_8.json"), str(GOLDEN / "cycle_8.json")]
        assert cli.main(["semigroup", *s8]) == 0
        (closure,) = closures
        assert len(closure) == 10_000 and closure.truncated
        # only the products of the generator reach are patterns, not one per member
        assert "members" not in vars(closure) and len(made) < 20
        assert '"closure_size": 10000' in capsys.readouterr().out

    def test_truncated_closure_lies_inside_the_generator_reach(self):
        rng = random.Random(1)
        gens = [random_pattern_local(rng, 4, 0.5) for _ in range(2)]
        s = pattern_closure(gens, cap=2)
        assert s.truncated
        reach = generator_reach(gens)
        assert s.union_pattern() | reach == reach
        complete = pattern_closure(gens)
        assert not complete.truncated and complete.union_pattern() == reach


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
        # counts the products the closure routine makes, whatever computes them
        calls = 0
        original = rpotent.semigroup._close

        def counting_close(generators, product):
            def counted(x, g):
                nonlocal calls
                calls += 1
                return product(x, g)

            return original(generators, counted)

        monkeypatch.setattr(rpotent.semigroup, "_close", counting_close)
        s = pattern_closure(_permutation_patterns((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)))
        assert len(s) == 120 and not s.truncated
        assert calls == 120 * 2

    @staticmethod
    def _assert_matches_the_bit_loop(gens, limit=1000):
        """At caps 1, 2 and around the closure's size, the members in order as the bit-loop reference admits them."""
        size = len(right_product_closure(gens, limit)[0])
        for cap in sorted({1, 2, size - 1, size, size + 1} - {0}):
            members, truncated, distinct = right_product_closure(gens, cap)
            s = pattern_closure(gens, cap=cap)
            assert s.members == tuple(members), (gens, cap)
            assert (s.truncated, s.generator_count) == (truncated, distinct), (gens, cap)

    def test_every_single_generator_up_to_three_matches_the_bit_loop(self):
        for p in small_patterns():
            self._assert_matches_the_bit_loop([p])

    def test_seeded_generator_sets_across_row_chunks_match_the_bit_loop(self):
        # 1-3 generators, each after the first an equal copy of an earlier one a
        # third of the time, at every n up to 20 and again at 7, 8, 9, 16 and 17,
        # on either side of an 8-column chunk
        rng = random.Random(25)
        for n in [*range(1, 21), 7, 8, 9, 16, 17]:
            for _ in range(3):
                density = rng.choice([0.05, 0.1, 0.15, 0.3, 0.6])
                gens = [random_pattern_local(rng, n, density)]
                for _ in range(rng.randint(0, 2)):
                    copy = rng.random() < 1 / 3
                    gens.append(PatternMatrix(n, rng.choice(gens).rows) if copy else random_pattern_local(rng, n, density))
                self._assert_matches_the_bit_loop(gens)

    def test_symmetric_group_six(self):
        gens = _permutation_patterns((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
        s = pattern_closure(gens)
        assert len(s) == 720 and not s.truncated
        assert equivalence_report(*generator_blocks(gens)).zero_entry is None

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
            gens = [g.a for g in rank_dominant_semigroup_generators(r, 2, seed)]
            exact = rational_closure(gens)
            boolean = pattern_closure([g.pattern() for g in gens])
            assert {m.pattern() for m in exact.members} == set(boolean.members)
            assert exact.union_pattern() == boolean.union_pattern()


class TestCommonZeroAndSum:
    def test_unit_projector_closure(self):
        rep = equivalence_report(*generator_blocks([RMatrix([[1, 0], [0, 0]]).pattern()]))
        assert rep.zero_entry == (0, 1)
        assert rep.sum_has_zero

    def test_symmetric_group_has_no_common_zero(self):
        perms = [Permutation(p).to_matrix().pattern() for p in [(1, 0, 2), (1, 2, 0)]]
        rep = equivalence_report(*generator_blocks(perms))
        assert rep.zero_entry is None
        assert not rep.sum_has_zero
        assert rep.witness is None

    def test_singleton_zero_matrix_sum_has_zero(self):
        rep = equivalence_report(*generator_blocks([RMatrix.zeros(1).pattern()]))
        assert rep.sum_has_zero
        assert rep.zero_entry == (0, 0)

    def test_one_by_one_semigroups_are_consistent(self):
        # no proper nonempty index set exists at n = 1, so a common zero
        # comes without a witness and the equivalence does not apply
        for entry in (0, 1):
            rep = equivalence_report(*generator_blocks([PatternMatrix(1, (entry,))]))
            assert rep.consistent and not rep.decomposable and rep.witness is None
            assert rep.sum_has_zero == (entry == 0)

    def test_block_tower_closure_has_off_block_zero(self):
        tower = block_diagonal([uniform_idempotent(k) for k in (1, 2, 3)])
        rep = equivalence_report(*generator_blocks([tower.pattern()]))
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
            rep = equivalence_report(*generator_blocks(gens))
            assert rep.consistent
            assert (rep.witness is not None) == rep.sum_has_zero

    def test_report_takes_log_many_products_and_no_closure(self, monkeypatch):
        products = 0
        product = PatternMatrix.__mul__

        def counting(self, other):
            nonlocal products
            products += 1
            return product(self, other)

        def refuse(*args, **kwargs):
            raise AssertionError("the report enumerated the semigroup")

        monkeypatch.setattr(PatternMatrix, "__mul__", counting)
        monkeypatch.setattr(rpotent.semigroup, "_close", refuse)  # behind both closures
        rng = random.Random(9)
        for n in range(1, 9):
            bound = (n - 1).bit_length() + 1  # ceil(log2 n) + 1
            for _ in range(20):
                gens = [random_pattern_local(rng, n, rng.uniform(0.05, 0.5)) for _ in range(rng.randint(1, 3))]
                products = 0
                equivalence_report(*generator_blocks(gens))
                assert products <= bound
            # the n-cycle needs walks of all n lengths, so it takes the whole bound
            products = 0
            assert not equivalence_report(*generator_blocks([cycle_matrix(n).pattern()])).decomposable
            assert products == bound

    def test_zero_entries_vanish_on_every_member(self):
        rng = random.Random(10)
        checked = 0
        while checked < 100:
            n = rng.randint(2, 4)
            gens = [random_pattern_local(rng, n, rng.uniform(0.1, 0.6)) for _ in range(rng.randint(1, 2))]
            s = pattern_closure(gens, cap=3000)
            rep = equivalence_report(*generator_blocks(gens))
            if s.truncated or rep.zero_entry is None:
                continue
            checked += 1
            for member in s.members:
                assert not member.get(*rep.zero_entry)
                assert not member.get(*rep.offdiagonal_zero_entry)


class TestGeneratorReach:
    """G+ against the union pattern of the enumerated closure."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_pattern_generator_sets(max_n=5), st.integers(1, 2000))
    def test_matches_the_enumerated_union(self, gens, cap):
        reach = generator_reach(gens)
        s = pattern_closure(gens, cap=cap)
        if s.truncated:
            assert s.union_pattern() | reach == reach
        else:
            assert reach == s.union_pattern()

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="at least one generator"):
            generator_reach([])
        with pytest.raises(ValueError, match="dimension mismatch"):
            generator_reach([PatternMatrix(2, (0b01, 0b10)), PatternMatrix(3, (0b001, 0b010, 0b100))])


class TestSemigroupWitnessOracle:
    """The witness of ``equivalence_report`` against a direct sink search of the union's digraph."""

    def test_closures_of_random_generator_sets(self):
        rng = random.Random(17)
        kinds = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [random_pattern_local(rng, n, rng.uniform(0.1, 0.7)) for _ in range(rng.randint(1, 3))]
            s = pattern_closure(gens, cap=rng.choice((5, 60, 2000)))
            witness = equivalence_report(*generator_blocks(gens)).witness
            if s.truncated:
                kinds.add("truncated")
                with pytest.raises(ValueError, match="truncated"):
                    union_digraph_witness(s)
                s = pattern_closure(gens)
                assert not s.truncated
            else:
                kinds.add("decomposable" if witness else "indecomposable")
            assert witness == union_digraph_witness(s)
        assert kinds == {"truncated", "decomposable", "indecomposable"}

    def test_sets_that_are_not_closed(self):
        rng = random.Random(18)
        for _ in range(300):
            n = rng.randint(1, 6)
            members = tuple({random_pattern_local(rng, n, rng.uniform(0.05, 0.5)) for _ in range(rng.randint(1, 4))})
            s = PatternSemigroup(n, tuple(m.rows for m in members), len(members), truncated=False)
            assert equivalence_report(*generator_blocks(list(members))).witness == union_digraph_witness(s)


class TestCyclicSemigroup:
    def test_idempotent_gives_singleton(self):
        e = uniform_idempotent(2)
        assert list(as_potent(e, 2).power_cycle()) == [e]

    def test_cycle_three_at_r_four(self):
        c = cycle_matrix(3)
        assert set(as_potent(c, 4).power_cycle()) == {c, c.pow(2), RMatrix.identity(3)}

    def test_closure_property_exhaustive(self):
        for seed in range(20):
            r = (3, 4, 5)[seed % 3]
            members = set(random_r_potent(r, 1 + seed % 4, seed, max_dim=12).power_cycle())
            for x in members:
                for y in members:
                    assert x @ y in members

    def test_rejects_non_potent(self):
        # the powers are read off a checked value; non-potent input stops at the check
        with pytest.raises(ValueError, match="not 3-potent"):
            as_potent(RMatrix([[0, 1], [0, 0]]), 3)


class TestCyclicSemigroupCheck:
    def test_high_rank_case_shares_a_permutation(self):
        for seed in range(20):
            r = (2, 3, 4)[seed % 3]
            p = random_r_potent(r, r + seed % 2, seed, max_dim=12)
            assert main_decomposability_test(p).agrees
            assert not p.tri.is_trivial
            assert all(p.per_exponent(p.tri.is_respected_by))

    def test_indecomposable_case_not_applicable(self):
        p = as_potent(cycle_matrix(3), 4)
        assert p.tri.is_trivial
        assert main_decomposability_test(p).case == "no_prediction"

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
            # the facts check 6.1 reads: the prediction and the triangularization of every power
            main_decomposability_test(p)
            p.tri.is_trivial or all(p.per_exponent(p.tri.is_respected_by))
            assert searched == [Digraph(p.a.pattern())]

    def test_block_diagonal_is_trivially_common(self):
        m = block_diagonal([uniform_idempotent(1), uniform_idempotent(2)])
        p = as_potent(m, 2)
        assert not p.tri.is_trivial and all(p.per_exponent(p.tri.is_respected_by))


class TestRationalClosure:
    def test_pattern_of_rational_words_matches_boolean_words(self):
        rng = random.Random(11)
        for seed in range(10):
            r = (2, 3, 4)[seed % 3]
            gens = [g.a for g in rank_dominant_semigroup_generators(r, 2, seed)]
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
        s = rational_closure([RMatrix([[2]])], cap=5)
        assert s.truncated
        assert set(s.members) == {RMatrix([[2**k]]) for k in range(1, 6)}


def _rank_floor(gens, **kwargs):
    """``semigroup_rank_floor_check`` on the blocks of the generators' G+, as ``semigroup --r`` calls it."""
    _, components = generator_blocks([p.pattern for p in gens])
    return semigroup_rank_floor_check(gens, components, **kwargs)


def _klein_pair():
    """(12)(34) and (13)(24), 3-potent of rank 4, which generate Z2 x Z2."""
    return [Permutation((1, 0, 3, 2)).to_matrix(), Permutation((2, 3, 0, 1)).to_matrix()]


class TestRankFloor:
    def test_single_high_rank_generator(self):
        for seed in range(10):
            r = (2, 3, 4)[seed % 3]
            rep = _rank_floor([random_r_potent(r, r + seed % 2, seed, max_dim=12)])
            assert rep.all_ok

    def test_family_generators(self):
        for seed in range(10):
            r = (2, 3, 4)[seed % 3]
            rep = _rank_floor(rank_dominant_semigroup_generators(r, 1 + seed % 3, seed))
            assert rep.all_ok
            assert rep.decomposable

    def test_all_zero_generator_is_vacuous(self):
        rep = _rank_floor([as_potent(RMatrix.zeros(2), 3)])
        assert rep.all_ok
        assert all(not b.is_nonzero for b in rep.blocks)

    def test_generators_checked_at_different_exponents_are_refused(self):
        c3 = cycle_matrix(3)
        with pytest.raises(ValueError, match=r"one exponent, got \[4, 7\]"):
            _rank_floor([as_potent(c3, 4), as_potent(c3, 7)])
        with pytest.raises(ValueError, match=r"one exponent, got \[\]"):
            semigroup_rank_floor_check([], [(0,)])

    def test_cap_is_keyword_only(self):
        # a call f(gens, components, r) must not read r as the cap
        with pytest.raises(TypeError):
            semigroup_rank_floor_check([as_potent(cycle_matrix(3), 4)], [(0, 1, 2)], 4)

    def test_decides_no_generator_potency(self, monkeypatch):
        # the generators' Potents are reused, and at r - 1 <= n every other
        # member is decided by a walk in the closure's own products: no
        # member takes potent_at, no potency is decided from block periods,
        # and the complete closure makes exactly |S|·|G| exact products
        gens = rank_dominant_semigroup_generators(3, 2, 4)
        assert all(3 - 1 <= p.a.n for p in gens)
        _, components = generator_blocks([p.pattern for p in gens])
        decided, by_periods = [], []
        products = 0
        potent_at = rpotent.semigroup.potent_at
        minimal_potency = rpotent.potency.minimal_potency
        matmul = RMatrix.__matmul__

        def recorded(m, r):
            decided.append(m)
            return potent_at(m, r)

        def recorded_periods(t):
            by_periods.append(t.source)
            return minimal_potency(t)

        def counted(x, y):
            nonlocal products
            products += 1
            return matmul(x, y)

        monkeypatch.setattr(rpotent.semigroup, "potent_at", recorded)
        monkeypatch.setattr(rpotent.potency, "minimal_potency", recorded_periods)
        monkeypatch.setattr(RMatrix, "__matmul__", counted)
        rep = semigroup_rank_floor_check(gens, components)
        monkeypatch.undo()
        matrices = list(dict.fromkeys(p.a for p in gens))
        members = rational_closure(matrices).members
        assert len(members) > len(matrices)
        assert decided == []
        assert by_periods == []
        assert products == len(members) * len(matrices)
        assert rep.all_ok and rep.decomposable and rep.closure_size == len(members)

    def test_triangularizes_no_generator(self, monkeypatch):
        # G+ is read off the generators' patterns, so a generator checked by
        # its normal form (no triangularization held) gets none; at r - 1 <= n
        # no member gets one either, and past it (the Klein pair at
        # r = 7 > 4 + 1) neither the generators nor the other members get one:
        # each is a permutation, decided by its cycles
        triangularized = []
        original = rpotent.potency.block_triangularize

        def recorded(a):
            triangularized.append(a)
            return original(a)

        gens = rank_dominant_semigroup_generators(3, 2, 4)
        assert not any("tri" in vars(p) for p in gens)
        monkeypatch.setattr(rpotent.potency, "block_triangularize", recorded)
        assert _rank_floor(gens).all_ok
        assert triangularized == []
        assert not any("tri" in vars(p) for p in gens)

        klein = _klein_pair()
        potents = [as_potent(g, 7) for g in klein]
        assert triangularized == []
        assert _rank_floor(potents).closure_size == 4
        assert triangularized == []
        assert len(rational_closure(klein).members) == 4

    def test_generator_potent_at_a_large_multiple_of_its_period(self):
        # 3 divides 10^10 - 1, so the 3-cycle is 10^10-potent
        p = rpotent.potency.potent_at(cycle_matrix(3), 10**10)
        assert _rank_floor([p]).all_ok

    def test_truncation_is_reported_as_data(self):
        rep = _rank_floor([as_potent(cycle_matrix(3), 4)], cap=2)
        assert rep.truncated and not rep.all_ok
        assert rep.to_dict() == {
            "closure_size": 2, "truncated": True, "decomposable": None, "blocks": [],
            "non_potent_member": None, "all_ok": False,
        }

    def test_klein_four_group_refutes_both_readings(self):
        # (12)(34) and (13)(24) generate the regular representation of Z2 x Z2:
        # four 3-potent members of rank 4 > r - 1 = 2 whose union pattern is
        # all ones.  So a semigroup of r-potents of rank > r - 1 need not be
        # decomposable (the reading behind check 6.3), and a block of its
        # triangularization need not hold a member of rank <= r - 1 (check 6.4).
        gens = _klein_pair()
        closure = rational_closure(gens, 100)
        assert len(closure) == 4 and not closure.truncated
        assert all(as_potent(m, 3).rank == 4 for m in closure.members)
        assert closure.union_pattern().is_full()
        assert equivalence_report(*generator_blocks([g.pattern() for g in gens])).witness is None
        rep = _rank_floor([as_potent(g, 3) for g in gens])
        assert not rep.all_ok
        assert not rep.decomposable
        assert [(b.min_rank, b.floor_ok) for b in rep.blocks] == [(4, False)]


def _bundled(name):
    return load_matrix(str(resources.files("rpotent") / "data" / f"{name}.json"))


def _word_length(gens, member, r, longest):
    """Re-check a reported member with the ``Fraction`` oracle: not r-potent, a product of the generators.

    Returns the length of the shortest word in ``gens`` whose product is ``member``.
    """
    assert naive_power(member, r) != member
    for length in range(1, longest + 1):
        for word in itertools.product(gens, repeat=length):
            if functools.reduce(naive_multiply, word) == member:
                return length
    raise AssertionError("the reported member is no product of the generators")


class TestRankFloorDecidesEveryMember:
    """A member that is not r-potent ends the closure and is reported; the floor is withheld."""

    @staticmethod
    def _refuted(gens, r):
        rep = _rank_floor([as_potent(g, r) for g in gens])
        assert not rep.truncated and not rep.all_ok
        assert rep.blocks == () and rep.decomposable is None
        assert rep.non_potent_member is not None
        assert rep.to_dict()["non_potent_member"] is rep.non_potent_member
        return rep

    def test_idempotent_pair_with_a_nilpotent_product(self):
        # every compression to a block of G+ is 0 or 1, so a test of the
        # blocks alone passes; the product itself is nilpotent
        a, b = RMatrix([[1, 1], [0, 0]]), RMatrix([[0, 0], [0, 1]])
        rep = self._refuted([a, b], 2)
        assert rep.non_potent_member == RMatrix([[0, 1], [0, 0]])
        assert rep.closure_size == 2
        assert _word_length([a, b], rep.non_potent_member, 2, 2) == 2

    def test_infinite_semigroup_is_decided_in_a_few_products(self, monkeypatch):
        # two idempotents whose products carry powers of 1/2: the closure is
        # infinite, and its first product that is not 4-potent settles it
        gens = [_bundled("decomposable_rank_one"), _bundled("indecomposable_rank_one")]
        potents = [as_potent(g, 4) for g in gens]
        products = 0
        matmul = RMatrix.__matmul__

        def counted(x, y):
            nonlocal products
            products += 1
            return matmul(x, y)

        monkeypatch.setattr(RMatrix, "__matmul__", counted)
        rep = _rank_floor(potents)
        assert products <= 10
        monkeypatch.undo()
        assert not rep.truncated and rep.non_potent_member is not None
        assert _word_length(gens, rep.non_potent_member, 4, 2) == 2

    def test_first_failure_is_a_product_of_three(self):
        a = RMatrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
        b = RMatrix([[0, 0, 1], [1, 0, 1], [1, 0, 0]])
        for word in itertools.product([a, b], repeat=2):
            product = naive_multiply(*word)
            assert naive_power(product, 3) == product
        rep = self._refuted([a, b], 3)
        assert _word_length([a, b], rep.non_potent_member, 3, 3) == 3


class TestRankFloorWalkAgainstPerMemberDecisions:
    """The floor that walks each member's word in the closure's products, against ``potent_at`` on every member."""

    @staticmethod
    def _assert_matches(gens, cap=rpotent.semigroup.DEFAULT_CLOSURE_CAP):
        rep = _rank_floor(gens, cap=cap)
        assert rep.to_dict() == per_member_rank_floor(gens, cap=cap).to_dict()
        return rep

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_seeded_families(self, r):
        for seed in range(10):
            self._assert_matches(rank_dominant_semigroup_generators(r, 1 + seed % 3, 100 * r + seed))

    def test_check_6_4_families_at_seed_8(self):
        # trials 1 and 10 close to the Klein four-group, whose one block holds no member of rank <= r - 1
        refuted = []
        for i, _, _, gens in semigroup_family_cases(50, 8):
            if not self._assert_matches(gens).all_ok:
                refuted.append(i)
        assert refuted == [1, 10]

    @pytest.mark.parametrize("r", [3, 7])  # the walk at r - 1 <= n = 4, the period route past it
    def test_klein_pair(self, r):
        rep = self._assert_matches([as_potent(g, r) for g in _klein_pair()])
        assert rep.closure_size == 4 and rep.all_ok == (r - 1 >= 4)  # every member has rank 4

    @pytest.mark.parametrize("r", [3, 4])  # the walk at r - 1 <= n = 2, the period route past it
    def test_bundled_rank_one_idempotents(self, r):
        # the semigroup is infinite, and its first product that is not r-potent ends the floor
        gens = [_bundled("decomposable_rank_one"), _bundled("indecomposable_rank_one")]
        rep = self._assert_matches([as_potent(g, r) for g in gens])
        assert rep.non_potent_member is not None and not rep.truncated

    @pytest.mark.parametrize("r", [2, 3])
    def test_rectangular_band(self, r):
        # u_i v_j^T with every v_j . u_i = 1: xyz = xz, so the order of a word's letters matters
        u1, u2, v1, v2 = (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)
        gens = [RMatrix([[a * b for b in v] for a in u]) for u, v in ((u1, v1), (u2, v2))]
        rep = self._assert_matches([as_potent(g, r) for g in gens])
        assert rep.closure_size == 4 and rep.all_ok

    def test_symmetric_group_three_on_six_points(self):
        # (12) and (123), fixing three more points: S3, of exponent 6, so 7-potent and walked at r - 1 <= n = 6
        gens = [Permutation(images).to_matrix() for images in ((1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5))]
        rep = self._assert_matches([as_potent(g, 7) for g in gens])
        assert rep.closure_size == 6

    def test_caps_around_a_complete_closure(self):
        # (C6 + C3) and (C6^2 + I3) generate Z6 x Z3: 18 members, 7-potent, walked at r - 1 <= n = 9
        c6, c3 = cycle_matrix(6), cycle_matrix(3)
        gens = [as_potent(block_diagonal([c6, c3]), 7), as_potent(block_diagonal([c6.pow(2), RMatrix.identity(3)]), 7)]
        size = _rank_floor(gens).closure_size
        assert size == 18
        for cap in (1, 2, size - 1, size):
            rep = self._assert_matches(gens, cap)
            assert rep.truncated == (cap < size)


class TestRankFloorBlocksFromTheReach:
    """The floor's blocks, read off G+, and their trace ranks, against the union of every member's pattern and exact ranks."""

    @pytest.mark.parametrize("seed", range(50))
    def test_check_6_4_families(self, seed):
        gens = rank_dominant_semigroup_generators((2, 3, 4)[seed % 3], 1 + seed % 3, seed)
        self._assert_matches_member_union(gens)

    def test_klein_pair(self):
        self._assert_matches_member_union([as_potent(g, 3) for g in _klein_pair()])

    @staticmethod
    def _assert_matches_member_union(gens):
        rep = _rank_floor(gens)
        assert not rep.truncated
        members = list(rational_closure([p.a for p in gens]).members)
        assert [(b.indices, b.min_rank) for b in rep.blocks] == member_union_rank_floor(members)
        assert rep.decomposable == equivalence_report(*generator_blocks([p.a.pattern() for p in gens])).decomposable


class TestSymmetricGroup:
    def test_n_two(self):
        rep = symmetric_group_analysis(2)
        assert rep.potency_counts == ((2, 1), (3, 1))
        assert rep.sum_positive

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
