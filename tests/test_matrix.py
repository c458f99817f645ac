"""Matrix core: exact algebra, patterns, permutations, serialization."""

import json
import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpotent.matrix import (
    PatternMatrix,
    Permutation,
    RMatrix,
    load_matrix,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_json,
)

from oracles import (
    bool_product,
    gauss_rank,
    kron_entry,
    naive_multiply,
    naive_power,
    random_small_matrix,
)

CYCLE3 = RMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
HALF = RMatrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])

_entry_pool = st.sampled_from([0, 0, 1, 2, Fraction(1, 2), Fraction(1, 3), 3])


def _matrix_strategy(max_n=5):
    def rows(n):
        return st.lists(
            st.lists(_entry_pool, min_size=n, max_size=n), min_size=n, max_size=n
        )

    return st.integers(min_value=1, max_value=max_n).flatmap(rows).map(RMatrix.from_rows)


# Entries with denominators up to 10^6, and zeros, for the differential tests
# of the integer backend against the Fraction oracles.
_wide_entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=1000, max_denominator=10**6),
)


def _wide_square(n):
    return st.lists(
        st.lists(_wide_entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RMatrix.from_rows)


_wide_pair = st.integers(1, 6).flatmap(lambda n: st.tuples(_wide_square(n), _wide_square(n)))


def _is_canonical(m):
    return m.den > 0 and gcd(m.den, *chain.from_iterable(m.num)) == 1


class TestIntegerBackend:
    @settings(max_examples=60, deadline=None)
    @given(_wide_pair)
    def test_product_matches_fraction_oracle(self, pair):
        a, b = pair
        assert a @ b == naive_multiply(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(_wide_square), st.integers(0, 5))
    def test_power_matches_fraction_oracle(self, a, k):
        assert a.pow(k) == naive_power(a, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(_wide_square))
    def test_rank_matches_fraction_oracle(self, a):
        assert a.rank() == gauss_rank(a)

    @settings(max_examples=30, deadline=None)
    @given(_wide_pair)
    def test_products_are_canonical(self, pair):
        a, b = pair
        for m in (a, b, a @ b, a.kron(b), a.submatrix(range(a.n - 1, -1, -1))):
            rebuilt = RMatrix.from_rows(m.entries)
            assert _is_canonical(m)
            assert m == rebuilt and hash(m) == hash(rebuilt)
            assert (m.den, m.num) == (rebuilt.den, rebuilt.num)
            assert m.to_json_dict() == rebuilt.to_json_dict()
        zero = a @ RMatrix.zeros(a.n)
        assert zero.den == 1 and zero.is_zero()

    def test_zero_matrix_has_unit_denominator(self):
        assert RMatrix.zeros(3).den == 1
        assert RMatrix.from_rows([["0/7", 0], [0, 0]]).den == 1
        assert (HALF @ RMatrix.zeros(2)).den == 1

    def test_entries_view_matches_public_grid(self):
        m = HALF @ HALF
        assert m.entries == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        assert m.entries is m.entries
        assert m.get(1, 0) == Fraction(1, 2) and m.trace() == 1

    def test_matrices_are_immutable(self):
        with pytest.raises(AttributeError):
            HALF.den = 3
        with pytest.raises(AttributeError):
            HALF.entries = ()

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: RMatrix(((Fraction(-1),),)), ValueError),
            (lambda: RMatrix(((1,),)), TypeError),
            (lambda: RMatrix(((Fraction(1), Fraction(0)), (0.5, Fraction(0)))), TypeError),
            (lambda: RMatrix.from_rows([["-1/2", 0], [0, 0]]), ValueError),
            (lambda: RMatrix.from_rows([[1.5]]), TypeError),
            (lambda: RMatrix.from_rows([[True]]), TypeError),
            (lambda: RMatrix.identity(0), ValueError),
            (lambda: RMatrix.zeros(0), ValueError),
            (lambda: RMatrix.diagonal([1, -1]), ValueError),
            (lambda: RMatrix.diagonal([False]), TypeError),
            (lambda: matrix_from_json(json.dumps({"n": 1, "entries": [[-3]]})), ValueError),
            (lambda: matrix_from_json(json.dumps({"n": 1, "entries": [[False]]})), TypeError),
            (lambda: matrix_from_json(json.dumps({"n": 1, "entries": [[0.5]]})), TypeError),
            (lambda: matrix_from_csv("1,-1\n0,0\n"), ValueError),
        ],
    )
    def test_public_constructors_reject_bad_entries(self, build, error):
        with pytest.raises(error):
            build()

    def test_permutation_matrix_is_built_through_validation(self):
        p = Permutation((2, 0, 1))
        m = p.to_matrix()
        assert m == RMatrix(tuple(tuple(Fraction(int(p(j) == i)) for j in range(3)) for i in range(3)))
        assert m.den == 1


class TestConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            RMatrix.from_rows([[1, -1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            RMatrix.from_rows([[1, 2, 3], [4, 5, 6]])

    def test_rejects_bad_entry_string(self):
        with pytest.raises(ValueError, match="parse"):
            RMatrix.from_rows([["nope"]])

    def test_string_entries_parse_exactly(self):
        m = RMatrix.from_rows([["1/3", "2"], ["0", "7/5"]])
        assert m.get(0, 0) == Fraction(1, 3)
        assert m.get(1, 1) == Fraction(7, 5)


class TestMultiply:
    def test_identity_is_neutral(self):
        assert RMatrix.identity(3) @ CYCLE3 == CYCLE3
        assert CYCLE3 @ RMatrix.identity(3) == CYCLE3

    def test_cycle_cubes_to_identity(self):
        assert CYCLE3 @ CYCLE3 @ CYCLE3 == RMatrix.identity(3)

    def test_half_matrix_is_idempotent(self):
        assert HALF @ HALF == HALF

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            CYCLE3 @ HALF

    def test_matches_naive_multiplication(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 6)
            a = random_small_matrix(rng, n)
            b = random_small_matrix(rng, n)
            assert a @ b == naive_multiply(a, b)

    def test_product_stays_nonnegative(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_small_matrix(rng, 4)
            b = random_small_matrix(rng, 4)
            assert all(x >= 0 for row in (a @ b).entries for x in row)


class TestPower:
    def test_power_zero_is_identity(self):
        assert CYCLE3.pow(0) == RMatrix.identity(3)

    def test_power_one_is_self(self):
        assert CYCLE3.pow(1) == CYCLE3

    def test_cycle_power_three_is_identity(self):
        assert CYCLE3.pow(3) == RMatrix.identity(3)

    def test_half_matrix_power_five(self):
        assert HALF.pow(5) == HALF

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            CYCLE3.pow(-1)

    @settings(max_examples=40, deadline=None)
    @given(_matrix_strategy(max_n=5), st.integers(0, 8), st.integers(0, 8))
    def test_power_is_additive(self, a, j, k):
        assert a.pow(j + k) == a.pow(j) @ a.pow(k)


class TestKron:
    def test_identity_factor(self):
        assert RMatrix.identity(1).kron(HALF) == HALF

    def test_rank_of_swap_kron_swap(self):
        swap = RMatrix.from_rows([[0, 1], [1, 0]])
        assert swap.kron(swap).rank() == 4

    def test_kron_of_cycle_and_idempotent_is_quadripotent(self):
        k = CYCLE3.kron(HALF)
        assert k.pow(4) == k

    def test_matches_entry_formula(self):
        rng = random.Random(3)
        a = random_small_matrix(rng, 3)
        b = random_small_matrix(rng, 2)
        k = a.kron(b)
        assert k.n == 6
        for i in range(6):
            for j in range(6):
                assert k.get(i, j) == kron_entry(a, b, i, j)


class TestRank:
    def test_zero_matrix(self):
        assert RMatrix.zeros(3).rank() == 0

    def test_half_matrix_rank_one(self):
        assert HALF.rank() == 1

    def test_cycle_full_rank(self):
        for length in (1, 2, 3, 4, 5):
            rows = [[0] * length for _ in range(length)]
            for j in range(length):
                rows[(j + 1) % length][j] = 1
            assert RMatrix.from_rows(rows).rank() == length

    def test_matches_gaussian_elimination(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 7)
            a = random_small_matrix(rng, n, density=rng.uniform(0.2, 0.9))
            assert a.rank() == gauss_rank(a)

    @settings(max_examples=60, deadline=None)
    @given(_matrix_strategy(max_n=5))
    def test_rank_agrees_with_oracle(self, a):
        assert a.rank() == gauss_rank(a)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.fractions(
                        min_value=0, max_value=50, max_denominator=97
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_rank_with_wide_denominators(self, rows):
        a = RMatrix.from_rows(rows)
        assert a.rank() == gauss_rank(a)

    def test_rank_on_dependent_rows_with_column_skips(self):
        a = RMatrix.from_rows(
            [
                [0, "1/2", 1, 0],
                [0, 1, 2, 0],
                [0, "1/3", "2/3", 0],
                [0, 0, 0, "5/7"],
            ]
        )
        assert a.rank() == 2
        assert gauss_rank(a) == 2


class TestTrace:
    def test_identity(self):
        assert RMatrix.identity(5).trace() == 5

    def test_cycle_has_zero_trace(self):
        assert CYCLE3.trace() == 0

    def test_cycle_cubed_has_full_trace(self):
        assert CYCLE3.pow(3).trace() == 3


class TestPattern:
    def test_zero_matrix_pattern(self):
        assert RMatrix.zeros(2).pattern() == PatternMatrix(2, (0, 0))

    def test_positive_matrix_pattern(self):
        assert HALF.pattern().is_full()

    def test_pattern_of_product_is_boolean_product(self):
        rng = random.Random(23)
        for _ in range(100):
            a = random_small_matrix(rng, 5, density=0.4)
            b = random_small_matrix(rng, 5, density=0.4)
            assert (a @ b).pattern() == a.pattern() * b.pattern()
            assert a.pattern() * b.pattern() == bool_product(a.pattern(), b.pattern())


class TestPatternMatrix:
    def test_from_packed_round_trip(self):
        p = PatternMatrix.from_packed(3, 0b101010101)
        assert p.to_bools() == [[True, False, True], [False, True, False], [True, False, True]]

    def test_union(self):
        a = PatternMatrix(2, (0b01, 0b00))
        b = PatternMatrix(2, (0b10, 0b01))
        assert (a | b).rows == (0b11, 0b01)

    def test_first_zero(self):
        assert PatternMatrix.full(2).first_zero() is None
        assert PatternMatrix(2, (0b11, 0b01)).first_zero() == (1, 1)

    def test_column_masks(self):
        p = PatternMatrix.from_bools([[True, False], [True, True]])
        assert p.column_masks() == (0b11, 0b10)


class TestConjugate:
    def test_identity_permutation(self):
        assert CYCLE3.conjugate(Permutation.identity(3)) == CYCLE3

    def test_swap_relabels_diagonal(self):
        d = RMatrix.diagonal([2, 3])
        assert d.conjugate(Permutation.transposition(2, 0, 1)) == RMatrix.diagonal([3, 2])

    def test_equals_matrix_conjugation(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 5)
            a = random_small_matrix(rng, n)
            p = Permutation.random(n, rng)
            pm = p.to_matrix()
            pinv = p.inverse().to_matrix()
            assert a.conjugate(p) == pinv @ a @ pm

    def test_preserves_rank_trace_and_potency(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 5)
            a = random_small_matrix(rng, n)
            p = Permutation.random(n, rng)
            b = a.conjugate(p)
            assert b.rank() == a.rank()
            assert b.trace() == a.trace()
            assert b.pow(3) == a.pow(3).conjugate(p)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_compose_and_inverse(self):
        rng = random.Random(2)
        for _ in range(20):
            p = Permutation.random(5, rng)
            assert p.compose(p.inverse()) == Permutation.identity(5)

    def test_cycle_lengths(self):
        p = Permutation((1, 0, 3, 4, 2))
        assert p.cycle_lengths() == (2, 3)

    def test_to_matrix_columns(self):
        p = Permutation((2, 0, 1))
        m = p.to_matrix()
        for j in range(3):
            assert m.get(p(j), j) == 1


class TestSerialization:
    def test_json_round_trip_exact(self):
        rng = random.Random(37)
        for _ in range(20):
            a = random_small_matrix(rng, rng.randint(1, 6))
            assert matrix_from_json(matrix_to_json(a)) == a

    def test_provenance_header_is_ignored_on_parse(self):
        text = matrix_to_json(HALF, provenance={"kind": "test", "seed": 1})
        assert matrix_from_json(text) == HALF

    def test_csv_parse(self):
        m = matrix_from_csv("1, 1/2\n0, 3\n")
        assert m == RMatrix.from_rows([[1, "1/2"], [0, 3]])

    def test_load_matrix_by_suffix(self, tmp_path):
        jpath = tmp_path / "m.json"
        jpath.write_text(matrix_to_json(CYCLE3))
        cpath = tmp_path / "m.csv"
        cpath.write_text("0,1,0\n0,0,1\n1,0,0\n")
        assert load_matrix(str(jpath)) == CYCLE3
        assert load_matrix(str(cpath)) == CYCLE3

    def test_malformed_json_raises(self):
        with pytest.raises(ValueError):
            matrix_from_json("{not json")
        with pytest.raises(ValueError):
            matrix_from_json(json.dumps({"n": 2, "entries": [[1, 2]]}))

    def test_load_matrix_sniffs_extensionless_content(self, tmp_path):
        jpath = tmp_path / "matrix_json"
        jpath.write_text(matrix_to_json(HALF))
        cpath = tmp_path / "matrix_csv"
        cpath.write_text("1/2,1/2\n1/2,1/2\n")
        assert load_matrix(str(jpath)) == HALF
        assert load_matrix(str(cpath)) == HALF

    def test_str_renders_aligned_rationals(self):
        text = str(HALF)
        assert text.splitlines() == ["1/2  1/2", "1/2  1/2"]
        assert repr(HALF) == "RMatrix(n=2)"
