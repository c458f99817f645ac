"""Matrix core: exact algebra, patterns, permutations, serialization."""

import json
import random
import re
import sys
import time
from fractions import Fraction
from itertools import chain
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpotent.matrix as matrix_module
from rpotent.matrix import (
    PatternMatrix,
    Permutation,
    RMatrix,
    json_text,
    load_matrix,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_json,
)

from oracles import (
    bareiss_rank,
    bool_product,
    fisher_yates_permutation,
    fraction_block_diagonal,
    fraction_grid,
    gauss_rank,
    kron_entry,
    naive_multiply,
    naive_power,
    pattern_from_bools,
    pattern_from_packed,
    pattern_to_bools,
    permutation_compose,
    permutation_inverse,
    random_pattern_local,
    random_small_matrix,
    transposition,
    zero_one_matrices,
    zero_one_patterns,
)

CYCLE3 = RMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
HALF = RMatrix([["1/2", "1/2"], ["1/2", "1/2"]])

_entry_pool = st.sampled_from([0, 0, 1, 2, Fraction(1, 2), Fraction(1, 3), 3])


def _matrix_strategy(max_n=5):
    def rows(n):
        return st.lists(
            st.lists(_entry_pool, min_size=n, max_size=n), min_size=n, max_size=n
        )

    return st.integers(min_value=1, max_value=max_n).flatmap(rows).map(RMatrix)


# Entries with denominators up to 10^6, and zeros, for the differential tests
# of the integer backend against the Fraction oracles.
_wide_entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=1000, max_denominator=10**6),
)


def _wide_square(n):
    return st.lists(
        st.lists(_wide_entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RMatrix)


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
        _check_rank_against_oracles(a)

    @settings(max_examples=30, deadline=None)
    @given(_wide_pair)
    def test_products_are_canonical(self, pair):
        a, b = pair
        for m in (a, b, a @ b, a.kron(b), a.submatrix(range(a.n - 1, -1, -1))):
            rebuilt = RMatrix(m.entries)
            assert _is_canonical(m)
            assert m == rebuilt and hash(m) == hash(rebuilt)
            assert (m.den, m.num) == (rebuilt.den, rebuilt.num)
            assert json_text(m) == json_text(rebuilt)
        zero = a @ RMatrix.zeros(a.n)
        assert zero.den == 1 and zero.is_zero()

    def test_zero_matrix_has_unit_denominator(self):
        assert RMatrix.zeros(3).den == 1
        assert RMatrix([["0/7", 0], [0, 0]]).den == 1
        assert (HALF @ RMatrix.zeros(2)).den == 1

    def test_entries_view_matches_public_grid(self):
        m = HALF @ HALF
        assert m.entries == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        assert m.entries is m.entries
        assert m.entries[1][0] == Fraction(1, 2) and m.trace() == 1

    def test_matrices_are_immutable(self):
        with pytest.raises(AttributeError):
            HALF.den = 3
        with pytest.raises(AttributeError):
            HALF.entries = ()

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: RMatrix(((Fraction(-1),),)), ValueError, "negative entry -1 at"),
            (lambda: RMatrix(((Fraction(1), Fraction(0)), (0.5, Fraction(0)))), TypeError, "type float"),
            (lambda: RMatrix([["-1/2", 0], [0, 0]]), ValueError, "negative entry -1/2 at"),
            (lambda: RMatrix([[1.5]]), TypeError, "type float"),
            (lambda: RMatrix([[True]]), TypeError, "boolean matrix entry"),
            (lambda: RMatrix([[1, 0], [0]]), ValueError, "must be square"),
            (lambda: RMatrix.identity(0), ValueError, "dimension must be positive"),
            (lambda: RMatrix.zeros(0), ValueError, "dimension must be positive"),
            (lambda: matrix_from_json(json.dumps({"n": 1, "entries": [[-3]]})), ValueError, "negative entry -3 at"),
            (lambda: matrix_from_json(json.dumps({"n": 1, "entries": [[False]]})), TypeError, "boolean matrix entry"),
            (lambda: matrix_from_json(json.dumps({"n": 1, "entries": [[0.5]]})), TypeError, "type float"),
            (lambda: matrix_from_csv("1,-1\n0,0\n"), ValueError, "negative entry -1 at"),
        ],
    )
    def test_public_constructors_reject_bad_entries(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_constructor_reads_every_entry_type(self):
        # a plain int, a string and a Fraction, as the readers read them
        assert RMatrix(((1,),)) == matrix_from_json('{"n": 1, "entries": [[1]]}')
        m = RMatrix([[1, "1/2"], [0, Fraction(1, 3)]])
        assert (m.den, m.num) == (6, ((6, 3), (0, 2)))
        assert m == matrix_from_csv("1,1/2\n0,1/3\n")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_small_constructors_equal_their_grids(self, n):
        values = [Fraction(i, 2) for i in range(n)]
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert RMatrix.identity(n) == RMatrix(identity)
        assert RMatrix.zeros(n) == RMatrix([[0] * n for _ in range(n)])
        diagonal = RMatrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])
        assert [diagonal.entries[i][i] for i in range(n)] == values and diagonal.trace() == sum(values)
        m = RMatrix([[(i + 2 * j) % 3 for j in range(n)] for i in range(n)])
        assert m.pow(0) == RMatrix(identity)
        with pytest.raises(ValueError):
            RMatrix.identity(0)
        with pytest.raises(ValueError):
            RMatrix.zeros(0)

    def test_trusted_0_1_matrices_match_validated_grids(self):
        # Permutation.to_matrix and PatternMatrix.to_matrix skip validation;
        # they must equal the validated build of the same 0/1 grid
        p = Permutation((2, 0, 1))
        m = p.to_matrix()
        assert m == RMatrix(tuple(tuple(Fraction(int(p.images[j] == i)) for j in range(3)) for i in range(3)))
        assert m.den == 1
        # each of the oracle's 0/1 matrices is the validated build of its pattern's grid
        for pattern, rebuilt in zip(zero_one_patterns(3), zero_one_matrices(3)):
            m = pattern.to_matrix()
            assert (m.den, m.num) == (rebuilt.den, rebuilt.num) and hash(m) == hash(rebuilt)
            assert m.entries == rebuilt.entries and m.pattern() == pattern


class TestConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            RMatrix([[1, -1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            RMatrix([[1, 2, 3], [4, 5, 6]])

    def test_fraction_grid_errors_name_the_entry(self):
        # the float comes after a negative entry: entry types are read first, in row-major order
        with pytest.raises(TypeError, match="unsupported matrix entry type float"):
            RMatrix(((Fraction(-1), Fraction(0)), (0.5, Fraction(0))))
        with pytest.raises(ValueError, match=r"negative entry -1/2 at \(0, 1\)"):
            RMatrix(((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(0))))

    @pytest.mark.parametrize("rows", ["7", ["12", "34"], b"7", [b"12", b"34"], [[1, 2], "34"], [[1.5, 2], "34"]])
    def test_rejects_rows_given_as_strings(self, rows):
        # a string would be read character by character, "7" as [[7]];
        # refused before any entry is read, the float of the last grid included
        with pytest.raises(ValueError, match="not strings"):
            RMatrix(rows)

    def test_rejects_bad_entry_string(self):
        with pytest.raises(ValueError, match="parse"):
            RMatrix([["nope"]])

    def test_string_entries_parse_exactly(self):
        m = RMatrix([["1/3", "2"], ["0", "7/5"]])
        assert m.entries[0][0] == Fraction(1, 3)
        assert m.entries[1][1] == Fraction(7, 5)


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


# Product bounds at the edges of the 32- and 64-bit slots, one past each,
# and one well past both, each with divisors for the row sum of A.
_SLOT_EDGES = {
    2**32 - 1: (3, 255, 65537),
    2**32: (2, 4, 2**16),
    2**64 - 1: (3, 641, 2**32 + 1),
    2**64: (2, 4, 2**32),
    2**70 + 2: (2, 3, 2**35 + 1),
}


@st.composite
def _slot_edge_pair(draw):
    """A, B whose product bound max_i (Σ_k a_ik) max B is a slot edge, reached by one entry.

    One row of A sums to d and selects rows of B that all hold m = T / d in one
    column, so that entry of A·B is T.  The other rows of A are zero, a single
    1 (a reused row of B) or sum to at most d; B's other entries are at most m.
    Each factor is divided by a small denominator, which may cancel.
    """
    t = draw(st.sampled_from(sorted(_SLOT_EDGES)))
    d = draw(st.sampled_from(_SLOT_EDGES[t]))
    m = t // d
    n = draw(st.integers(1, 6))
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, d), unique=True))
    cuts = draw(st.lists(st.integers(1, d - 1), min_size=len(support) - 1, max_size=len(support) - 1, unique=True))
    bounds = [0, *sorted(cuts), d]
    tight = [0] * n
    for k, lo, hi in zip(support, bounds, bounds[1:]):
        tight[k] = hi - lo
    a = []
    for _ in range(n):
        kind = draw(st.sampled_from(("zero", "unit", "loose")))
        if kind == "zero":
            a.append([0] * n)
        elif kind == "unit":
            k = draw(st.integers(0, n - 1))
            a.append([int(j == k) for j in range(n)])
        else:
            a.append(draw(st.lists(st.integers(0, d // n), min_size=n, max_size=n)))
    a[draw(st.integers(0, n - 1))] = tight
    column = draw(st.integers(0, n - 1))
    b = [draw(st.lists(st.sampled_from((0, 1, m // 2, m)), min_size=n, max_size=n)) for _ in range(n)]
    for k in support:
        b[k][column] = m
    qa, qb = draw(st.sampled_from((1, 2, 3, 7))), draw(st.sampled_from((1, 2, 3, 7)))
    return (
        RMatrix([[Fraction(x, qa) for x in row] for row in a]),
        RMatrix([[Fraction(x, qb) for x in row] for row in b]),
    )


class TestPackedProduct:
    """The packed-row product against the entry-by-entry ``Fraction`` product."""

    @settings(max_examples=150, deadline=None)
    @given(_slot_edge_pair())
    def test_matches_fraction_oracle_at_slot_edges(self, pair):
        a, b = pair
        product = a @ b
        assert product == naive_multiply(a, b)
        assert _is_canonical(product)

    @pytest.mark.parametrize(
        "x, y",
        [(3, (2**32 - 1) // 3), (2, 2**31), (3, (2**64 - 1) // 3), (2, 2**63)],
    )
    def test_one_by_one_at_slot_edges(self, x, y):
        assert (RMatrix([[x]]) @ RMatrix([[y]])).num == ((x * y,),)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("big", [2**32, 2**64, 2**64 + 1, 2**200])
    def test_zero_factor_against_huge_entries(self, n, big):
        zero = RMatrix.zeros(n)
        huge = RMatrix([[big + i * n + j for j in range(n)] for i in range(n)])
        for a, b in ((zero, huge), (huge, zero)):
            product = a @ b
            assert product == naive_multiply(a, b)
            assert product.is_zero() and product.den == 1

    @pytest.mark.parametrize("edge", [2**32 - 1, 2**32, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("den", ["1", "g = 1", "g > 1"])
    def test_slot_edges_with_zero_unit_and_general_rows(self, edge, den):
        """The bound max_i (Σ_k a_ik) max B is exactly ``edge``, reached by entry (0, 0).

        A holds a zero row and two single-1 rows among general rows, so no
        product row is a reused row of B.  The product's denominator
        den_A is 1; or 7, which no product numerator shares (g = 1), or q,
        which divides every numerator (g = q > 1).
        """
        d, q = (5, 3) if edge % 2 else (2, 2)
        m = edge // d
        c = q if den == "g > 1" else 1
        a_int = [[d - 1, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, 0, 0, 0]]
        b = RMatrix([[m, c, 0, 0, 0], [m, 0, 2 * c, 0, c], [0, m, c, 0, 0], [c, 0, 0, m, 0], [0] * 5])
        a = RMatrix([[Fraction(x, {"1": 1, "g = 1": 7, "g > 1": q}[den]) for x in row] for row in a_int])
        assert max(map(sum, a.num)) * max(map(max, b.num)) == edge
        product = a @ b
        assert product == naive_multiply(a, b)
        assert _is_canonical(product)
        assert (product.den, product.num[0][0]) == {"1": (1, edge), "g = 1": (7, edge), "g > 1": (1, edge // q)}[den]
        assert not any(row is b_row for row in product.num for b_row in b.num)

    def test_unit_rows_reuse_the_rows_of_b(self):
        b = RMatrix([[2**70, 1, 0], [0, 5, "1/3"], [1, 1, 1]])
        perm = Permutation((2, 0, 1)).to_matrix()
        product = perm @ b
        assert product == naive_multiply(perm, b)
        assert all(any(row is b_row for b_row in b.num) for row in product.num)


class TestPower:
    def test_power_zero_is_identity(self):
        assert CYCLE3.pow(0) == RMatrix.identity(3)

    def test_power_one_is_self(self):
        assert CYCLE3.pow(1) is CYCLE3

    def test_product_count(self, monkeypatch):
        # squarings up to the top bit, one product per further set bit; no
        # product with the identity
        products = []
        matmul = RMatrix.__matmul__

        def counted(x, y):
            products.append(1)
            return matmul(x, y)

        unipotent = RMatrix([[1, "1/2"], [0, 1]])
        monkeypatch.setattr(RMatrix, "__matmul__", counted)
        for k in range(1, 71):
            products.clear()
            power = unipotent.pow(k)
            assert len(products) == k.bit_length() + bin(k).count("1") - 2, k
            assert power == RMatrix([[1, Fraction(k, 2)], [0, 1]]), k

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
        swap = RMatrix([[0, 1], [1, 0]])
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
                assert k.entries[i][j] == kron_entry(a, b, i, j)


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
            assert RMatrix(rows).rank() == length

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
        _check_rank_against_oracles(RMatrix(rows))

    def test_rank_through_negative_pivots(self):
        """The pivots are 1, -1, -1: updated rows hold negative entries, and their content is positive."""
        a = RMatrix([[1, 2, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
        assert _check_rank_against_oracles(a) == 4
        b = RMatrix([[1, 2, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 2, 0]])
        assert _check_rank_against_oracles(b) == 3

    def test_rank_on_dependent_rows_with_column_skips(self):
        a = RMatrix(
            [
                [0, "1/2", 1, 0],
                [0, 1, 2, 0],
                [0, "1/3", "2/3", 0],
                [0, 0, 0, "5/7"],
            ]
        )
        assert _check_rank_against_oracles(a) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_rank_of_relabelled_direct_sums(self, seed):
        """Most rows have a zero lead at each pivot: only the rows of the pivot's block are updated."""
        rng = random.Random(seed)
        blocks = [random_small_matrix(rng, rng.randint(1, 5), rng.uniform(0.3, 1.0)) for _ in range(rng.randint(2, 5))]
        a = fraction_block_diagonal(blocks)
        a = a.conjugate(Permutation.random(a.n, rng))
        assert _check_rank_against_oracles(a) == sum(gauss_rank(b) for b in blocks)

    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([[2, 4, 6], [3, 5, 7], [1, 1, 2]], 3),  # the first pivot row has content 2
            ([[0, 6, 9, 3], [4, 6, 2, 0], [2, 3, 1, 5], [6, 0, 12, 18]], 4),  # rows of content 3, 2 and 6
            ([[10, 0, 15], [0, 6, 4], [5, 3, 9]], 3),  # pivot rows of content 5 and 2
            ([[4, 8, 4], [6, 12, 6], [2, 4, 2]], 1),  # every row a multiple of the primitive row (1, 2, 1)
        ],
    )
    def test_rank_with_pivot_rows_of_content_above_one(self, rows, rank):
        assert _check_rank_against_oracles(RMatrix(rows)) == rank

    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([[1, 2, 3], [2, 4, 6], [1, 3, 4]], 2),  # the second row is zero after the first pivot
            ([[1, 1, 0, 0], [1, 2, 1, 0], [2, 3, 1, 0], [0, 0, 0, 1]], 3),  # the third row, after the second
            ([[1, 0, 1, 2, 0], [0, 1, 1, 1, 0], [1, 1, 2, 3, 0], [2, 1, 3, 5, 0], [0, 0, 0, 1, 1]], 3),  # two rows, then a skip
            ([["1/2", "1/3", 0], ["3/2", 1, 0], [0, 0, "1/5"]], 2),
        ],
    )
    def test_rank_with_rows_that_vanish_partway(self, rows, rank):
        assert _check_rank_against_oracles(RMatrix(rows)) == rank


def _primitive_updates(a):
    """``a.rank()`` and each update t = p row - lead pivot_row it makes, in order, read off its content gcd."""
    updates = []

    def content(*t):
        updates.append(t)
        return gcd(*t)

    with mock.patch.object(matrix_module, "gcd", content):
        rank = a.rank()
    return rank, updates


def _check_rank_against_oracles(a):
    """Check ``a.rank()`` against both oracles and every update of its elimination against Bareiss's; return it.

    Each update is one of Bareiss's, before its division, divided by an
    integer, so no entry is larger (``RMatrix.rank``).
    """
    rank, updates = _primitive_updates(a)
    bareiss_updates = []
    assert rank == gauss_rank(a) == bareiss_rank(a, bareiss_updates)
    assert len(updates) == len(bareiss_updates)
    for t, u in zip(updates, bareiss_updates):
        assert all(abs(x) <= abs(y) for x, y in zip(t, u))
        k = next((y // x for x, y in zip(t, u) if x), 0)
        assert [k * x for x in t] == list(u)
    return rank


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
        # rows wider than 8 bits from n = 9 on
        rng = random.Random(23)
        for n in range(1, 13):
            for _ in range(100):
                a = random_small_matrix(rng, n, density=0.4)
                b = random_small_matrix(rng, n, density=0.4)
                assert (a @ b).pattern() == a.pattern() * b.pattern()
                assert a.pattern() * b.pattern() == bool_product(a.pattern(), b.pattern())


class TestPatternMatrix:
    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    def test_pattern_matches_boolean_grid(self, n):
        rng = random.Random(n)
        rows = [[rng.choice((1, 2**70, Fraction(1, 3))) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        rows[0] = [0] * n
        rows[-1] = [1] * n
        m = RMatrix(rows)
        assert m.pattern() == pattern_from_bools([[x != 0 for x in row] for row in rows])

    def test_from_packed_round_trip(self):
        p = pattern_from_packed(3, 0b101010101)
        assert pattern_to_bools(p) == [[True, False, True], [False, True, False], [True, False, True]]

    def test_union(self):
        a = PatternMatrix(2, (0b01, 0b00))
        b = PatternMatrix(2, (0b10, 0b01))
        assert (a | b).rows == (0b11, 0b01)

    def test_first_zero(self):
        assert PatternMatrix(2, (0b11, 0b11)).first_zero() is None
        assert PatternMatrix(2, (0b11, 0b01)).first_zero() == (1, 1)

    def test_column_masks(self):
        p = pattern_from_bools([[True, False], [True, True]])
        assert p.column_masks() == (0b11, 0b10)

    def test_products_and_unions_are_built_without_validation(self, monkeypatch):
        rng = random.Random(5)
        pairs = [tuple(random_pattern_local(rng, n, 0.4) for _ in range(2)) for n in range(1, 11) for _ in range(5)]
        validated = []
        monkeypatch.setattr(PatternMatrix, "__post_init__", lambda self: validated.append(self))
        results = [(a, b, a * b, a | b) for a, b in pairs]
        assert validated == []
        monkeypatch.undo()
        for a, b, product, union in results:
            # the trusted results still pass the public constructor, and agree with the oracle
            assert PatternMatrix(a.n, product.rows) == product == bool_product(a, b)
            assert PatternMatrix(a.n, union.rows) == union
            assert union.rows == tuple(x | y for x, y in zip(a.rows, b.rows))


class TestConjugate:
    def test_identity_permutation(self):
        assert CYCLE3.conjugate(Permutation(tuple(range(3)))) == CYCLE3

    def test_swap_relabels_diagonal(self):
        d = RMatrix([[2, 0], [0, 3]])
        assert d.conjugate(transposition(2, 0, 1)) == RMatrix([[3, 0], [0, 2]])

    def test_equals_matrix_conjugation(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 5)
            a = random_small_matrix(rng, n)
            p = Permutation.random(n, rng)
            pm = p.to_matrix()
            pinv = permutation_inverse(p).to_matrix()
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

    def test_random_draws_as_the_fisher_yates_loop(self):
        # the same permutation from the same draws, so the generator's next draw is the same too
        for seed in range(1000):
            for n in (1, 2, 3, 9, 30):
                rng, ref = random.Random(seed), random.Random(seed)
                assert Permutation.random(n, rng) == fisher_yates_permutation(n, ref), (seed, n)
                assert rng.random() == ref.random(), (seed, n)

    def test_compose_and_inverse(self):
        rng = random.Random(2)
        for _ in range(20):
            p = Permutation.random(5, rng)
            assert permutation_compose(p, permutation_inverse(p)) == Permutation(tuple(range(5)))

    def test_cycle_lengths(self):
        p = Permutation((1, 0, 3, 4, 2))
        assert p.cycle_lengths() == (2, 3)

    def test_to_matrix_columns(self):
        p = Permutation((2, 0, 1))
        m = p.to_matrix()
        for j in range(3):
            assert m.entries[p.images[j]][j] == 1


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
        assert m == RMatrix([[1, "1/2"], [0, 3]])

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

    def test_entries_are_limited_to_printable_integers(self):
        limit = sys.get_int_max_str_digits()
        # 10^(limit-1) has limit digits, 10^limit one more
        for text in (f"1e{limit - 1}", f"1e-{limit - 1}", f"{'9' * limit}/7"):
            assert matrix_from_csv(text).n == 1
        for text in (f"1e{limit}", f"1e-{limit}", f"2.5e{limit + 5}"):
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                matrix_from_csv(text)
        # zero mantissas are 0 at any exponent; 1000e-4301 is 1/10^4298,
        # 100e-4302 is 1/10^4300, one digit too many
        for text in ("0e5000", "0.0e-9000", "-0e100000000"):
            assert matrix_from_csv(text).is_zero()
        assert matrix_from_csv(f"1000e-{limit + 1}").den == 10 ** (limit - 2)
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            matrix_from_csv(f"100e-{limit + 2}")
        # decided from the exponent, with no power of ten built
        for text in ("1e10000000", "1e30000000", "1e100000000", "-1e100000000", "7.5e-100000000", f"1e{10**limit - 1}"):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                matrix_from_csv(text)
            assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError, match="invalid matrix JSON"):
            matrix_from_json('{"n": 1, "entries": [[1%s]]}' % ("0" * limit))

    def test_load_matrix_sniffs_extensionless_content(self, tmp_path):
        jpath = tmp_path / "matrix_json"
        jpath.write_text(matrix_to_json(HALF))
        cpath = tmp_path / "matrix_csv"
        cpath.write_text("1/2,1/2\n1/2,1/2\n")
        assert load_matrix(str(jpath)) == HALF
        assert load_matrix(str(cpath)) == HALF

    def test_load_matrix_reads_a_json_file_as_json_whatever_its_text(self, tmp_path):
        cases = {
            "array.json": ("[[1,0],[0,1]]", "matrix JSON must contain 'n' and 'entries'"),
            "bom.json": ('\ufeff{"n": 1, "entries": [[1]]}', "invalid matrix JSON: Unexpected UTF-8 BOM"),
            "csv.json": ("1/2,1/2\n1/2,1/2\n", "invalid matrix JSON"),
        }
        for name, (text, message) in cases.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(message)):
                load_matrix(str(path))
        # the same CSV text is read under a .csv name or with no extension
        for name in ("matrix.csv", "matrix"):
            path = tmp_path / name
            path.write_text(cases["csv.json"][0])
            assert load_matrix(str(path)) == HALF

    def test_repr_names_the_dimension(self):
        assert repr(HALF) == "RMatrix(n=2)"


# Entries of every kind the readers meet: JSON ints (negative ones too),
# booleans, floats and None, the strings that take the integer fast path or
# fall back to ``coerce_entry``, short strings over the ``Fraction`` syntax,
# and ``Fraction`` values.  Each grid draws from one pool, so that whole
# grids read, fail on a negative entry or fail on a bad one.
_READER_STRINGS = [
    " 7 ", "+3", "-0", "07", "3/0", "0/5", "1.5", "2e3", "\u0663", "\u00b2", "1/\u0663", "2/4", "-1/2", "x", "",
    "1_0", "1.e3", "7/", "/7", "\uff11", "3.\u0665", "\u0661e\u0662", "\u00a07\u00a0",
]
_readable_entry = st.one_of(
    st.integers(0, 10**6),
    st.sampled_from(["0", "1", " 7 ", "+3", "-0", "07", "0/5", "1.5", "2e3", "2/4", "12/18"]),
    st.fractions(min_value=0, max_value=3, max_denominator=50),
)
_signed_entry = st.one_of(_readable_entry, st.integers(-5, -1), st.sampled_from(["-1/2", "-3", "-2e-1"]))
_any_entry = st.one_of(
    _signed_entry,
    st.booleans(),
    st.floats(),
    st.none(),
    st.sampled_from(_READER_STRINGS),
    st.text(alphabet="0123456789/+-._eE \u0663", max_size=6),
)
# Cells of CSV rows: no separators, quotes or line breaks; padded or not.
_readable_cell = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", " 1", "2/4 ", " 12/18 ", "07", "+3", "1.5", "2e3", "0/5"]),
)
_signed_cell = st.one_of(_readable_cell, st.integers(-5, -1).map(str), st.just("-1/2"))
_any_cell = st.one_of(
    _signed_cell,
    st.sampled_from([c for c in _READER_STRINGS if c]),
    st.text(alphabet="0123456789/+-. ", max_size=5),
)


def _grid(entry):
    """Rows of n entries for n = 0..4, about one in five of them ragged."""

    def rows(n):
        square = st.lists(entry, min_size=n, max_size=n)
        ragged = st.lists(entry, min_size=max(n - 1, 0), max_size=n + 1)
        return st.lists(st.one_of(square, square, square, square, ragged), min_size=n, max_size=n)

    return st.integers(0, 4).flatmap(rows)


def _outcome(read, arg):
    """``(den, num)`` of the matrix ``read(arg)`` builds, or the type and message it raises."""
    try:
        m = read(arg)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return m if isinstance(m, tuple) else (m.den, m.num)


class TestReaderAgainstFractionOracle:
    """The integer-grid reader against one ``Fraction`` per entry (``oracles.fraction_grid``)."""

    @pytest.mark.parametrize("entry", [*_READER_STRINGS, 0, 5, -2, True, False, 1.5, None, Fraction(3, 6), [1]])
    def test_each_listed_entry(self, entry):
        rows = [[entry, 1], [0, "1/2"]]
        assert _outcome(RMatrix, rows) == _outcome(fraction_grid, rows)

    @pytest.mark.parametrize("entry", ["\u0663", "\uff11", "3.\u0665", "\u0661e\u0662", "1/\u0663", "\u0663/2"])
    def test_non_ascii_digits_are_refused(self, entry):
        # ``Fraction`` and ``int`` read them; both readers refuse them
        with pytest.raises(ValueError, match="cannot parse matrix entry"):
            RMatrix([[entry]])

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([_readable_entry, _signed_entry, _any_entry]).flatmap(_grid))
    def test_rows(self, rows):
        assert _outcome(RMatrix, rows) == _outcome(fraction_grid, rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [["1/2", " 1/2", 1], ["1/2", "2/4 ", 0], [3, "1/2", " 1/2 "]],
            [["1/3", "1/3", 2], ["1/3", "x", "1/3"], [0, 0, 0]],  # a bad string after a good repeated one
            [["1/3", "1/3"], ["1/3", True]],  # a bad type after a good repeated string
            [["2/4", 1], ["2/4", "-1/2"]],  # a negative entry after repeats
            [[" 7 ", 7, "7"], [" 7 ", 1.5, "7"], ["7", 7, " 7 "]],
            [["1/2", "1/2"], ["1/2"]],  # ragged after repeats
            [["1/2", "1/0"], ["1/0", "1/2"]],  # the same bad string twice
            [[5, 5], [5, -5]],
        ],
    )
    def test_repeated_strings_padded_strings_and_ints(self, rows):
        assert _outcome(RMatrix, rows) == _outcome(fraction_grid, rows)

    @settings(max_examples=200, deadline=None)
    @given(_grid(st.sampled_from(["1/2", " 1/2", "2/4 ", "1/3", "7", " 7 ", "x", "-1/2", 0, 1, 7, -1, True])))
    def test_rows_that_repeat_entries(self, rows):
        assert _outcome(RMatrix, rows) == _outcome(fraction_grid, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([_readable_cell, _signed_cell, _any_cell]).flatmap(_grid).filter(bool))
    def test_csv_rows(self, rows):
        # every row keeps a nonblank cell: the reader skips blank lines
        rows = [row if any(c.strip() for c in row) else ["0", *row[1:]] for row in rows]
        text = "\n".join(",".join(row) for row in rows) + "\n"
        assert _outcome(matrix_from_csv, text) == _outcome(fraction_grid, rows)
