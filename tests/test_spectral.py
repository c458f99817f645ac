"""Period, primitivity, positive powers, exact Perron brackets, zero traces."""

import random
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpotent import spectral
from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    uniform_idempotent,
)
from rpotent.decomposition import block_triangularize
from rpotent.matrix import PatternMatrix, Permutation, RMatrix, load_matrix
from rpotent.potency import Potent, minimal_potency
from rpotent.spectral import (
    perron_value,
    spectral_report,
    trace_zero_check,
    wielandt_check,
)

from oracles import (
    as_potent,
    four_part_zero_trace_rule,
    is_decomposable,
    is_primitive,
    period_by_diagonal_hits,
    random_small_matrix,
    small_zero_one_matrices,
    small_zero_one_potents,
    wielandt_exponent,
)


def period(m: RMatrix) -> int:
    """The period of an indecomposable matrix, its triangularization's one block period."""
    (h,) = block_triangularize(m).periods
    return h


class TestPeriod:
    def test_cycles(self):
        for length in (2, 3, 4, 5):
            assert period(cycle_matrix(length)) == length

    def test_positive_matrix(self):
        assert period(uniform_idempotent(2)) == 1

    def test_swap(self):
        assert period(RMatrix([[0, 1], [1, 0]])) == 2

    def test_zero_and_decomposable_have_a_period_per_block(self):
        # a zero block has no period; a decomposable matrix has one per block
        assert block_triangularize(RMatrix.zeros(2)).periods == (None, None)
        assert block_triangularize(RMatrix([[1, 0], [0, 1]])).periods == (1, 1)
        assert block_triangularize(block_diagonal([cycle_matrix(2), cycle_matrix(3)])).periods == (2, 3)

    def test_block_periods_match_diagonal_hit_oracle(self):
        # read off A's digraph per component, against the diagonal hits of each block alone
        rng = random.Random(9)
        inputs = []
        for _ in range(60):
            n = rng.randint(1, 7)
            inputs.append(random_small_matrix(rng, n, density=rng.uniform(0.1, 0.5)))
        # every 0/1 matrix with n <= 3: 2 + 16 + 512 = 530
        inputs += small_zero_one_matrices()
        # the n-cycle plus each chord out of row 0, which is every chord up to rotation;
        # from n = 9 on a row spans two bytes
        for n in range(2, 17):
            rows = cycle_matrix(n).pattern().rows
            for j in range(n):
                if not rows[0] >> j & 1:
                    inputs.append(PatternMatrix(n, (rows[0] | 1 << j, *rows[1:])).to_matrix())
        for m in inputs:
            t = block_triangularize(m)
            expected = tuple(period_by_diagonal_hits(b.pattern()) or None for b in t.diagonal_blocks)
            assert t.periods == expected, m

    def test_matches_diagonal_hit_oracle(self):
        rng = random.Random(8)
        found = 0
        while found < 40:
            n = rng.randint(2, 6)
            m = random_small_matrix(rng, n, density=rng.uniform(0.2, 0.6))

            if m.is_zero() or is_decomposable(m):
                continue
            found += 1
            assert period(m) == period_by_diagonal_hits(m.pattern())

    def test_invariant_under_conjugation(self):
        rng = random.Random(21)
        for length in (2, 3, 4, 6):
            m = cycle_matrix(length)
            p = Permutation.random(length, rng)
            assert period(m.conjugate(p)) == period(m)

    def test_equals_rank_for_indecomposable_potents(self):
        # single cycles and coprime cycle products stay indecomposable
        assert period(cycle_matrix(4)) == cycle_matrix(4).rank() == 4
        m = cycle_matrix(2).kron(cycle_matrix(3))

        assert not is_decomposable(m)
        assert period(m) == m.rank() == 6


class TestPrimitivity:
    def test_fibonacci_pattern_is_primitive(self):
        assert is_primitive(RMatrix([[1, 1], [1, 0]]))

    def test_cycle_is_not(self):
        assert not is_primitive(cycle_matrix(3))

    def test_decomposable_is_not(self):
        assert not is_primitive(RMatrix([[1, 0], [0, 0]]))

    def test_zero_is_not(self):
        assert not is_primitive(RMatrix.zeros(1))


class TestWielandt:
    def test_fibonacci_two_by_two(self):
        m = RMatrix([[1, 1], [1, 0]])
        assert wielandt_exponent(2) == 2
        assert wielandt_check(block_triangularize(m))

    def test_positive_one_by_one(self):
        assert wielandt_check(block_triangularize(RMatrix([[3]])))

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            wielandt_check(block_triangularize(cycle_matrix(3)))

    def test_random_primitive_patterns(self):
        rng = random.Random(14)
        found = 0
        while found < 60:
            n = rng.randint(2, 5)
            m = RMatrix(
                [[1 if rng.random() < 0.45 else 0 for _ in range(n)] for _ in range(n)]
            )
            if not is_primitive(m):
                continue
            found += 1
            assert wielandt_check(block_triangularize(m))


def _numpy_radius(m: RMatrix) -> float:
    """Spectral radius from numpy's eigenvalues: a float oracle, used in tests only."""
    dense = np.array([[float(x) for x in row] for row in m.entries])
    return float(max(abs(np.linalg.eigvals(dense))))


def _assert_sound(m: RMatrix, bracket) -> None:
    """``bracket`` contains numpy's radius of ``m``, with 1e-9 slack on the float side."""
    lower, upper = bracket
    rho = _numpy_radius(m)
    slack = 1e-9 * max(1.0, rho)
    assert lower <= upper
    assert float(lower) <= rho + slack and rho - slack <= float(upper), (lower, rho, upper)


def _fraction_block_bracket(b: RMatrix, x: list[int]) -> tuple[Fraction, Fraction]:
    """Collatz-Wielandt bounds of B at x, intersected with its row sums, from Fraction entries."""
    rows = b.entries
    quotients = [sum((e * xj for e, xj in zip(row, x)), Fraction(0)) / xi for row, xi in zip(rows, x)]
    sums = [sum(row, Fraction(0)) for row in rows]
    return max(min(sums), min(quotients)), min(max(sums), max(quotients))


_ENTRIES = st.sampled_from([0, 0, 0, 1, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)])


@st.composite
def _nonnegative(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    return RMatrix(rows)


class TestPerronValue:
    def test_identity(self):
        assert perron_value(block_triangularize(RMatrix.identity(4))) == (1, 1)

    def test_cycle(self):
        assert perron_value(block_triangularize(cycle_matrix(3))) == (1, 1)

    def test_positive_idempotent(self):
        assert perron_value(block_triangularize(uniform_idempotent(2))) == (1, 1)

    def test_oscillating_decomposable_potent(self):
        # swap plus a fixed point: every block has equal row sums
        m = block_diagonal([cycle_matrix(2), RMatrix([[1]])])
        assert perron_value(block_triangularize(m)) == (1, 1)

    def test_nilpotent_reports_zero(self):
        assert perron_value(block_triangularize(RMatrix([[0, 1], [0, 0]]))) == (0, 0)

    def test_zero_matrix_reports_zero(self):
        zero = RMatrix.zeros(2)
        assert perron_value(block_triangularize(zero)) == (0, 0)
        assert perron_value(block_triangularize(zero), as_potent(zero, 2)) == (0, 0)

    def test_checked_potent_is_exactly_one_without_arithmetic(self, monkeypatch):
        m = RMatrix([[0, 2], ["1/2", 0]])
        p = as_potent(m, 3)
        monkeypatch.setattr(spectral, "block_bracket", None)
        assert perron_value(block_triangularize(m), p) == (1, 1)

    def test_bracket_contains_numpy_spectral_radius_on_random_input(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(1, 8)
            m = random_small_matrix(rng, n, density=rng.uniform(0.2, 0.9))
            _assert_sound(m, perron_value(block_triangularize(m)))

    def test_positive_input_gets_a_tight_bracket(self):
        rng = random.Random(9)
        for _ in range(20):
            m = random_small_matrix(rng, rng.randint(2, 8), density=1.0)
            lower, upper = perron_value(block_triangularize(m))
            assert upper - lower <= 1e-9 * upper

    def test_periodic_block_gets_a_tight_bracket(self):
        # D C D^-1 for a cycle C: unit radius, unequal row sums, and plain
        # power steps would cycle through h vectors without converging
        for h, weights in ((2, (1, 4)), (3, (1, 5, Fraction(1, 3))), (7, (1, 2, 9, 1, 3, 5, 8))):
            rows = [[0] * h for _ in range(h)]
            for i in range(h):
                rows[i][(i + 1) % h] = Fraction(weights[i]) / weights[(i + 1) % h]
            lower, upper = perron_value(block_triangularize(RMatrix(rows)))
            assert lower <= 1 <= upper and upper - lower <= 1e-12

    def test_sparse_primitive_input_gets_a_tight_bracket(self):
        # a Hamiltonian cycle, one loop and a few chords: the other eigenvalues
        # lie close to the circle of radius rho, where power steps barely converge
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(6, 24)
            order = list(range(n))
            rng.shuffle(order)
            rows = [[0] * n for _ in range(n)]
            for k in range(n):
                rows[order[(k + 1) % n]][order[k]] = rng.randint(1, 3)
            rows[order[0]][order[0]] = rng.randint(1, 3)
            for _ in range(rng.randint(0, 4)):
                rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(1, 3)
            m = RMatrix(rows)
            lower, upper = perron_value(block_triangularize(m))
            assert upper - lower <= 1e-12 * upper
            _assert_sound(m, (lower, upper))

    @settings(max_examples=150, deadline=None)
    @given(_nonnegative())
    def test_each_block_is_the_fraction_bracket_at_the_vector_used(self, m):
        t = block_triangularize(m)
        expected = []
        for b in t.diagonal_blocks:
            x = spectral.perron_vector(b.num) if len(set(map(sum, b.num))) > 1 else [1] * b.n
            assert all(xi > 0 for xi in x)
            expected.append(_fraction_block_bracket(b, x))
        lower, upper = perron_value(t)
        assert lower == max(lo for lo, _ in expected) and upper == max(hi for _, hi in expected)
        _assert_sound(m, (lower, upper))

    def test_entries_beyond_float_range(self):
        # the squares of 10^200 and of 10^-200 leave the float range
        big = 10**200
        m = RMatrix([[big, big], [big, big]])
        assert perron_value(block_triangularize(m)) == (2 * big, 2 * big)
        tiny = RMatrix([[f"1/{big}", 0], [0, f"3/{big}"]])
        assert perron_value(block_triangularize(tiny)) == (Fraction(3, big), Fraction(3, big))
        # each has rho^2 - rho = c; float products of their entries underflow
        # to 0, and the power steps stop at the last positive iterate.  The
        # Perron vector of the first two spans 200 and 300 decimal orders,
        # beyond what one float scaled by a power of two can hold
        cases = [([[0, k], [f"1/{k}", 1]], 1) for k in (big, 10**300)]
        for rows, c in cases + [([[1, 2**2000], [1, 0]], 2**2000)]:
            lower, upper = perron_value(block_triangularize(RMatrix(rows)))
            assert lower**2 - lower <= c <= upper**2 - upper
            if c == 1:
                assert upper <= 3  # the row sums are k and 1 + 1/k

    def test_float_iterate_that_underflows_after_scaling_is_dropped(self):
        # scaled by 2^1100, the last row is 2^-1074 and the first power step
        # gives [3, 3, 2^-1074]: dividing by 3 rounds its last entry to 0,
        # and a zero x_i would end in a division by zero
        big, small = 2**1100 - 1, 2**26
        m = RMatrix([[big, big, big], [big, big, big], [small, 0, 0]])
        lower, upper = perron_value(block_triangularize(m))
        # rank 2 with nonzero eigenvalues the roots of l^2 - 2 big l - big small,
        # which is negative on [0, rho) and positive above rho
        assert 0 < lower <= upper
        assert lower**2 - 2 * big * lower <= big * small <= upper**2 - 2 * big * upper

    def test_every_generated_potent_has_unit_radius(self):
        for seed in range(60):
            r = (2, 3, 4, 5)[seed % 4]
            p = random_r_potent(r, 1 + seed % 5, seed, max_dim=14)
            lower, upper = perron_value(block_triangularize(p.a))
            assert lower <= 1 <= upper
            assert perron_value(block_triangularize(p.a), p) == (1, 1)


class TestEveryZeroOneMatrixUpToThree:
    """All 530 0/1 matrices with n <= 3: 87 potent, the nilpotent ones, the rest."""

    def test_brackets(self):
        potent = nilpotent = 0
        for m in small_zero_one_matrices():
            t = block_triangularize(m)
            _assert_sound(m, perron_value(t))
            p = minimal_potency(t)
            if isinstance(p, Potent):
                potent += 1
                exact = (0, 0) if m.is_zero() else (1, 1)
                assert spectral_report(t, p).perron_bracket == exact
            if m.pow(m.n).is_zero():
                nilpotent += 1
                assert perron_value(t) == (0, 0)
                assert spectral_report(t).to_dict()["perron_value"] == 0.0
        assert potent == 87
        assert nilpotent == 1 + 3 + 25  # acyclic supports


class TestTraceZero:
    def test_cycles(self):
        for r in (3, 4, 5, 6):
            assert trace_zero_check(as_potent(cycle_matrix(r - 1), r))

    def test_indecomposable_kron_with_idempotent(self):
        m = cycle_matrix(2).kron(uniform_idempotent(2))

        assert not is_decomposable(m)
        assert m.rank() == 2
        assert trace_zero_check(as_potent(m, 3))

    def test_rejects_decomposable(self):
        assert trace_zero_check(as_potent(RMatrix.identity(2), 3)) is None

    def test_rejects_r_two(self):
        assert trace_zero_check(as_potent(uniform_idempotent(2), 2)) is None


def _zero_trace_outcomes(a: RMatrix) -> list[tuple[bool, bool | None]]:
    """``spectral_report``'s zero-trace fields against the four-part rule: at the least r and at r + L, or unpotent."""
    t = block_triangularize(a)
    decision = minimal_potency(t)
    if not isinstance(decision, Potent):
        got = spectral_report(t).to_dict()
        assert (got["trace_zero_applicable"], got["trace_is_zero"]) == four_part_zero_trace_rule(a, None)
        return [(False, None)]
    outcomes = []
    for r in (decision.r, decision.r + decision.period):
        got = spectral_report(t, decision.at(r)).to_dict()
        outcome = (got["trace_zero_applicable"], got["trace_is_zero"])
        assert outcome == four_part_zero_trace_rule(a, r), (a, r)
        outcomes.append(outcome)
    return outcomes


class TestZeroTraceRuleAgainstTheFourParts:
    """The rule stated once, in ``trace_zero_check``, against its four parts in ``oracles``."""

    def test_goldens_and_bundled_inputs(self):
        golden = Path(__file__).parent / "golden"
        paths = [
            p for p in sorted(golden.glob("*.json")) + sorted(golden.glob("*.csv"))
            if ".analyze." not in p.name and ".semigroup." not in p.name
        ]
        paths += sorted(resources.files("rpotent").joinpath("data").glob("*.json"))
        outcomes = Counter()
        for path in paths:
            outcomes.update(_zero_trace_outcomes(load_matrix(str(path))))
        assert outcomes[(True, True)] and outcomes[(False, None)]

    def test_every_zero_one_potent_up_to_three(self):
        outcomes = Counter()
        for m, _ in small_zero_one_potents():
            outcomes.update(_zero_trace_outcomes(m))
        assert sum(outcomes.values()) == 2 * 87
        assert outcomes[(True, True)] and outcomes[(False, None)]


class TestSpectralReport:
    def test_cycle_report(self):
        c = cycle_matrix(3)
        rep = spectral_report(block_triangularize(c), as_potent(c, 4))
        assert rep.period == 3
        assert rep.is_primitive is False
        assert rep.wielandt_positive is None  # decided for primitive matrices only
        assert rep.trace_zero_applicable and rep.trace_is_zero

    def test_decomposable_report_has_no_period(self):
        e = RMatrix.identity(2)
        rep = spectral_report(block_triangularize(e), as_potent(e, 2))
        assert rep.period is None
        assert rep.perron_value == 1.0 and rep.perron_bracket == (1, 1)

    def test_radius_beyond_the_float_range_keeps_its_exact_bracket(self):
        huge = 10**400
        rep = spectral_report(block_triangularize(RMatrix([[huge, huge], [huge, huge]])))
        assert rep.perron_value is None
        assert rep.to_dict()["perron_bracket"] == [2 * huge, 2 * huge]

    def test_jordan_block_is_exact(self):
        # [[1, 1], [0, 1]]: two 1 x 1 blocks, where power iteration never converged
        rep = spectral_report(block_triangularize(RMatrix([[1, 1], [0, 1]])))
        assert rep.perron_bracket == (1, 1) and rep.perron_value == 1.0

    def test_unprintable_bracket_ends_are_rounded_outward(self):
        # 1/p and 1/q with p and q of limit digits: the quotients at the
        # Collatz-Wielandt vector have denominators far beyond the limit
        limit = sys.get_int_max_str_digits()
        p, q = 10 ** (limit - 1) + 1, 3 * 10 ** (limit - 1) + 7
        rep = spectral_report(block_triangularize(RMatrix([[0, f"1/{p}"], [f"1/{q}", 0]])))
        lower, upper = rep.perron_bracket
        rho_squared = Fraction(1, p * q)
        assert lower**2 <= rho_squared <= upper**2
        low_text, high_text = rep.to_dict()["perron_bracket"]
        assert "e-" in low_text and "e-" in high_text
        assert Fraction(low_text) <= lower and upper <= Fraction(high_text)
        assert Fraction(low_text) ** 2 <= rho_squared <= Fraction(high_text) ** 2

    def test_primitive_report_includes_positive_power(self):
        rep = spectral_report(block_triangularize(RMatrix([[1, 1], [1, 0]])))
        assert rep.is_primitive
        assert rep.wielandt_positive
