"""Period, primitivity, positive powers, Perron estimates, zero traces."""

import random

import numpy as np
import pytest

from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    uniform_idempotent,
)
from rpotent.matrix import Permutation, RMatrix
from rpotent.spectral import (
    PowerIterationError,
    is_primitive,
    period,
    perron_value,
    spectral_report,
    trace_zero_check,
    wielandt_check,
    wielandt_exponent,
)

from oracles import period_by_diagonal_hits, random_small_matrix, unscaled_perron


class TestPeriod:
    def test_cycles(self):
        for length in (2, 3, 4, 5):
            assert period(cycle_matrix(length)) == length

    def test_positive_matrix(self):
        assert period(uniform_idempotent(2)) == 1

    def test_swap(self):
        assert period(RMatrix.from_rows([[0, 1], [1, 0]])) == 2

    def test_rejects_zero_and_decomposable(self):
        with pytest.raises(ValueError):
            period(RMatrix.zeros(2))
        with pytest.raises(ValueError):
            period(RMatrix.from_rows([[1, 0], [0, 1]]))

    def test_matches_diagonal_hit_oracle(self):
        rng = random.Random(8)
        found = 0
        while found < 40:
            n = rng.randint(2, 6)
            m = random_small_matrix(rng, n, density=rng.uniform(0.2, 0.6))
            from rpotent.decomposition import is_decomposable

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
        from rpotent.decomposition import is_decomposable

        assert not is_decomposable(m)
        assert period(m) == m.rank() == 6


class TestPrimitivity:
    def test_fibonacci_pattern_is_primitive(self):
        assert is_primitive(RMatrix.from_rows([[1, 1], [1, 0]]))

    def test_cycle_is_not(self):
        assert not is_primitive(cycle_matrix(3))

    def test_decomposable_is_not(self):
        assert not is_primitive(RMatrix.from_rows([[1, 0], [0, 0]]))

    def test_zero_is_not(self):
        assert not is_primitive(RMatrix.zeros(1))


class TestWielandt:
    def test_fibonacci_two_by_two(self):
        m = RMatrix.from_rows([[1, 1], [1, 0]])
        assert wielandt_exponent(2) == 2
        assert wielandt_check(m)

    def test_positive_one_by_one(self):
        assert wielandt_check(RMatrix.from_rows([[3]]))

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            wielandt_check(cycle_matrix(3))

    def test_random_primitive_patterns(self):
        rng = random.Random(14)
        found = 0
        while found < 60:
            n = rng.randint(2, 5)
            m = RMatrix.from_rows(
                [[1 if rng.random() < 0.45 else 0 for _ in range(n)] for _ in range(n)]
            )
            if not is_primitive(m):
                continue
            found += 1
            assert wielandt_check(m)


class TestPerronValue:
    def test_identity(self):
        assert perron_value(RMatrix.identity(4)) == pytest.approx(1.0, abs=1e-12)

    def test_cycle(self):
        assert perron_value(cycle_matrix(3)) == pytest.approx(1.0, abs=1e-9)

    def test_positive_idempotent(self):
        assert perron_value(uniform_idempotent(2)) == pytest.approx(1.0, abs=1e-9)

    def test_oscillating_decomposable_potent(self):
        # swap plus a fixed point: plain iteration cycles, the period trick must not
        m = block_diagonal([cycle_matrix(2), RMatrix.from_rows([[1]])])
        assert perron_value(m) == pytest.approx(1.0, abs=1e-9)

    def test_nilpotent_reports_zero(self):
        assert perron_value(RMatrix.from_rows([[0, 1], [0, 0]])) == 0.0

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            perron_value(RMatrix.zeros(2))

    def test_non_convergence_carries_estimate(self):
        m = RMatrix.from_rows([[1, 1], [1, 0]])
        with pytest.raises(PowerIterationError) as exc:
            perron_value(m, tol=0.0, max_iter=3)
        assert exc.value.last_estimate is not None

    def test_matches_numpy_spectrum_on_random_input(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(2, 6)
            m = random_small_matrix(rng, n, density=rng.uniform(0.3, 0.9))
            if m.is_zero():
                continue
            dense = np.array([[float(x) for x in row] for row in m.entries])
            rho = max(abs(np.linalg.eigvals(dense)))
            assert perron_value(m) == pytest.approx(float(rho), abs=1e-6)

    def test_scaled_iteration_is_bit_identical_to_unscaled(self):
        # entries up to 3 and down to 1/3 make the power-of-two scale nonzero
        rng = random.Random(8)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 6)
            m = random_small_matrix(rng, n, density=rng.uniform(0.3, 1.0))
            if m.is_zero():
                continue
            checked += 1
            assert perron_value(m) == unscaled_perron(m)

    def test_entries_beyond_float_range_are_scaled_first(self):
        # the squares of 10^200 and of 10^-200 leave the float range
        big = 10**200
        m = RMatrix.from_rows([[big, big], [big, big]])
        assert perron_value(m) == pytest.approx(2e200, rel=1e-12)
        tiny = RMatrix.from_rows([[f"1/{big}", 0], [0, f"3/{big}"]])
        assert perron_value(tiny) == pytest.approx(3e-200, rel=1e-12)

    def test_value_outside_float_range_raises(self):
        huge = 10**400
        with pytest.raises(PowerIterationError, match="float range"):
            perron_value(RMatrix.from_rows([[huge, huge], [huge, huge]]))
        with pytest.raises(PowerIterationError, match="float range"):
            perron_value(RMatrix.from_rows([[f"1/{huge}"]]))

    def test_every_generated_potent_has_unit_radius(self):
        for seed in range(60):
            r = (2, 3, 4, 5)[seed % 4]
            m = random_r_potent(r, 1 + seed % 5, seed, max_dim=14)
            assert perron_value(m) == pytest.approx(1.0, abs=1e-9)


class TestTraceZero:
    def test_cycles(self):
        for r in (3, 4, 5, 6):
            assert trace_zero_check(cycle_matrix(r - 1), r)

    def test_indecomposable_kron_with_idempotent(self):
        m = cycle_matrix(2).kron(uniform_idempotent(2))
        from rpotent.decomposition import is_decomposable

        assert not is_decomposable(m)
        assert m.rank() == 2
        assert trace_zero_check(m, 3)

    def test_rejects_decomposable(self):
        with pytest.raises(ValueError):
            trace_zero_check(RMatrix.identity(2), 3)

    def test_rejects_r_two(self):
        with pytest.raises(ValueError, match="r >= 3"):
            trace_zero_check(uniform_idempotent(2), 2)


class TestSpectralReport:
    def test_cycle_report(self):
        rep = spectral_report(cycle_matrix(3), r=4)
        assert rep.period == 3
        assert rep.is_primitive is False
        assert rep.expected_peripheral_count == 3
        assert rep.trace_zero_applicable and rep.trace_is_zero

    def test_decomposable_report_has_no_period(self):
        rep = spectral_report(RMatrix.identity(2), r=2)
        assert rep.period is None
        assert rep.perron_value == pytest.approx(1.0, abs=1e-9)

    def test_withheld_perron_value_is_reported_with_reason(self):
        huge = 10**400
        rep = spectral_report(RMatrix.from_rows([[huge, huge], [huge, huge]]))
        assert rep.perron_value is None
        assert rep.to_dict()["perron_withheld"] == "perron value outside the float range"
        # a Jordan block: the estimate approaches 1 too slowly to converge
        rep = spectral_report(RMatrix.from_rows([[1, 1], [0, 1]]), max_iter=50)
        assert rep.perron_value is None
        assert "did not converge" in rep.perron_withheld
        assert "perron_withheld" not in spectral_report(RMatrix.identity(2)).to_dict()

    def test_primitive_report_includes_positive_power(self):
        rep = spectral_report(RMatrix.from_rows([[1, 1], [1, 0]]))
        assert rep.is_primitive
        assert rep.wielandt_positive
