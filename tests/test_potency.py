"""Potency detection, the checked potent value, projections, rank/trace identity.

The analyze ``potency`` object is read off ``cli._analysis_bundle``, which
writes it from the one decision of ``minimal_potency`` and ``Potent.at``.
"""

import random

import pytest

from rpotent.cli import _analysis_bundle
from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    uniform_idempotent,
)
from rpotent.matrix import Permutation, RMatrix
from rpotent.potency import (
    NonPotency,
    is_r_potent,
    rank_trace_check,
    zero_diagonal_powers,
)

from oracles import as_potent, decide, naive_power, transposition

QUAD = RMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def _at(a: RMatrix, r: int):
    """``a`` at ``r`` by the decision and ``Potent.at``; None unless A^r = A."""
    decision = decide(a)
    return None if isinstance(decision, NonPotency) else decision.at(r)


class TestIsRPotent:
    def test_quadripotent_but_not_idempotent(self):
        assert is_r_potent(QUAD, 4)
        assert not is_r_potent(QUAD, 2)

    def test_identity_is_r_potent_for_every_r(self):
        for r in range(2, 10):
            assert is_r_potent(RMatrix.identity(4), r)

    def test_matches_naive_powers(self):
        for r in (2, 3, 4, 5):
            assert is_r_potent(QUAD, r) == (naive_power(QUAD, r) == QUAD)

    def test_rejects_r_below_two(self):
        with pytest.raises(ValueError):
            is_r_potent(QUAD, 1)


class TestMinimalPotency:
    def test_identity(self):
        assert decide(RMatrix.identity(3)).r == 2

    def test_row_swap_of_identity_four(self):
        swap = transposition(4, 0, 1).to_matrix()
        assert decide(swap).r == 3

    def test_full_cycle_on_four(self):
        assert decide(cycle_matrix(4)).r == 5

    def test_nilpotent_is_certified(self):
        nilpotent = RMatrix([[0, 1], [0, 0]])
        assert decide(nilpotent) == NonPotency(1)

    def test_permutation_matrices_follow_cycle_lcm(self):
        rng = random.Random(99)
        from math import lcm

        for _ in range(30):
            p = Permutation.random(rng.randint(1, 6), rng)
            expected = lcm(*p.cycle_lengths()) + 1
            assert decide(p.to_matrix()).r == expected

    def test_divisibility_characterizes_potency(self):
        rng = random.Random(17)
        for seed in range(15):
            r = (3, 4, 5)[seed % 3]
            a = random_r_potent(r, 1 + seed % 4, seed, max_dim=12).a
            decision = decide(a)
            assert decision.r <= r
            m = decision.r
            for r2 in range(2, 20):
                assert is_r_potent(a, r2) == ((r2 - 1) % (m - 1) == 0)
                assert (_at(a, r2) is not None) == is_r_potent(a, r2)

    def test_decision_keeps_the_projection_and_builds_the_powers_on_demand(self):
        decision = decide(QUAD)
        assert decision.a is QUAD and decision.period == 3
        assert decision.projection == naive_power(QUAD, 3) == RMatrix.identity(3)
        assert list(decision.power_cycle()) == [QUAD, naive_power(QUAD, 2), naive_power(QUAD, 3)]


class TestAsPotent:
    def test_rejects_an_exponent_off_the_period(self):
        # QUAD has period 3, so A^5 = A^2 != A although A^4 = A
        with pytest.raises(ValueError, match="not 5-potent"):
            as_potent(QUAD, 5)

    def test_rejects_r_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            as_potent(QUAD, 1)

    def test_agrees_with_is_r_potent(self):
        for r in range(2, 12):
            if is_r_potent(QUAD, r):
                assert as_potent(QUAD, r).r == r
            else:
                with pytest.raises(ValueError):
                    as_potent(QUAD, r)

    def test_idempotent_and_generated_input_agree_with_is_r_potent(self):
        # an idempotent stops at A^2 = A; the others take A^(r-1) from A^2
        cases = [uniform_idempotent(3), RMatrix.zeros(2), RMatrix([[1, 1], [0, 1]])]
        cases.append(block_diagonal([cycle_matrix(2), uniform_idempotent(2)]))
        cases += [random_r_potent((2, 3, 4, 5)[s % 4], 1 + s % 3, s, max_dim=8).a for s in range(12)]
        for a in cases:
            for r in range(2, 10):
                if is_r_potent(a, r):
                    assert as_potent(a, r).projection == a.pow(r - 1)
                else:
                    with pytest.raises(ValueError, match=f"not {r}-potent"):
                        as_potent(a, r)

    def test_powers_match_exact_powers(self):
        for seed in range(20):
            r = (2, 3, 4, 5)[seed % 4]
            a = random_r_potent(r, 1 + seed % 5, seed, max_dim=12).a
            p = as_potent(a, r)
            powers = list(p.power_cycle())
            for j in range(1, r):
                assert powers[(j - 1) % len(powers)] == a.pow(j)
            assert p.per_exponent(lambda m: m) == tuple(a.pow(j).pattern() for j in range(1, r))
            assert p.rank == a.rank()


class TestIdempotentProjection:
    def test_idempotent_is_its_own_projection(self):
        e = uniform_idempotent(3)
        assert as_potent(e, 2).projection == e

    def test_cycle_three_projects_to_identity(self):
        assert as_potent(QUAD, 4).projection == RMatrix.identity(3)

    def test_rejects_non_potent_input(self):
        # the projection is read from a checked value; non-potent input stops at the check
        with pytest.raises(ValueError, match="not 3-potent"):
            as_potent(RMatrix([[0, 1], [0, 0]]), 3)

    def test_projection_squares_to_itself_and_keeps_rank(self):
        for seed in range(100):
            r = (2, 3, 4, 5)[seed % 4]
            a = random_r_potent(r, 1 + seed % 5, seed, max_dim=14).a
            e = as_potent(a, r).projection
            assert e == a.pow(r - 1)
            assert e @ e == e
            assert e.rank() == a.rank()


class TestRankTraceIdentity:
    def test_zero_matrix(self):
        assert rank_trace_check(as_potent(RMatrix.zeros(3), 4))

    def test_cycle_of_length_r_minus_one(self):
        for r in (3, 4, 5, 6):
            assert rank_trace_check(as_potent(cycle_matrix(r - 1), r))

    def test_kron_of_swap_and_idempotent(self):
        m = cycle_matrix(2).kron(uniform_idempotent(2))
        assert m.rank() == 2
        assert m.pow(2).trace() == 2
        assert rank_trace_check(as_potent(m, 3))

    def test_rejects_non_potent(self):
        # the check takes a checked value; non-potent input stops at the check
        with pytest.raises(ValueError, match="not 3-potent"):
            as_potent(RMatrix([[2]]), 3)


class TestZeroDiagonalPowers:
    def test_positive_matrix_has_none(self):
        assert zero_diagonal_powers(as_potent(uniform_idempotent(2), 4)) == set()

    def test_cycle_three_at_r_four(self):
        assert zero_diagonal_powers(as_potent(QUAD, 4)) == {1, 2}

    def test_cycle_three_at_r_seven(self):
        # the powers repeat with period three: A^4 = A, A^5 = A^2
        assert zero_diagonal_powers(as_potent(QUAD, 7)) == {1, 2, 4, 5}

    def test_block_tower_has_none(self):
        tower = block_diagonal([uniform_idempotent(k) for k in (1, 2, 3)])
        assert zero_diagonal_powers(as_potent(tower, 4)) == set()


class TestAnalyzePotencyObject:
    def test_report_fields_for_quadripotent(self):
        bundle = _analysis_bundle(QUAD, 4)
        rep = bundle["potency"]
        assert rep["is_r_potent"]
        assert rep["minimal_r"] == 4
        assert rep["rank"] == 3
        assert rep["trace_of_projection"] == 3
        assert rep["rank_trace_ok"]
        assert "nonpotency" not in bundle

    def test_minimal_r_divides(self):
        for seed in range(20):
            r = (3, 4, 5)[seed % 3]
            a = random_r_potent(r, 1 + seed % 3, seed).a
            decision = decide(a)
            assert decision.at(r) is not None
            assert decision.r <= r
            assert (r - 1) % (decision.r - 1) == 0

    def test_power_cycles_with_step_r_minus_one(self):
        for seed in range(12):
            r = (2, 3, 4, 5)[seed % 4]
            a = random_r_potent(r, 1 + seed % 3, seed).a
            for k in (1, 2, 3):
                assert a.pow(k * (r - 1) + 1) == a

    def test_default_exponent_is_the_minimal_one(self):
        bundle = _analysis_bundle(QUAD, None)
        assert bundle["r"] == bundle["potency"]["r"] == bundle["potency"]["minimal_r"] == 4
        assert decide(QUAD).at(4).r == 4
        bundle = _analysis_bundle(RMatrix([[0, 1], [0, 0]]), None)
        assert bundle["r"] is None and bundle["potency"] is None and bundle["nonpotency"] == {"period_lcm": 1}

    def test_exponent_that_fails(self):
        bundle = _analysis_bundle(QUAD, 3)
        rep = bundle["potency"]
        assert not rep["is_r_potent"] and decide(QUAD).at(3) is None
        assert rep["minimal_r"] == 4
        assert rep["rank"] == 3
        # A^2 is no projection when A^3 != A, so no trace is reported
        assert rep["trace_of_projection"] is None and rep["rank_trace_ok"]
        # QUAD is potent, so there is no certificate
        assert "nonpotency" not in bundle

    def test_non_potent_input_at_an_exponent(self):
        bundle = _analysis_bundle(RMatrix([[2]]), 5)
        rep = bundle["potency"]
        assert rep["r"] == 5 and not rep["is_r_potent"] and rep["minimal_r"] is None
        assert bundle["nonpotency"] == NonPotency(1).to_dict()

    def test_exponent_past_the_old_cap(self):
        # cycles of lengths 3, 5 and 7: minimal exponent lcm + 1 = 106
        images = (1, 2, 0, 4, 5, 6, 7, 3, 9, 10, 11, 12, 13, 14, 8)
        a = Permutation(images).to_matrix()
        rep = _analysis_bundle(a, 106)["potency"]
        assert rep["is_r_potent"] and rep["minimal_r"] == 106
        p = decide(a).at(106)
        assert p.r == 106 and p.period == 105
        assert list(p.power_cycle()) == [a.pow(j) for j in range(1, 106)]
        assert rep["trace_of_projection"] == 15 and rep["rank"] == 15
        assert _at(a, 105) is None
        assert _analysis_bundle(a, None)["r"] == 106
        assert _at(a, 211).projection == p.projection

    def test_rejects_r_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            _analysis_bundle(QUAD, 1)
        with pytest.raises(ValueError, match="at least 2"):
            decide(QUAD).at(1)


class TestLargeOrder:
    # cycles of lengths 5, 7, 8, 9 and 11 on 40 points: A^r = A first at r = 27721
    LENGTHS = (5, 7, 8, 9, 11)

    @classmethod
    def matrix(cls):
        return block_diagonal([cycle_matrix(k) for k in cls.LENGTHS])

    def test_large_order_costs_a_few_powers(self, monkeypatch):
        a = self.matrix()
        products = []
        matmul = RMatrix.__matmul__

        def counting(x, y):
            products.append(1)
            return matmul(x, y)

        monkeypatch.setattr(RMatrix, "__matmul__", counting)
        p = as_potent(a, 27721)
        decision = decide(a)
        assert decision.at(27721) is not None and decision.r == 27721
        assert p.period == 27720 and rank_trace_check(p)
        assert decision.at(27720) is None
        with pytest.raises(ValueError, match="not 27720-potent"):
            as_potent(a, 27720)
        # per call: a square-and-multiply power (at most 2 * 15 products),
        # one check product and, in a decision, B^(p+1) for each of the 5 blocks
        assert len(products) <= 4 * (2 * 15 + 1 + 5 * 2 * 4)
