"""Potency detection, the checked potent value, projections, rank/trace identity."""

import random

import pytest

from rpotent.generators import (
    block_diagonal,
    cycle_matrix,
    random_r_potent,
    uniform_idempotent,
)
from rpotent.matrix import Permutation, RMatrix
from rpotent.potency import (
    as_potent,
    is_r_potent,
    minimal_potency,
    potency_report,
    rank_trace_check,
    zero_diagonal_powers,
)

from oracles import naive_power

QUAD = RMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


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
        assert minimal_potency(RMatrix.identity(3), 10).r == 2

    def test_row_swap_of_identity_four(self):
        swap = Permutation.transposition(4, 0, 1).to_matrix()
        assert minimal_potency(swap, 10).r == 3

    def test_full_cycle_on_four(self):
        assert minimal_potency(cycle_matrix(4), 10).r == 5

    def test_absent_within_cap(self):
        nilpotent = RMatrix.from_rows([[0, 1], [0, 0]])
        assert minimal_potency(nilpotent, 20) is None

    def test_permutation_matrices_follow_cycle_lcm(self):
        rng = random.Random(99)
        from math import lcm

        for _ in range(30):
            p = Permutation.random(rng.randint(1, 6), rng)
            expected = lcm(*p.cycle_lengths()) + 1
            assert minimal_potency(p.to_matrix(), 64).r == expected

    def test_divisibility_characterizes_potency(self):
        rng = random.Random(17)
        for seed in range(15):
            r = (3, 4, 5)[seed % 3]
            a = random_r_potent(r, 1 + seed % 4, seed, max_dim=12).a
            walk = minimal_potency(a, 64)
            assert walk is not None and walk.r <= r
            m = walk.r
            for r2 in range(2, 20):
                assert is_r_potent(a, r2) == ((r2 - 1) % (m - 1) == 0)
                assert potency_report(a, r2).is_r_potent == is_r_potent(a, r2)

    def test_walk_keeps_the_distinct_powers(self):
        walk = minimal_potency(QUAD)
        assert walk.a is QUAD
        assert walk.powers == (QUAD, naive_power(QUAD, 2), naive_power(QUAD, 3))


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

    def test_powers_match_exact_powers(self):
        for seed in range(20):
            r = (2, 3, 4, 5)[seed % 4]
            a = random_r_potent(r, 1 + seed % 5, seed, max_dim=12).a
            p = as_potent(a, r)
            powers = list(p.power_cycle())
            for j in range(1, r):
                assert powers[(j - 1) % len(powers)] == a.pow(j)
            assert p.per_exponent(lambda m: m) == tuple(a.pow(j) for j in range(1, r))
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
            as_potent(RMatrix.from_rows([[0, 1], [0, 0]]), 3)

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
            as_potent(RMatrix.from_rows([[2]]), 3)


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


class TestPotencyReport:
    def test_report_fields_for_quadripotent(self):
        rep = potency_report(QUAD, 4)
        assert rep.is_r_potent
        assert rep.minimal_r == 4
        assert rep.rank == 3
        assert rep.trace_of_projection == 3
        assert rep.rank_trace_ok

    def test_minimal_r_divides(self):
        for seed in range(20):
            r = (3, 4, 5)[seed % 3]
            a = random_r_potent(r, 1 + seed % 3, seed).a
            rep = potency_report(a, r)
            assert rep.is_r_potent
            assert rep.minimal_r is not None
            assert rep.minimal_r <= rep.r
            assert (rep.r - 1) % (rep.minimal_r - 1) == 0

    def test_power_cycles_with_step_r_minus_one(self):
        for seed in range(12):
            r = (2, 3, 4, 5)[seed % 4]
            a = random_r_potent(r, 1 + seed % 3, seed).a
            for k in(1, 2, 3):
                assert a.pow(k * (r - 1) + 1) == a

    def test_default_exponent_is_the_minimal_one(self):
        rep = potency_report(QUAD)
        assert rep.r == rep.minimal_r == 4
        assert rep.potent.r == 4
        assert potency_report(RMatrix.from_rows([[0, 1], [0, 0]])) is None

    def test_exponent_that_fails(self):
        rep = potency_report(QUAD, 3)
        assert not rep.is_r_potent and rep.potent is None
        assert rep.minimal_r == 4
        assert rep.rank == 3
        # A^2 is no projection when A^3 != A, so no trace is reported
        assert rep.trace_of_projection is None
        assert rep.to_dict()["trace_of_projection"] is None and rep.rank_trace_ok

    def test_exponent_beyond_the_cap(self):
        # cycles of lengths 3, 5 and 7: minimal exponent lcm + 1 = 106 > 64
        images = (1, 2, 0, 4, 5, 6, 7, 3, 9, 10, 11, 12, 13, 14, 8)
        a = Permutation(images).to_matrix()
        rep = potency_report(a, 106)
        assert rep.is_r_potent and rep.minimal_r is None
        # checked by one power A^106, not by a walk that keeps 105 powers
        assert rep.potent.r == 106 and rep.potent.powers is None
        assert list(rep.potent.power_cycle()) == [a.pow(j) for j in range(1, 106)]
        assert rep.trace_of_projection == rep.rank == 15
        assert not potency_report(a, 105).is_r_potent
        assert potency_report(a) is None

    def test_rejects_r_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            potency_report(QUAD, 1)


class TestPastTheCap:
    # cycles of lengths 5, 7, 8, 9 and 11 on 40 points: A^r = A first at r = 27721
    LENGTHS = (5, 7, 8, 9, 11)

    @classmethod
    def matrix(cls):
        images, start = [], 0
        for n in cls.LENGTHS:
            images += [start + (i + 1) % n for i in range(n)]
            start += n
        return Permutation(tuple(images)).to_matrix()

    def test_large_order_costs_a_walk_to_the_cap_and_a_few_powers(self, monkeypatch):
        a = self.matrix()
        products = []
        matmul = RMatrix.__matmul__

        def counting(x, y):
            products.append(1)
            return matmul(x, y)

        monkeypatch.setattr(RMatrix, "__matmul__", counting)
        p = as_potent(a, 27721)
        rep = potency_report(a, 27721)
        assert rep.is_r_potent and rep.minimal_r is None
        assert p.powers is None and rep.rank_trace_ok
        assert not potency_report(a, 27720).is_r_potent
        with pytest.raises(ValueError, match="not 27720-potent"):
            as_potent(a, 27720)
        # each call: at most 63 walk products and two square-and-multiply powers
        assert len(products) <= 4 * (63 + 2 * 2 * 15)
