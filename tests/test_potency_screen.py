"""The non-potency screen of the potency walk and the boolean Wielandt power.

Each fast path is checked against the path it replaced: the screened walk
against ``unscreened_minimal_potency``, which takes every power up to the
cap, and the pattern power of ``wielandt_check`` against the exact rational
power.  Every certificate the screen returns is recomputed from naive
``Fraction`` powers.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpotent.decomposition import block_triangularize
from rpotent.generators import cycle_matrix, random_r_potent
from rpotent.matrix import Permutation, RMatrix
from rpotent.potency import NonPotency, minimal_potency
from rpotent.spectral import is_primitive, wielandt_check, wielandt_exponent

from oracles import naive_multiply, unscreened_minimal_potency


def _screened(a):
    """The screened walk and the certificate it returned, if any."""
    proof = []
    walk = minimal_potency(a, proof=proof)
    assert len(proof) <= 1
    assert walk is None or not proof
    return walk, proof[0] if proof else None


def _broken(p: RMatrix, a_is_zero: bool) -> str | None:
    """Which invariant of the powers of a potent matrix ``p`` breaks, from its Fraction entries."""
    n = p.n
    trace = sum((p.entries[i][i] for i in range(n)), Fraction(0))
    if trace.denominator != 1:
        return "trace_integer"
    if not 0 <= trace <= n:
        return "trace_bound"
    if not a_is_zero and all(x == 0 for row in p.entries for x in row):
        return "nonzero"
    return None


def _check_certificate(a: RMatrix, cert: NonPotency) -> None:
    """A^k breaks ``cert.invariant`` and no lower power breaks any invariant."""
    a_is_zero = all(x == 0 for row in a.entries for x in row)
    p = a
    for k in range(1, cert.power):
        assert _broken(p, a_is_zero) is None
        p = naive_multiply(p, a)
    assert _broken(p, a_is_zero) == cert.invariant


def _agrees_with_the_unscreened_walk(a: RMatrix) -> None:
    walk, cert = _screened(a)
    reference = unscreened_minimal_potency(a)
    if reference is None:
        assert walk is None
    else:
        assert walk is not None and cert is None
        assert walk.r == reference.r and walk.powers == reference.powers
    if cert is not None:
        _check_certificate(a, cert)


@st.composite
def _generated_potent(draw):
    r = draw(st.integers(2, 7))
    rank = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10**6))
    try:
        return random_r_potent(r, rank, seed, max_dim=6).a
    except ValueError:
        assume(False)


_ENTRIES = st.sampled_from([0, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)])


@st.composite
def _arbitrary(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    return RMatrix.from_rows(rows)


@st.composite
def _nilpotent(draw):
    """Strictly lower triangular entries, relabelled: every power past n - 1 is zero."""
    n = draw(st.integers(1, 6))
    rows = [[draw(_ENTRIES) if j < i else 0 for j in range(n)] for i in range(n)]
    images = draw(st.permutations(range(n)))
    return RMatrix.from_rows(rows).conjugate(Permutation(tuple(images)))


class TestScreenedWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_generated_potent(), _arbitrary(), _nilpotent(), st.integers(1, 6).map(RMatrix.zeros)))
    def test_same_result_as_the_unscreened_walk(self, a):
        _agrees_with_the_unscreened_walk(a)

    def test_every_zero_one_matrix_up_to_three(self):
        certified = potent = 0
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n * n):
                a = RMatrix.from_rows([list(bits[i * n:(i + 1) * n]) for i in range(n)])
                _agrees_with_the_unscreened_walk(a)
                walk, cert = _screened(a)
                potent += walk is not None
                certified += cert is not None
        # 2 + 16 + 512 matrices; 2 + 9 + 76 of them are potent.  Of the 443
        # others the screen certifies 297; the rest, such as [[1, 1], [0, 1]],
        # keep an integer trace in [0, n] and a nonzero value at every power
        # (a Jordan block at eigenvalue 1, or a nilpotent part beside a
        # cycle), so only the walk to the cap rejects them
        assert potent == 87
        assert certified == 297

    def test_the_zero_matrix_is_idempotent(self):
        walk, cert = _screened(RMatrix.zeros(4))
        assert walk is not None and walk.r == 2 and cert is None

    @pytest.mark.parametrize(
        "rows, power, invariant",
        [
            ([[Fraction(1, 2)]], 1, "trace_integer"),
            ([[2]], 1, "trace_bound"),
            ([[0, 1], [0, 0]], 2, "nonzero"),
            ([[0, 2, 0], [0, 0, 1], [1, 0, 0]], 3, "trace_bound"),
            ([[0, 2], [2, 0]], 2, "trace_bound"),
        ],
    )
    def test_certificates(self, rows, power, invariant):
        a = RMatrix.from_rows(rows)
        walk, cert = _screened(a)
        assert walk is None
        assert cert == NonPotency(power, invariant)
        _check_certificate(a, cert)

    def test_a_long_cycle_is_not_screened(self):
        # A^r = A first at r = 68; every power up to the cap is a nonzero
        # permutation with trace 0, so the walk gives up at the cap with no
        # certificate, as the unscreened walk does
        walk, cert = _screened(cycle_matrix(67))
        assert walk is None and cert is None


def _random_primitive(rng: random.Random, n: int) -> RMatrix:
    while True:
        rows = [
            [rng.choice([1, 2, Fraction(1, 3), Fraction(5, 2)]) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        m = RMatrix.from_rows(rows)
        if is_primitive(m):
            return m


class TestWielandtPatternPower:
    def test_pattern_power_agrees_with_the_exact_power(self):
        rng = random.Random(6)
        for _ in range(40):
            m = _random_primitive(rng, rng.randint(1, 8))
            exact = m.pow(wielandt_exponent(m.n)).is_positive()
            assert exact
            assert wielandt_check(block_triangularize(m)) == exact

    def test_pattern_power_is_the_support_of_the_exact_power(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 8)
            m = RMatrix.from_rows([[rng.choice([0, 0, 1, Fraction(2, 3)]) for _ in range(n)] for _ in range(n)])
            for k in (0, 1, 2, 5, wielandt_exponent(n)):
                assert m.pattern().pow(k) == m.pow(k).pattern()

    @pytest.mark.parametrize(
        "m",
        [cycle_matrix(3), RMatrix.from_rows([[1, 0], [1, 1]]), RMatrix.zeros(1)],
        ids=["periodic", "decomposable", "zero"],
    )
    def test_triangularization_of_non_primitive_input_is_rejected(self, m):
        with pytest.raises(ValueError):
            wielandt_check(block_triangularize(m))
