"""The potency decision from the block periods, the decision at one r, and the boolean Wielandt power.

``minimal_potency`` decides from L, the lcm of the periods of the nonzero
diagonal blocks, with one power A^L.  It is checked against the reference
walk ``unscreened_minimal_potency``, which takes every power up to its cap,
on every 0/1 matrix with n <= 3 and on seeded rational matrices with n <= 5.
Every ``NonPotency`` certificate is confirmed by an independent power
A^(L+1) != A, and L by the diagonal-hit period oracle.  ``potent_at``, which
decides one r from A's own powers when r - 1 <= n, is checked against the
period route and the ``Fraction`` power on every 0/1 matrix with n <= 3 at
r = 2..6, on seeded rational potents, perturbed copies of them and their
doubles, and on the semigroup goldens' generators and members: the same
verdict and the same projection, exactly.  Its route for a monomial A, by
the cycles, is checked against the period route and ``_checked_power`` on
every permutation with n <= 5 and on scaled monomials, at r = 2..13.
``_checked_power``, the checked power both entry points take, is checked
against the ``Fraction`` powers, and its product count against
``RMatrix.pow`` and one check.  The pattern power of
``wielandt_check`` is checked against the exact rational power, and its
squaring test, which stops at the first full square, against the oracle
``pattern_power`` on patterns whose powers do and do not fill.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from rpotent.decomposition import block_triangularize
from rpotent.generators import block_diagonal, cycle_matrix, random_r_potent, uniform_idempotent
from rpotent.matrix import PatternMatrix, Permutation, RMatrix, load_matrix
from rpotent.potency import NonPotency, Potent, _checked_power, potent_at
from rpotent.semigroup import rational_closure
from rpotent.spectral import _support_power_is_full, wielandt_check

from oracles import (
    decide,
    diagonal_hit_period_lcm,
    is_positive,
    is_primitive,
    naive_power,
    pattern_from_bools,
    pattern_power,
    random_small_matrix,
    small_patterns,
    small_zero_one_matrices,
    unscreened_minimal_potency,
    wielandt_exponent,
)

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("rpotent").joinpath("data")


def _agrees_with_the_walk(a: RMatrix) -> Potent | NonPotency:
    decision = decide(a)
    reference = unscreened_minimal_potency(a)
    if isinstance(decision, NonPotency):
        assert reference is None
        assert decision.period_lcm == diagonal_hit_period_lcm(a)
        assert naive_power(a, decision.period_lcm + 1) != a
    else:
        assert decision.r == reference
        assert decision.period == decision.r - 1 == diagonal_hit_period_lcm(a)
        assert decision.projection == a.pow(decision.r - 1)
    return decision


def _weighted_cycle(rng: random.Random, k: int) -> list[list[Fraction]]:
    w = rng.choice([Fraction(1), Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2)])
    return [[w if i == (j + 1) % k else Fraction(0) for j in range(k)] for i in range(k)]


def _block_triangular(rng: random.Random, n: int) -> RMatrix:
    """Random diagonal blocks (zero, weighted cycle, idempotent, random) and sparse coupling, relabelled.

    Most such matrices have potent blocks, so both outcomes of the decision
    are common; the tests past the old cap reach its per-block step.
    """
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    while start < n:
        k = rng.randint(1, n - start)
        kind = rng.choice(["zero", "cycle", "cycle", "idempotent", "random"])
        if kind == "zero":
            k, block = 1, [[Fraction(0)]]
        elif kind == "cycle":
            block = _weighted_cycle(rng, k)
        elif kind == "idempotent":
            block = [list(row) for row in uniform_idempotent(k).entries]
        else:
            block = [list(row) for row in random_small_matrix(rng, k).entries]
        for i in range(k):
            rows[start + i][start:start + k] = block[i]
            for j in range(start + k, n):
                if rng.random() < 0.2:
                    rows[start + i][j] = rng.choice([Fraction(1), Fraction(1, 2), Fraction(3)])
        start += k
    return RMatrix(rows).conjugate(Permutation.random(n, rng))


class TestDecisionAgainstTheWalk:
    def test_every_zero_one_matrix_up_to_three(self):
        outcomes = Counter()
        for a in small_zero_one_matrices():
            decision = _agrees_with_the_walk(a)
            outcomes["potent" if isinstance(decision, Potent) else "certified"] += 1
        # 2 + 16 + 512 matrices, 2 + 9 + 76 of them potent; each of the 443
        # others has a certificate, [[1, 1], [0, 1]] among them
        assert outcomes == {"potent": 87, "certified": 443}

    def test_seeded_rational_matrices_up_to_five(self):
        rng = random.Random(2024)
        outcomes = Counter()
        for i in range(2000):
            n = rng.randint(1, 5)
            if i % 4 == 0:
                a = random_small_matrix(rng, n, density=rng.uniform(0.1, 0.7))
            elif i % 4 == 1:
                try:
                    a = random_r_potent(rng.randint(2, 7), rng.randint(1, n), rng.randrange(10**6), max_dim=5).a
                except ValueError:
                    continue
            else:
                a = _block_triangular(rng, n)
            decision = _agrees_with_the_walk(a)
            outcomes[type(decision).__name__] += 1
        assert outcomes["Potent"] >= 400 and outcomes["NonPotency"] >= 400

    def test_the_zero_matrix_is_idempotent(self):
        decision = decide(RMatrix.zeros(4))
        assert isinstance(decision, Potent) and decision.r == 2

    @pytest.mark.parametrize(
        "rows, big_l",
        [
            ([[Fraction(1, 2)]], 1),
            ([[2]], 1),
            ([[0, 1], [0, 0]], 1),
            ([[1, 1], [0, 1]], 1),
            ([[0, 2, 0], [0, 0, 1], [1, 0, 0]], 3),
            ([[0, 2], [2, 0]], 2),
        ],
    )
    def test_certificates(self, rows, big_l):
        a = RMatrix(rows)
        assert _agrees_with_the_walk(a) == NonPotency(big_l)


class TestPastTheOldCap:
    """Exponents that a walk capped at 64 products never reached."""

    @pytest.mark.parametrize("lengths, r", [((3, 4, 7), 85), ((5, 7, 9), 316), ((67,), 68)])
    def test_long_permutations_are_potent(self, lengths, r):
        a = block_diagonal([cycle_matrix(k) for k in lengths])
        decision = decide(a)
        assert isinstance(decision, Potent) and decision.r == r
        assert decision.projection == RMatrix.identity(a.n)
        assert a.pow(r) == a and a.pow(r - 1) != a

    @pytest.mark.parametrize("weight", [1000, 10**10])
    def test_weighted_permutation_is_certified_by_its_blocks(self, weight, monkeypatch):
        # L = 27720: squaring the weighted A up to A^27721 would multiply the
        # entry sizes by about 27720; each block fails at its own period first
        products = Counter()
        matmul = RMatrix.__matmul__

        def counting(x, y):
            products[x.n] += 1
            return matmul(x, y)

        cycles = block_diagonal([cycle_matrix(k) for k in (5, 7, 8, 9, 11)])
        a = RMatrix([[weight * x for x in row] for row in cycles.num])
        monkeypatch.setattr(RMatrix, "__matmul__", counting)
        decision = decide(a)
        monkeypatch.undo()
        assert decision == NonPotency(27720)
        # the first block, of period 5, takes B^6 = B^4 B^2: three 5 x 5 products
        assert sum(products.values()) <= 5 and set(products) == {5}
        assert a.submatrix(range(5)).pow(6) != a.submatrix(range(5))

    def test_potent_blocks_with_a_coupling_that_breaks_potency(self):
        # cycles of lengths 2 and 3 (L = 6 > n = 5) pass at their own periods,
        # and the entry from the 3-cycle into the 2-cycle adds up in every power
        rows = [list(row) for row in block_diagonal([cycle_matrix(2), cycle_matrix(3)]).entries]
        rows[0][2] = Fraction(1)
        a = RMatrix(rows)
        assert _agrees_with_the_walk(a) == NonPotency(6)


def _is_monomial(a: RMatrix) -> bool:
    """One nonzero in each row and in each column: the support is a permutation."""
    return all(sum(map(bool, row)) == 1 for row in a.num) and all(sum(map(bool, col)) == 1 for col in zip(*a.num))


def _potent_at_agrees(a: RMatrix, r: int) -> tuple[str, bool]:
    """``potent_at`` against the period route and the ``Fraction`` oracle: one verdict, one projection.

    Returns the side of the split r - 1 <= n, ``"direct"`` or
    ``"periods"``, and the verdict.  The route ``potent_at`` took is read
    off whether its ``Potent`` holds a triangularization: the periods side
    builds one, except for a monomial A, which takes its cycles on either
    side and builds none.
    """
    got = potent_at(a, r)
    decision = decide(a)
    reference = None if isinstance(decision, NonPotency) else decision.at(r)
    potent = naive_power(a, r) == a
    assert (got is not None) == (reference is not None) == potent
    route = "direct" if r - 1 <= a.n else "periods"
    if got is not None:
        assert got.a is a and got.r == r
        projection = naive_power(a, r - 1)
        assert (got.projection.den, got.projection.num) == (reference.projection.den, reference.projection.num)
        assert got.projection == projection
        assert ("tri" in vars(got)) == (route == "periods" and not _is_monomial(a))
    return route, potent


def _cycles(images: tuple[int, ...]) -> list[list[int]]:
    """The cycles of i -> images[i], each from its least point."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(images)):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = images[i]
        if cycle:
            cycles.append(cycle)
    return cycles


def _scaled_monomial(images: tuple[int, ...], products: tuple[Fraction, ...]) -> RMatrix:
    """The monomial with row i's nonzero in column ``images[i]`` whose entries multiply to ``products[c]`` around cycle c.

    A cycle of length >= 2 carries 3 p, then 1/3, then ones; a fixed point carries p.
    """
    rows = [[Fraction(0)] * len(images) for _ in images]
    for cycle, p in zip(_cycles(images), products):
        values = [p] if len(cycle) == 1 else [3 * p, Fraction(1, 3)] + [Fraction(1)] * (len(cycle) - 2)
        for i, v in zip(cycle, values):
            rows[i][images[i]] = v
    return RMatrix(rows)


def _perturbed(rng: random.Random, a: RMatrix) -> RMatrix:
    rows = [list(row) for row in a.entries]
    i, j = rng.randrange(a.n), rng.randrange(a.n)
    rows[i][j] += rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3)])
    return RMatrix(rows)


def _golden_generators() -> list[RMatrix]:
    gens = []
    for golden in sorted(GOLDEN.glob("*.semigroup.json")):
        name = golden.name.removesuffix(".semigroup.json")
        bundled = DATA / f"{name}.json"
        paths = [bundled] if bundled.is_file() else sorted(GOLDEN.glob(f"{name}.g*.json"))
        gens.append([load_matrix(str(path)) for path in paths])
    return gens


class TestPotentAtAgainstThePeriodRoute:
    """``potent_at`` takes A's own powers for r - 1 <= n and the block periods past it; both must agree with the period route and the oracle."""

    def test_every_zero_one_matrix_up_to_three(self):
        # r = 2..6 puts r - 1 below, at and above n for every n <= 3
        outcomes = Counter()
        for a in small_zero_one_matrices():
            for r in range(2, 7):
                outcomes[_potent_at_agrees(a, r)] += 1
        assert set(outcomes) == {(route, potent) for route in ("direct", "periods") for potent in (True, False)}
        assert sum(outcomes.values()) == 530 * 5

    def test_seeded_rational_potents_and_perturbed_copies(self):
        rng = random.Random(28)
        outcomes = Counter()
        for i in range(80):
            n = rng.randint(1, 5)
            if i % 2:
                a = _block_triangular(rng, n)
            else:
                try:
                    a = random_r_potent(rng.randint(2, 7), rng.randint(1, n), rng.randrange(10**6), max_dim=5).a
                except ValueError:
                    continue
            decision = decide(a)
            exponents = set(range(2, a.n + 4))
            if isinstance(decision, Potent):
                exponents |= {decision.r, 2 * decision.r - 1}
            for m in (a, _perturbed(rng, a), RMatrix([[2 * x for x in row] for row in a.entries])):
                for r in sorted(exponents):
                    outcomes[_potent_at_agrees(m, r)] += 1
        assert min(outcomes.values()) >= 100 and len(outcomes) == 4

    def test_semigroup_goldens_and_their_members(self):
        outcomes = Counter()
        for gens in _golden_generators():
            members = rational_closure(gens, 30).members
            for r in range(2, 8):
                for m in gens:
                    outcomes[_potent_at_agrees(m, r)] += 1
            for m in members:
                outcomes[_potent_at_agrees(m, 4)] += 1
        assert outcomes[("direct", True)] and outcomes[("direct", False)] and outcomes[("periods", True)]


class TestMonomialRoute:
    """``potent_at`` decides a monomial A by its cycles, against the period route and ``_checked_power``.

    The same verdict and the same projection, I when A passes, and no
    triangularization built either way.
    """

    @staticmethod
    def _agrees(monkeypatch, a: RMatrix, r: int) -> bool:
        import rpotent.potency

        with monkeypatch.context() as patch:
            patch.setattr(rpotent.potency, "block_triangularize", lambda a: pytest.fail("a monomial was triangularized"))
            got = potent_at(a, r)
        decision = decide(a)
        by_periods = None if isinstance(decision, NonPotency) else decision.at(r)
        by_power = _checked_power(a, r - 1)
        assert (got is None) == (by_periods is None) == (by_power is None), (a, r)
        if got is not None:
            assert got.projection == by_periods.projection == by_power == RMatrix.identity(a.n), (a, r)
            assert (got.projection.den, got.projection.num) == (by_power.den, by_power.num)
            assert got.period == decision.period
        return got is not None

    def test_every_permutation_up_to_five(self, monkeypatch):
        verdicts = Counter()
        for n in range(1, 6):
            for images in itertools.permutations(range(n)):
                a = Permutation(images).to_matrix()
                for r in range(2, 14):
                    verdicts[self._agrees(monkeypatch, a, r)] += 1
        assert sum(verdicts.values()) == (1 + 2 + 6 + 24 + 120) * 12 and verdicts[True] and verdicts[False]

    def test_scaled_monomials(self, monkeypatch):
        # each cycle's scalars multiply to 1/2, 2 or 1: potent exactly when every product is 1 and every length divides r - 1
        verdicts = Counter()
        for n in range(1, 5):
            for images in itertools.permutations(range(n)):
                cycles = _cycles(images)
                for products in itertools.product((Fraction(1, 2), Fraction(2), Fraction(1)), repeat=len(cycles)):
                    a = _scaled_monomial(images, products)
                    for r in range(2, 14):
                        potent = all(p == 1 and (r - 1) % len(c) == 0 for c, p in zip(cycles, products))
                        assert self._agrees(monkeypatch, a, r) == potent, (images, products, r)
                        verdicts[potent] += 1
        assert verdicts[True] and verdicts[False]


class TestCheckedPowerAgainstTheNaivePower:
    """``_checked_power(a, k)``, the one checked power of both entry points, against ``Fraction`` powers.

    For k = 1 .. 2n + 1: A^k exactly when the naive A^(k+1) is A, else None.
    Where A^2 != A and k >= 2 it makes as many products as ``a.pow(k)`` and
    one check.
    """

    @pytest.fixture
    def products(self, monkeypatch):
        count = [0]
        matmul = RMatrix.__matmul__

        def counted(x, y):
            count[0] += 1
            return matmul(x, y)

        monkeypatch.setattr(RMatrix, "__matmul__", counted)
        return count

    def _agrees(self, a: RMatrix, products) -> Counter:
        powers = [naive_power(a, j) for j in range(1, 2 * a.n + 3)]  # powers[j] is A^(j+1)
        idempotent = powers[1] == a
        outcomes = Counter()
        for k in range(1, 2 * a.n + 2):
            products[0] = 0
            got = _checked_power(a, k)
            made = products[0]
            expected = powers[k - 1] if powers[k] == a else None
            assert got == expected, (a, k)
            if got is not None:
                assert (got.den, got.num) == (expected.den, expected.num)
            if not idempotent and k >= 2:
                products[0] = 0
                a.pow(k)
                assert made == products[0] + 1, (a, k)
            outcomes[got is not None] += 1
        return outcomes

    def test_every_zero_one_matrix_up_to_three(self, products):
        outcomes = Counter()
        for a in small_zero_one_matrices():
            outcomes += self._agrees(a, products)
        assert outcomes[True] and outcomes[False]

    def test_seeded_emissions_and_perturbed_copies(self, products):
        rng = random.Random(35)
        outcomes = Counter()
        for seed in range(40):
            a = random_r_potent(2 + seed % 6, 1 + seed % 4, seed, max_dim=6).a
            outcomes += self._agrees(a, products)
            outcomes += self._agrees(_perturbed(rng, a), products)
        assert outcomes[True] >= 100 and outcomes[False] >= 100


def _random_primitive(rng: random.Random, n: int) -> RMatrix:
    while True:
        rows = [
            [rng.choice([1, 2, Fraction(1, 3), Fraction(5, 2)]) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        m = RMatrix(rows)
        if is_primitive(m):
            return m


def _wielandt_extremal(n: int) -> PatternMatrix:
    """The n-cycle 1 -> 2 -> ... -> n -> 1 plus the chord n-1 -> 1: a primitive
    pattern whose least full power is exactly the Wielandt exponent."""
    rows = [1 << (i + 1) % n for i in range(n)]
    rows[n - 2] |= 1
    return PatternMatrix(n, tuple(rows))


class TestWielandtPatternPower:
    def test_squaring_agrees_with_pow_on_every_pattern_up_to_three(self):
        for p in small_patterns():
            for k in range(1, wielandt_exponent(p.n) + 4):
                assert _support_power_is_full(p, k) == pattern_power(p, k).is_full(), (p, k)

    def test_squaring_agrees_with_pow_on_random_patterns(self):
        rng = random.Random(20)
        verdicts = Counter()
        for _ in range(400):
            n = rng.randint(1, 12)
            density = rng.uniform(0.05, 0.5)
            p = pattern_from_bools([[rng.random() < density for _ in range(n)] for _ in range(n)])
            e = wielandt_exponent(n)
            for k in {1, rng.randint(1, e + 3), e - 1 or 1, e}:
                full = pattern_power(p, k).is_full()
                assert _support_power_is_full(p, k) == full, (p, k)
                verdicts[full] += 1
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("n", range(3, 31))
    def test_extremal_pattern_fills_exactly_at_the_exponent(self, n):
        s, e = _wielandt_extremal(n), wielandt_exponent(n)
        assert pattern_power(s, e).is_full() and not pattern_power(s, e - 1).is_full()
        assert _support_power_is_full(s, e)
        assert not _support_power_is_full(s, e - 1)

    def test_squaring_makes_no_more_products_than_pow(self, monkeypatch):
        s, e = _wielandt_extremal(30), wielandt_exponent(30)
        calls = Counter()
        product = PatternMatrix.__mul__

        def counted(self, other):
            calls[mode] += 1
            return product(self, other)

        monkeypatch.setattr(PatternMatrix, "__mul__", counted)
        mode = "pow"
        pattern_power(s, e)
        mode = "squaring"
        _support_power_is_full(s, e)
        assert 0 < calls["squaring"] <= calls["pow"]

    def test_pattern_power_agrees_with_the_exact_power(self):
        rng = random.Random(6)
        for _ in range(40):
            m = _random_primitive(rng, rng.randint(1, 8))
            exact = is_positive(m.pow(wielandt_exponent(m.n)))
            assert exact
            assert wielandt_check(block_triangularize(m)) == exact

    def test_pattern_power_is_the_support_of_the_exact_power(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 8)
            m = RMatrix([[rng.choice([0, 0, 1, Fraction(2, 3)]) for _ in range(n)] for _ in range(n)])
            for k in (0, 1, 2, 5, wielandt_exponent(n)):
                assert pattern_power(m.pattern(), k) == m.pow(k).pattern()

    @pytest.mark.parametrize(
        "m",
        [cycle_matrix(3), RMatrix([[1, 0], [1, 1]]), RMatrix.zeros(1)],
        ids=["periodic", "decomposable", "zero"],
    )
    def test_triangularization_of_non_primitive_input_is_rejected(self, m):
        with pytest.raises(ValueError):
            wielandt_check(block_triangularize(m))
