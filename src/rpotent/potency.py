"""Detection of the A^r = A property and its exact arithmetic consequences.

A matrix with A^r = A for some r >= 2 is called r-potent (idempotent is the
r = 2 case).  For such matrices A^(r-1) is an idempotent projection and the
rank of A equals the trace of that projection, an identity this module checks
with exact arithmetic only.  Reports take a ``Potent``, a matrix checked
once, so none of them re-checks potency or recomputes a power, and none
restates the decision: r and rank A are reported once, by the caller.

The decision has two entry points, which check a power by one routine,
``_checked_power``: A^k, kept only once one product shows A^k A = A.
``minimal_potency`` decides whether any r exists, from the periods of the
diagonal blocks of A's maximal triangularization, with no cap: it returns A
checked at its least r, or the ``NonPotency`` certificate when none exists.
``Potent.at`` moves that value to another exponent without a new power.
``potent_at`` decides one given r: a monomial A by its cycles
(``_monomial_defect``), else from A's own powers when r - 1 <= n, else by
``minimal_potency`` and ``Potent.at``.  ``Potent.from_normal_form`` checks
a matrix that comes with its normal form A = F C G instead, with no power
and no rank.  ``block_ranks`` reads the ranks of A's diagonal blocks off a
checked projection A^(r-1), whichever decision checked it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, repeat
from math import gcd
from operator import floordiv, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .decomposition import BlockTriangularization, block_triangularize
from .matrix import PatternMatrix, RMatrix


def require_exponent(r: int) -> None:
    """ValueError unless ``r`` is a potency exponent, r >= 2."""
    if r < 2:
        raise ValueError("potency exponent must be at least 2")


def is_r_potent(a: RMatrix, r: int) -> bool:
    """True iff the exact r-th power of ``a`` equals ``a``."""
    require_exponent(r)
    return a.pow(r) == a


def _monomial_defect(rows: Sequence[tuple[int, int]], den: int, r: int) -> str | None:
    """None when the monomial M with M[i, j_i] = v_i / den, for ``rows`` = ((j_i, v_i), ...), has M^(r-1) = I; else what fails.

    Row i of M^m is v_i v_(j_i) ... / den^m at the end of the m-step walk
    i -> j_i -> ... of the column map.  So M^(r-1) = I exactly when the map
    is a permutation with every v_i > 0 (M is monomial), each cycle's
    length d divides r - 1, and the v_i around each cycle multiply to
    den^d: the walk from i then goes (r - 1) / d times round its cycle, and
    a positive product p has p^((r-1)/d) = 1 only at p = 1.  One pass over
    the rows, O(n) integer products.
    """
    k = len(rows)
    if sorted([j for j, _ in rows]) != list(range(k)) or min([v for _, v in rows], default=1) <= 0:
        return "C is not monomial"
    seen = [False] * k
    for start in range(k):
        if seen[start]:
            continue
        length, product, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            i, v = rows[i]
            length += 1
            product *= v
        if (r - 1) % length:
            return f"a cycle of length {length} does not divide r - 1 = {r - 1}"
        if product != den**length:
            return "the scalars around a cycle do not multiply to 1"
    return None


class NormalForm(NamedTuple):
    """The factors of A = F C G, on the integer grid: F is n x k, C is k x k, G is k x n.

    ``f`` holds row a of F as its one (column, value) pair, with value 0
    for a zero row: F is an integer matrix with at most one nonzero in each
    row, which Kronecker products, direct sums and relabellings keep.  (A
    common denominator d of F moves into G's, as (F/d) G = F (G/d).)  ``c``
    holds row i of C as its one (column, numerator) pair over ``c_den``,
    and ``g`` the k rows of G as numerators over ``g_den``.
    ``Potent.from_normal_form`` checks that they factor a given matrix.
    """

    f: tuple[tuple[int, int], ...]
    c: tuple[tuple[int, int], ...]
    c_den: int
    g: tuple[tuple[int, ...], ...]
    g_den: int

    @property
    def k(self) -> int:
        return len(self.c)

    def projection(self) -> RMatrix:
        """F G: row a is v G[j] for F's row a = (j, v)."""
        g, zero = self.g, (0,) * len(self.f)
        rows = [tuple([*map(mul, g[j], repeat(v))]) if v else zero for j, v in self.f]
        return RMatrix._normalized(self.g_den, tuple(rows))


def _unit_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the n x n identity matrix."""
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


@dataclass(frozen=True)
class Potent:
    """A matrix A with A^r = A, checked once.

    ``projection`` is A^(r-1), whose product with A was checked to be A.  It
    is also A^L for the ``period`` L, the least d >= 1 with A^(d+1) = A, as
    L divides r - 1.  The triangularization ``tri``, and with it L, comes on
    first use, unless the decision that built the value already had it.
    Only this module builds one: holding one proves A^r = A.  The decisions
    set the projection they checked; ``from_normal_form`` checks A from its
    factors instead, keeps them as ``normal_form``, and builds the
    projection F G and the rank k from them, the projection on first use.
    """

    a: RMatrix
    r: int
    normal_form: NormalForm | None = field(default=None, compare=False, repr=False)

    @classmethod
    def _decided(cls, a: RMatrix, r: int, projection: RMatrix, t: BlockTriangularization | None = None) -> Potent:
        p = cls(a, r)
        vars(p)["projection"] = projection  # the checked power the cached property stands for
        if t is not None:
            vars(p)["tri"] = t  # the triangularization the cached property would build
        return p

    @classmethod
    def from_normal_form(cls, a: RMatrix, r: int, form: NormalForm) -> Potent:
        """``a`` checked at ``r`` by its normal form A = F C G; ValueError naming the condition that fails.

        Three exact checks on the integer grid, none of them a power, a rank
        or a product of n x n matrices, O(n^2) in all:

        * A == F (C G): row a of F C G is one row of G times F[a, j] C[j, i],
          or zero, compared with row a of A;
        * G F == I_k, summed over the nonzeros of each row of G;
        * C is monomial, each cycle length divides r - 1, and the scalars
          around each cycle multiply to 1 (``_monomial_defect``), that is,
          C^(r-1) = I.

        Proof that A^r = A, rank A = k and A^(r-1) = F G.  As G F = I,
        A^m = F C G F C G ... = F C^m G for every m >= 1, so
        A^(r-1) = F C^(r-1) G = F G, and A^r = F C^r G = F C G = A.  F has
        the left inverse G and G the right inverse F, so F is injective, G
        is onto, and C is invertible: rank A = rank C = k.  No sign of F or
        G enters.
        """
        require_exponent(r)
        defect = _monomial_defect(form.c, form.c_den, r)
        if defect is not None:
            raise ValueError(defect)
        n, k, f, g, g_den = a.n, form.k, form.f, form.g, form.g_den
        columns = [j for j, v in f if v]
        shaped = len(f) == n and len(g) == k and set(map(len, g)) <= {n} and g_den >= 1
        if not shaped or columns and not 0 <= min(columns) <= max(columns) < k:
            raise ValueError(f"the factors do not fit an {n} x {n} matrix of rank {k}")
        # row i of G F is the sum of G[i, b] F[b] over the nonzeros of row i of G
        for i, row in enumerate(g):
            gf = [0] * k
            for (j, v), w in zip(compress(f, row), compress(row, row)):
                gf[j] += w * v
            gf[i] -= g_den
            if any(gf):
                raise ValueError("G F is not the identity")
        # Row a of F C G is v c / (c_den g_den) times G[i], for F's row a = (j, v) and C's row j = (i, c).
        # With G[i] = q p, p primitive, it is A's row a = A.num[a] / A.den exactly when A.num[a] = m p
        # for m = A.den v c q / (c_den g_den) an integer: a fraction m would leave m p off the
        # integer grid, as the entries of p have no common factor.
        primitive = []
        for row in g:
            q = gcd(*row)  # not 0: G F = I leaves no zero row
            primitive.append((row, 1) if q == 1 else (tuple([*map(floordiv, row, repeat(q))]), q))
        den, scale, c = a.den, form.c_den * g_den, form.c
        for a_row, (j, v) in zip(a.num, f):
            if not v:
                if any(a_row):
                    raise ValueError("A is not F C G")
                continue
            i, cv = c[j]
            p, q = primitive[i]
            m, rest = divmod(den * v * cv * q, scale)
            if rest or a_row != (p if m == 1 else tuple([*map(mul, p, repeat(m))])):
                raise ValueError("A is not F C G")
        p = cls(a, r, form)
        vars(p)["rank"] = k
        return p

    @cached_property
    def projection(self) -> RMatrix:
        """A^(r-1): F G of the normal form, for a value the decisions did not set it on."""
        return self.normal_form.projection()

    @cached_property
    def tri(self) -> BlockTriangularization:
        return block_triangularize(self.a)

    @cached_property
    def pattern(self) -> PatternMatrix:
        """A's support, taken from ``tri`` when the value holds one; else read off A once, building no ``tri``."""
        t = vars(self).get("tri")
        return self.a.pattern() if t is None else t.graph.pattern

    @property
    def period(self) -> int:
        """L, the lcm of the block periods: A^r = A exactly when L divides r - 1."""
        return self.tri.period_lcm

    @cached_property
    def rank(self) -> int:
        return self.a.rank()

    def power_cycle(self) -> Iterator[RMatrix]:
        """A, A^2, ..., A^L, built on demand; A^j is item (j - 1) mod L."""
        return accumulate(repeat(self.a, self.period - 1), operator.matmul, initial=self.a)

    def per_exponent(self, test: Callable[[PatternMatrix], bool]) -> tuple[bool, ...]:
        """``test`` of the support of A^j for each j in 1, ..., r-1, run once per power in one period.

        A >= 0 cannot cancel, so the support of A^j is the j-th boolean power
        of the support of A, and no rational power is taken.
        """
        s = self.tri.graph.pattern
        flags = [test(m) for m in accumulate(repeat(s, self.period - 1), operator.mul, initial=s)]
        return tuple(flags[j % len(flags)] for j in range(self.r - 1))

    def at(self, r: int) -> Potent | None:
        """A checked at exponent ``r``, or None when A^r != A; no power is taken.

        A^r = A iff the period L divides r - 1 (``minimal_potency``), and
        then A^(r-1) = A^L is this value's projection.
        """
        require_exponent(r)
        if r == self.r:
            return self
        return Potent._decided(self.a, r, self.projection, self.tri) if (r - 1) % self.period == 0 else None


@dataclass(frozen=True)
class NonPotency:
    """Proof that no r >= 2 has A^r = A: A^(L+1) != A for L = ``period_lcm``.

    L is the lcm of the periods of the nonzero diagonal blocks of A's
    maximal triangularization; ``minimal_potency`` shows that A^(L+1) = A
    for every potent A.
    """

    period_lcm: int

    def to_dict(self) -> dict:
        return {"period_lcm": self.period_lcm}


def minimal_potency(t: BlockTriangularization) -> Potent | NonPotency:
    """A = ``t.source`` checked at its least r with A^r = A, or the proof that no r exists.

    Let L be the lcm of the periods of the nonzero diagonal blocks of ``t``
    (1 when every block is zero).  Then A^r = A for some r >= 2 iff
    A^(L+1) = A, and the least such r is L + 1:

    1. Block potency.  If A^(d+1) = A, every diagonal block B has
       B^(d+1) = B, because the diagonal blocks of A^k are the B^k.
    2. Spectrum.  Then the minimal polynomial of B divides x^(d+1) - x,
       which has distinct roots: B is diagonalizable with eigenvalues 0 and
       d-th roots of unity.  A nonzero block is irreducible, of period p say,
       and rho(B) > 0 is one of those eigenvalues, so rho(B) = 1 and every
       nonzero eigenvalue is peripheral.  By Perron-Frobenius they are
       exactly the p-th roots of unity, each simple (Horn & Johnson,
       *Matrix Analysis*, 8.4; Minc, *Nonnegative Matrices*, ch. 3).
    3. Minimal r.  A is diagonalizable by the same argument, and its nonzero
       eigenvalues are those of its blocks.  So A^(e+1) = A iff every p
       divides e, iff L divides e: the least r is L + 1, and A^r = A iff L
       divides r - 1.  With every block zero, L = 1, and A^2 = A iff A = 0.

    A^L is taken by square-and-multiply.  Its entries can grow to about L
    times their bit length, and L can far exceed n (a permutation of 40
    points has L = 27720).  So when L > n each nonzero block is first
    checked at its own period, B^(p+1) = B, which p <= n keeps cheap; a
    block that fails proves A^(L+1) != A by step 1.  Once every block
    passes, each block's powers cycle, and the entries of A^k grow only
    polynomially in k.
    """
    a, big_l = t.source, t.period_lcm
    if big_l > a.n:
        for b, p in zip(t.diagonal_blocks, t.periods):
            if p is not None and b.pow(p + 1) != b:
                return NonPotency(big_l)
    projection = _checked_power(a, big_l)
    if projection is None:
        return NonPotency(big_l)
    return Potent._decided(a, big_l + 1, projection, t)


def _checked_power(a: RMatrix, k: int) -> RMatrix | None:
    """A^k when A^(k+1) = A, else None: the one place a power of A is checked.

    A^2 comes first: when A^2 = A, A^k = A and nothing more is computed;
    otherwise k = 1 fails.  For k >= 2, A^k is built by square-and-multiply
    from A^2 and checked by one product, A^k A = A.  Either way this makes
    as many products as ``a.pow(k)`` and its check.
    """
    square = a @ a
    if square == a:
        return a
    if k == 1:
        return None
    half, odd = divmod(k, 2)
    power = square.pow(half) @ a if odd else square.pow(half)
    return power if power @ a == a else None


def potent_at(a: RMatrix, r: int) -> Potent | None:
    """``a`` checked at exponent ``r``: its ``Potent`` when A^r = A, else None.

    A monomial A, whose support is a permutation, is decided by its cycles
    (``_monomial_defect``), in O(n) after one pass over its rows: A^r = A
    iff A^(r-1) = I, as A is invertible, so the projection is I, and no
    power and no triangularization is built.  Every other A takes one of two
    routes, split at r - 1 <= n:

    * r - 1 <= n: A's own powers, A^(r-1) checked by ``_checked_power``.
      No triangularization is built.
    * r - 1 > n: the period route, ``minimal_potency`` then ``Potent.at``,
      so a large r takes no r-th power: A^r = A iff the lcm L of the block
      periods divides r - 1, and the projection is A^L.

    All three give the same projection, since A^(r-1) = A^L when L divides
    r - 1.  The split bounds the direct route to at most 2 floor(log2 n) + 1
    products, with entry bit lengths that grow at most n-fold, the bound the
    period route's block pre-check already takes (B^(p+1), p + 1 <= n + 1).
    """
    require_exponent(r)
    n = a.n
    if all(row.count(0) == n - 1 for row in a.num):
        rows = [(row.index(v), v) for row in a.num for v in [max(row)]]
        if len({j for j, _ in rows}) == n:  # one nonzero per row, in distinct columns
            if _monomial_defect(rows, a.den, r):
                return None
            return Potent._decided(a, r, RMatrix._make(1, _unit_rows(n)))
    if r - 1 > n:
        decision = minimal_potency(block_triangularize(a))
        return None if isinstance(decision, NonPotency) else decision.at(r)
    projection = _checked_power(a, r - 1)
    return None if projection is None else Potent._decided(a, r, projection)


def block_ranks(projection: RMatrix, components: Iterable[Sequence[int]]) -> list[int]:
    """rank A[C, C] for each C of ``components``, read as trace E[C, C] off A's checked ``projection`` E.

    E = A^(r-1) must come with E A = A checked exactly, as a ``Potent``'s
    ``projection`` does.  Each C must be a diagonal block of a block
    triangular form that A respects: its own components ``tri.components``,
    or those of a pattern that contains A's.  A walk from C back to C then
    stays in C, so compressing to C is multiplicative, and B = A[C, C] has
    B^r = A^r[C, C] = B.  So E[C, C] = B^(r-1) is an idempotent, with
    B = E[C, C] B and E[C, C] = B^(r-2) B (E[C, C] = B at r = 2):
    rank B = rank E[C, C] = trace E[C, C], an integer, as asserted.  No
    block is built and no rank is computed.
    """
    den, num = projection.den, projection.num
    ranks = []
    for comp in components:
        rank, rest = divmod(sum(num[i][i] for i in comp), den)
        assert not rest, "trace of a block projection is not an integer"
        ranks.append(rank)
    return ranks


def rank_trace_check(p: Potent) -> bool:
    """Exact test of rank(A) == trace(A^(r-1)) for an r-potent A: the elimination kernel against the projection.

    The rank is ``RMatrix.rank``'s elimination on A, never ``p.rank``: a
    value checked by its normal form A = F C G has rank k and projection
    F G, whose trace is trace(G F) = k, so comparing the two would hold
    whatever the kernel did.
    """
    return p.a.rank() == p.projection.trace()


def zero_diagonal_powers(p: Potent) -> set[int]:
    """Exponents j in {1, ..., r-1} for which A^j has a zero diagonal entry."""
    flags = p.per_exponent(PatternMatrix.has_zero_diagonal_entry)
    return {j for j, zero in enumerate(flags, start=1) if zero}


@dataclass(frozen=True)
class DecompositionPrediction:
    """Outcome of the rank/diagonal decomposability criteria on one r-potent matrix.

    ``case`` is one of:

    * ``rank_above_threshold``   rank > r-1, decomposability predicted;
    * ``singular_zero_diagonal`` rank <= r-1, singular, and A^2 .. A^(r-1)
      each have a zero diagonal entry, decomposability predicted;
    * ``no_prediction``          neither criterion fires.

    The second case only fires for r >= 3 and n >= 2: for r = 2 the power
    condition is vacuous and positive rank-one idempotents are singular yet
    indecomposable, and the 1x1 zero matrix satisfies everything while having
    no proper nonempty subset to decompose along.
    """

    case: str
    predicted_decomposable: bool | None
    actual_decomposable: bool

    @property
    def agrees(self) -> bool:
        return self.predicted_decomposable is None or (
            self.predicted_decomposable == self.actual_decomposable
        )

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "predicted_decomposable": self.predicted_decomposable,
            "actual_decomposable": self.actual_decomposable,
            "agrees": self.agrees,
        }


def main_decomposability_test(p: Potent) -> DecompositionPrediction:
    """Classify an r-potent matrix by the decomposability criteria and compare.

    A is actually decomposable iff ``p.tri`` has more than one block.  For
    r >= 3, rank < n and a zero on the diagonal of each of A^2 .. A^(r-1)
    hold iff some diagonal block is a 1x1 zero, read off ``p.tri.periods``:
    such a block stays zero in every power and makes A singular, while a
    nonzero block B of period p has B^(r-1) = B^p, a direct sum of primitive
    idempotents, which are positive; so with no zero block the diagonal of
    A^(r-1) is positive.
    """
    a, r, k = p.a, p.r, p.rank
    actual = not p.tri.is_trivial
    if k > r - 1:
        case, predicted = "rank_above_threshold", True
    elif r >= 3 and a.n >= 2 and None in p.tri.periods:
        case, predicted = "singular_zero_diagonal", True
    else:
        case, predicted = "no_prediction", None
    return DecompositionPrediction(case=case, predicted_decomposable=predicted, actual_decomposable=actual)
