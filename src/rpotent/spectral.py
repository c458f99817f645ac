"""Period, primitivity, and the exact Perron value of nonnegative matrices.

Everything here is exact.  The spectral radius of a nonzero r-potent matrix
is 1 and that of a nilpotent one is 0; for any other matrix it is bracketed
exactly by Collatz-Wielandt bounds: for A >= 0 and any x > 0,
min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i (Horn & Johnson,
*Matrix Analysis*, 8.1).  A few float steps choose x; the quotients are
then evaluated in integers, so a poor x can loosen the bracket but never
make it wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .decomposition import BlockTriangularization
from .matrix import PatternMatrix, RMatrix, format_bound
from .potency import Potent

# The float steps that choose the Collatz-Wielandt vector of one block: power
# steps for a start, then at most PERRON_SHIFT_STEPS shifted inverse steps,
# which stop once the float quotients agree to PERRON_FLOAT_TOL (relative).
PERRON_POWER_STEPS = 8
PERRON_SHIFT_STEPS = 32
PERRON_FLOAT_TOL = 2.0**-45


def wielandt_check(t: BlockTriangularization) -> bool:
    """Positivity of A^(n^2 - 2n + 2), the guaranteed-positive power, read on the support.

    ``t`` is the maximal block triangularization of A, whose block periods
    tell without a new search whether A is primitive: one block of period 1.
    Rejects non-primitive input: the exponent only promises positivity for
    primitive matrices.  A >= 0, so no sum of products cancels and the
    support of A^k is the k-th boolean power of the support of A
    (``_support_power_is_full``); no rational entry is computed.
    """
    if t.periods != (1,):
        raise ValueError("positivity of the squared-index power needs a primitive matrix")
    n = t.source.n
    return _support_power_is_full(t.graph.pattern, n * n - 2 * n + 2)


def _support_power_is_full(s: PatternMatrix, k: int) -> bool:
    """Whether the boolean power S^k, k >= 1, is full, squaring S until a square fills.

    The first full square S^(2^i) with 2^i <= k decides it, for every
    pattern: if S^m is full for some m >= 1, then S has no zero column,
    since S^m = S^(m-1) S would inherit it; so S^(m+1) = S^m S is full, and
    by induction so is every higher power.  When no such square fills, the
    squares already made are multiplied at the set bits of k, so no
    squaring is done twice and no more products are made than ``S.pow(k)``.
    """
    squares = [s]
    while not squares[-1].is_full() and 1 << len(squares) <= k:
        squares.append(squares[-1] * squares[-1])
    at_bits = (square for i, square in enumerate(squares) if k >> i & 1)
    return squares[-1].is_full() or reduce(mul, at_bits).is_full()


def perron_value(
    t: BlockTriangularization, potent: Potent | None = None
) -> tuple[Fraction, Fraction]:
    """Exact bounds ``(lower, upper)`` on the spectral radius of A = ``t.source``.

    ``t`` is the maximal block triangularization of A (``block_triangularize``).
    With ``potent``, a checked A^r = A, the radius is exactly 1, or 0 for
    A = 0, and nothing is computed.  Otherwise rho(A) is the largest radius
    of a diagonal block, and each block is bracketed by ``block_bracket``; a
    matrix whose blocks are all 1 x 1 zeros (a nilpotent one) gets (0, 0).
    """
    if potent is not None:
        radius = Fraction(0 if t.source.is_zero() else 1)
        return radius, radius
    brackets = [block_bracket(b) for b in t.diagonal_blocks]
    return max(lo for lo, _ in brackets), max(hi for _, hi in brackets)


def block_bracket(b: RMatrix) -> tuple[Fraction, Fraction]:
    """Collatz-Wielandt bounds on rho(B) for a diagonal block B.

    The bounds for x = 1, the least and greatest row sums, are intersected
    with those for the x of ``perron_vector``; when the row sums are all
    equal, as in every 1 x 1 block, they are rho(B) itself and no float step
    is taken.
    """
    sums = [sum(row) for row in b.num]
    lo, hi = Fraction(min(sums), b.den), Fraction(max(sums), b.den)
    if lo == hi:
        return lo, hi
    x = perron_vector(b.num)
    quotients = [Fraction(sum(map(mul, row, x)), xi * b.den) for row, xi in zip(b.num, x)]
    return max(lo, min(quotients)), min(hi, max(quotients))


def perron_vector(num: tuple[tuple[int, ...], ...]) -> list[int]:
    """Positive integers close to the Perron vector of a strongly connected block.

    Floats on the grid ``num`` divided by a power of two at least its largest
    entry, so every float is at most 1 whatever the entries' size.  A few
    power steps give a start; shifted inverse steps (Noda, 1971) then solve
    (s I - B) y = x with s the largest float quotient (Bx)_i / x_i, which
    converge quadratically even where the other eigenvalues lie close to the
    circle of radius rho(B), as in a periodic block.  They stop once the
    quotients agree to PERRON_FLOAT_TOL, or keep the previous iterate once
    rounding stops their spread from shrinking.  An iterate with a zero,
    infinite or NaN entry is dropped and the last positive one kept.  Every
    float operation is correctly rounded (``fsum``, not ``sum``, whose
    rounding changed in Python 3.12), so x and the bracket are the same
    everywhere.
    """
    scale = 1 << max(map(max, num)).bit_length()
    rows = [[v / scale for v in row] for row in num]
    x = [1.0] * len(rows)
    for _ in range(PERRON_POWER_STEPS):
        y = _normalized([math.fsum(map(mul, row, x)) for row in rows])
        if y is None:
            break
        x = y
    best, width = x, math.inf
    for _ in range(PERRON_SHIFT_STEPS):
        quotients = [math.fsum(map(mul, row, x)) / xi for row, xi in zip(rows, x)]
        lo, hi = min(quotients), max(quotients)
        if hi - lo >= width:
            break  # rounding has stalled the steps: keep the previous iterate
        best, width = x, hi - lo
        if width <= hi * PERRON_FLOAT_TOL:
            break
        y = _shifted_solve(rows, hi, x)
        if y is None:
            break
        x = y
    # the iterate read exactly, as integers over the common power-of-two denominator
    ratios = [v.as_integer_ratio() for v in best]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios]


def _normalized(y: list[float]) -> list[float] | None:
    """``y`` divided by its largest entry; None unless every entry stays positive and finite."""
    top = max(y)
    if not 0 < top < math.inf:
        return None
    y = [v / top for v in y]
    return y if all(v > 0 for v in y) else None


def _shifted_solve(rows: list[list[float]], s: float, x: list[float]) -> list[float] | None:
    """Solve (s I - B) y = x for B = ``rows`` by elimination without pivoting.

    For s > rho(B), s I - B is an M-matrix: its pivots are positive and, for
    x > 0, every update adds terms of one sign, so y > 0.  A pivot that is
    not positive shows that s fell to rho(B) by rounding; then None.
    """
    n = len(rows)
    a = [[-v for v in row] for row in rows]
    for i in range(n):
        a[i][i] += s
    y = list(x)
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if not pivot > 0:
            return None
        tail = pivot_row[k + 1 :]
        for i in range(k + 1, n):
            row = a[i]
            if row[k]:
                f = row[k] / pivot
                row[k + 1 :] = [u - f * v for u, v in zip(row[k + 1 :], tail)]
                y[i] -= f * y[k]
    for k in reversed(range(n)):
        row = a[k]
        y[k] = (y[k] - math.fsum(map(mul, row[k + 1 :], y[k + 1 :]))) / row[k]
    return _normalized(y)


def trace_zero_check(p: Potent) -> bool | None:
    """Exact zero-trace test for indecomposable r-potent matrices of rank r-1, else None.

    The nonzero eigenvalues of such a matrix are all the (r-1)-th roots of
    unity, each simple, and those sum to zero whenever r >= 3.  For r = 2 the
    sum degenerates to 1.  So r < 3, a decomposable A or a rank other than
    r - 1 gives None; where it applies, rank A = r - 1 >= 2, so A != 0.
    """
    if p.r < 3 or not p.tri.is_trivial or p.rank != p.r - 1:
        return None
    return p.a.trace() == 0


@dataclass(frozen=True)
class SpectralReport:
    """Spectral facts for one matrix; fields are None where undefined.

    Period and primitivity are defined for nonzero indecomposable input
    only; the period is also the number of peripheral eigenvalues.
    ``wielandt_positive`` is decided for every primitive matrix, at every
    dimension (``wielandt_check``).  ``perron_bracket`` holds exact
    bounds on the spectral radius (``perron_value``); ``perron_value`` is the
    float nearest their midpoint, None when that is beyond the float range.
    """

    period: int | None
    is_primitive: bool | None
    perron_bracket: tuple[Fraction, Fraction]
    wielandt_positive: bool | None
    trace_zero_applicable: bool
    trace_is_zero: bool | None

    @property
    def perron_value(self) -> float | None:
        lower, upper = self.perron_bracket
        try:
            return float((lower + upper) / 2)
        except OverflowError:
            return None

    def to_dict(self) -> dict:
        lower, upper = self.perron_bracket
        return {
            "period": self.period,
            "is_primitive": self.is_primitive,
            "perron_value": self.perron_value,
            "perron_bracket": [format_bound(lower, up=False), format_bound(upper, up=True)],
            "wielandt_positive": self.wielandt_positive,
            "trace_zero_applicable": self.trace_zero_applicable,
            "trace_is_zero": self.trace_is_zero,
        }


def spectral_report(t: BlockTriangularization, potent: Potent | None = None) -> SpectralReport:
    """Spectral facts of A = ``t.source``; the exact unit radius and the
    zero-trace identity need ``potent``.  The identity applies exactly
    where ``trace_zero_check`` tests it rather than returning None."""
    nonzero_indecomposable = not t.source.is_zero() and t.is_trivial
    h = t.periods[0] if nonzero_indecomposable else None
    primitive = None if h is None else h == 1
    trace_is_zero = None if potent is None else trace_zero_check(potent)
    return SpectralReport(
        period=h,
        is_primitive=primitive,
        perron_bracket=perron_value(t, potent),
        wielandt_positive=wielandt_check(t) if primitive else None,
        trace_zero_applicable=trace_is_zero is not None,
        trace_is_zero=trace_is_zero,
    )
