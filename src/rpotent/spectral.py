"""Period, primitivity, and Perron value estimates for nonnegative matrices.

Everything structural (period, primitivity, positivity of the power at the
n^2 - 2n + 2 exponent) is exact.  The only floating point in the package is
the power iteration that estimates the spectral radius; its tolerance and
iteration cap are explicit arguments.  When that iteration gives no finite
estimate, the spectral report withholds the value and says why.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .decomposition import BlockTriangularization, Digraph, is_decomposable
from .matrix import RMatrix
from .potency import Potent

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000
WIELANDT_REPORT_DIM_LIMIT = 16


class PowerIterationError(RuntimeError):
    """Raised when power iteration gives no finite estimate.

    Either it did not converge within the iteration cap (``last_estimate`` is
    the last one), or the spectral radius lies beyond the float range
    (``last_estimate`` is None).
    """

    def __init__(self, message: str, last_estimate: float | None):
        super().__init__(message)
        self.last_estimate = last_estimate


def period(a: RMatrix) -> int:
    """Gcd of all cycle lengths of an indecomposable nonzero matrix.

    Computed from a BFS level assignment on the strongly connected support
    digraph (``Digraph.cycle_gcd``).
    """
    if a.is_zero():
        raise ValueError("period is undefined for the zero matrix")
    if is_decomposable(a):
        raise ValueError("period is defined only for indecomposable matrices")
    return Digraph.from_matrix(a).cycle_gcd()


def is_primitive(a: RMatrix) -> bool:
    """Indecomposable with period one; False (not an error) otherwise."""
    return not a.is_zero() and not is_decomposable(a) and Digraph.from_matrix(a).cycle_gcd() == 1


def wielandt_exponent(n: int) -> int:
    return n * n - 2 * n + 2


def wielandt_check(a: RMatrix | BlockTriangularization) -> bool:
    """Positivity of A^(n^2 - 2n + 2), the guaranteed-positive power, read on the support.

    ``a`` is A, or the maximal block triangularization of A, whose block
    periods then tell without a new search whether A is primitive.  Rejects
    non-primitive input: the exponent only promises positivity for primitive
    matrices.  A >= 0, so no sum of products cancels and the support of A^k
    is the k-th boolean power of the support of A: about 2 log2(n^2) pattern
    products decide it, with no rational entry computed.
    """
    if isinstance(a, BlockTriangularization):
        primitive = a.periods == (1,)
        a = a.source
    else:
        primitive = is_primitive(a)
    if not primitive:
        raise ValueError("positivity of the squared-index power needs a primitive matrix")
    return a.pattern().pow(wielandt_exponent(a.n)).is_full()


def _composite_period(t: BlockTriangularization) -> int:
    """Lcm of the periods of the nonzero diagonal blocks of the triangularization.

    Raising the matrix to this exponent turns every peripheral eigenvalue
    into the spectral radius itself, which is what lets power iteration
    converge on input whose plain iterates would oscillate.
    """
    return math.lcm(*[h for h in t.periods if h is not None])


def perron_value(
    t: BlockTriangularization, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> float:
    """Spectral radius estimate of A by power iteration on a floating-point copy.

    ``t`` is the maximal block triangularization of A (``block_triangularize``).

    Iterates on B = A^h, where h is the lcm of the diagonal-block periods,
    and reports the h-th root of B's estimate: every peripheral eigenvalue of
    B equals rho(A)^h, so the quotient sequence converges even when plain
    iteration on A would cycle.

    The float copy is A / 2^e, where 2^e is within a factor two of the largest
    entry, read exactly from the integer grid.  Scaling by a power of two is
    exact in binary floating point, so wherever the unscaled iteration stays
    finite the iterates, the stopping step (``tol`` is scaled alike) and the
    estimate are bit for bit the unscaled ones; entries far beyond the float
    range (1e200 and up) still convert, and the estimate is 2^e * rho(A / 2^e).
    Non-convergence within ``max_iter``, or an estimate beyond the float
    range, raises ``PowerIterationError``.
    """
    a = t.source
    if a.is_zero():
        raise ValueError("spectral radius estimation needs a nonzero matrix")
    h = _composite_period(t)
    e = max(map(max, a.num)).bit_length() - a.den.bit_length()
    if e >= 0:
        den, up = a.den << e, 0
    else:
        den, up = a.den, -e
    af = np.array([[(x << up) / den for x in row] for row in a.num], dtype=float)
    try:
        tol = math.ldexp(tol, -e * h)
    except OverflowError:
        # rho(A) is so far below tol that any two estimates agree within it
        tol = math.inf
    bf = np.linalg.matrix_power(af, h)
    x = np.ones(a.n) / math.sqrt(a.n)
    prev: float | None = None
    for _ in range(max_iter):
        y = bf @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            # B^k annihilated a positive start vector, so B is nilpotent.
            return 0.0
        est = float(x @ y)
        x = y / norm
        if prev is not None and abs(est - prev) <= tol:
            return _unscaled_root(est, e, h)
        prev = est
    last = None if prev is None else (_unscaled_root(prev, e, h) if prev > 0 else prev)
    raise PowerIterationError(
        f"power iteration did not converge within {max_iter} iterations", last
    )


def _is_normal_after_scaling(x: float, e: int) -> bool:
    """Whether ``x * 2^e`` is a normal float (neither overflows nor underflows)."""
    return sys.float_info.min_exp <= math.frexp(x)[1] + e <= sys.float_info.max_exp


def _unscaled_root(est: float, e: int, h: int) -> float:
    """rho(A) = 2^e * est^(1/h) from the estimate ``est`` of rho((A / 2^e)^h).

    Where 2^(e*h) * est is a normal float this is computed as
    (2^(e*h) * est)^(1/h), the rounding of the unscaled iteration.
    """
    if est == 0.0 or _is_normal_after_scaling(est, e * h):
        return math.ldexp(est, e * h) ** (1.0 / h)
    root = est ** (1.0 / h)
    if not _is_normal_after_scaling(root, e):
        raise PowerIterationError("perron value outside the float range", None)
    return math.ldexp(root, e)


def trace_zero_check(p: Potent) -> bool:
    """Exact zero-trace test for indecomposable r-potent matrices of rank r-1.

    The nonzero eigenvalues of such a matrix are all the (r-1)-th roots of
    unity, each simple, and those sum to zero whenever r >= 3.  For r = 2 the
    sum degenerates to 1, so that case is rejected rather than tested.
    """
    if p.r < 3:
        raise ValueError("the zero-trace identity needs r >= 3 (the r = 2 sum is 1)")
    if is_decomposable(p.a):
        raise ValueError("zero-trace identity applies to indecomposable matrices only")
    if p.rank != p.r - 1:
        raise ValueError("zero-trace identity needs rank exactly r - 1")
    return p.a.trace() == 0


@dataclass(frozen=True)
class SpectralReport:
    """Spectral facts for one matrix; fields are None where undefined.

    Period, primitivity, and the peripheral eigenvalue count are defined for
    nonzero indecomposable input only.  ``wielandt_positive`` is evaluated
    for primitive matrices up to ``WIELANDT_REPORT_DIM_LIMIT`` (the exponent
    grows quadratically with the dimension).  ``perron_value`` is None when
    power iteration gave no finite estimate, and ``perron_withheld`` then
    says why.
    """

    period: int | None
    is_primitive: bool | None
    perron_value: float | None
    wielandt_positive: bool | None
    expected_peripheral_count: int | None
    trace_zero_applicable: bool
    trace_is_zero: bool | None
    perron_withheld: str | None = None

    def to_dict(self) -> dict:
        out = {
            "period": self.period,
            "is_primitive": self.is_primitive,
            "perron_value": self.perron_value,
            "wielandt_positive": self.wielandt_positive,
            "expected_peripheral_count": self.expected_peripheral_count,
            "trace_zero_applicable": self.trace_zero_applicable,
            "trace_is_zero": self.trace_is_zero,
        }
        if self.perron_withheld is not None:
            out["perron_withheld"] = self.perron_withheld
        return out


def spectral_report(
    t: BlockTriangularization,
    potent: Potent | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralReport:
    """Spectral facts of A = ``t.source``; the zero-trace identity needs ``potent``."""
    a = t.source
    nonzero_indecomposable = not a.is_zero() and t.is_trivial
    h: int | None = None
    primitive: bool | None = None
    wielandt: bool | None = None
    if nonzero_indecomposable:
        h = _composite_period(t)
        primitive = h == 1
        if primitive and a.n <= WIELANDT_REPORT_DIM_LIMIT:
            wielandt = wielandt_check(t)
    perron: float | None = 0.0
    withheld: str | None = None
    if not a.is_zero():
        try:
            perron = perron_value(t, tol=tol, max_iter=max_iter)
        except PowerIterationError as exc:
            perron, withheld = None, str(exc)
    applicable = (
        nonzero_indecomposable
        and potent is not None
        and potent.r >= 3
        and potent.rank == potent.r - 1
    )
    return SpectralReport(
        period=h,
        is_primitive=primitive,
        perron_value=perron,
        wielandt_positive=wielandt,
        expected_peripheral_count=h,
        trace_zero_applicable=applicable,
        trace_is_zero=(a.trace() == 0) if applicable else None,
        perron_withheld=withheld,
    )
