"""Seeded constructions of r-potent matrices for every property suite.

The atoms are cycle matrices (r-potent when the length divides r-1) and
rank-one idempotents; ranks multiply under Kronecker products and add under
direct sums, so a target rank is hit exactly by solving a tiny partition over
divisors of r-1.  Coupled decomposable examples come from wrapping a known
r-potent block B as [[B, B^(r-1) x], [0, 0]], which is r-potent for any
nonnegative column x and keeps the rank of B; the coupled block is one exact
product, diag(B^(r-1), 0) times [[B, x], [0, 0]].  All randomness flows
through ``random.Random(seed)``, so a spec plus seed identifies one matrix.

Entries are drawn from a small pool of rationals and idempotent factors are
normalized exactly, which keeps entry bit-size bounded through repeated
powers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .matrix import Permutation, RMatrix
from .potency import Potent, potent_at, require_exponent

_POOL = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3))
_POOL_WITH_ZERO = _POOL + (Fraction(0),)
# The pool on the integer grid, 6 x each entry, in the same order: a choice
# from it is the same draw as a choice from ``_POOL``.
_GRID_POOL = tuple([int(6 * x) for x in _POOL])
DEFAULT_DIM_BUDGET = 36
# The largest dimension a spec's size parameter (``length``, ``n``, ``dim``,
# the sum of ``sizes``) may ask for: 10^6 entries, about 0.1-1.1 s per kind
MAX_SPEC_DIM = 1000


def cycle_matrix(length: int) -> RMatrix:
    """Permutation matrix of the single cycle 0 -> 1 -> ... -> length-1 -> 0.

    Column j is basis vector (j+1) mod length.  The result is
    (length+1)-potent, and r-potent exactly when length divides r-1.
    """
    if length < 1:
        raise ValueError("cycle length must be positive")
    return Permutation(tuple([(j + 1) % length for j in range(length)])).to_matrix()


def uniform_idempotent(k: int) -> RMatrix:
    """The k x k matrix with every entry 1/k: a positive rank-one idempotent."""
    if k < 1:
        raise ValueError("dimension must be positive")
    return RMatrix._make(k, ((1,) * k,) * k)  # canonical: gcd(k, 1) = 1


def block_diagonal(blocks: Sequence[RMatrix]) -> RMatrix:
    """Direct sum of square blocks; r-potent whenever every block is."""
    if not blocks:
        raise ValueError("need at least one block")
    n = sum(b.n for b in blocks)
    den = math.lcm(*[b.den for b in blocks])
    rows = []
    offset = 0
    for b in blocks:
        scale = den // b.den
        left, right = (0,) * offset, (0,) * (n - offset - b.n)
        for row in b.num:
            rows.append(tuple([*left, *[x * scale for x in row], *right]))
        offset += b.n
    return RMatrix._normalized(den, tuple(rows))


def _coupled(b: RMatrix, projection: RMatrix, x: Sequence[Fraction]) -> RMatrix:
    """[[B, B^(r-1) x], [0, 0]] as diag(B^(r-1), 0) [[B, x], [0, 0]], for ``projection`` = B^(r-1) of an r-potent B.

    ``x`` is one column of k pool fractions.  B^(r-1) C = B^(2r-2) x = C for
    C = B^(r-1) x, so the r-th power reproduces the matrix, and its rank is
    rank(B): C lies in the range of B.
    """
    k = b.n
    den = math.lcm(b.den, *[c.denominator for c in x])
    rows = [(*[y * (den // b.den) for y in b_row], c.numerator * (den // c.denominator)) for b_row, c in zip(b.num, x)]
    w = RMatrix._normalized(den, tuple(rows + [(0,) * (k + 1)]))
    return block_diagonal([projection, RMatrix.zeros(1)]) @ w


def _random_idempotent(rng: random.Random, dim: int, su: range | set[int], sv: range | set[int]) -> RMatrix:
    """Rank-one idempotent u v^T with pool entries on the supports ``su`` of u and ``sv`` of v.

    With U and R the draws on the integer grid, u = U/6 and v = R / (U.R/6),
    so entry (i, j) is U_i R_j / U.R: an integer grid over one denominator.
    The supports share a point, so U.R > 0.
    """
    u = [rng.choice(_GRID_POOL) if i in su else 0 for i in range(dim)]
    raw = [rng.choice(_GRID_POOL) if i in sv else 0 for i in range(dim)]
    den = sum([a * b for a, b in zip(u, raw)])
    return RMatrix._normalized(den, tuple([tuple([a * b for b in raw]) for a in u]))


def random_rank_one_idempotent(dim: int, seed: int, padded: bool | None = None) -> RMatrix:
    """Random nonnegative rank-one idempotent, optionally with zero-padded supports.

    With ``padded`` the factor vectors vanish outside proper support sets (a
    shared support point keeps the inner product positive), which plants zero
    diagonal entries; without it the matrix is strictly positive.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    rng = random.Random(seed)
    if padded is None:
        padded = dim >= 2 and rng.random() < 0.5
    if padded and dim >= 2:
        anchor = rng.randrange(dim)
        su = {anchor} | {i for i in range(dim) if rng.random() < 0.6}
        sv = {anchor} | {i for i in range(dim) if rng.random() < 0.6}
        if len(su) == dim and len(sv) == dim:
            drop = rng.choice([i for i in range(dim) if i != anchor])
            su.discard(drop)
    else:
        su = sv = range(dim)
    return _random_idempotent(rng, dim, su, sv)


def _random_part(
    rng: random.Random, r: int, max_rank: int, dim_headroom: int
) -> tuple[RMatrix, int]:
    """One direct-sum part: a Kronecker product of cycles and idempotents.

    A factorization is a tuple of factor ranks, each either 1 (a rank-one
    idempotent) or a cycle length dividing r-1.  Its minimal dimension equals
    its rank (cycles have dim = rank, idempotents can be 1 x 1), so any
    factorization with rank <= ``max_rank`` fits; ``dim_headroom`` is spent
    growing idempotent factors beyond 1 x 1.  Only cycle lengths up to
    ``max_rank`` can enter one, so no divisor of r-1 above it is sought.
    """
    cycles = [d for d in range(2, max_rank + 1) if (r - 1) % d == 0]
    choices: list[tuple[int, ...]] = [(1,), (1, 1)]
    for d in cycles:
        choices.append((d,))
        choices += [(d, d2) for d2 in cycles + [1] if d * d2 <= max_rank]
    factors = list(choices[rng.randrange(len(choices))])
    rng.shuffle(factors)
    part_rank = math.prod(factors)
    allowed_dim = part_rank + dim_headroom
    dims = [max(f, 1) for f in factors]
    mats: list[RMatrix] = []
    for idx, f in enumerate(factors):
        if f >= 2:
            mats.append(cycle_matrix(f))
            continue
        others = math.prod(dims) // dims[idx]
        k = 1
        desired = rng.randint(1, 3)
        while k < desired and others * (k + 1) <= allowed_dim:
            k += 1
        dims[idx] = k
        mats.append(_random_idempotent(rng, k, range(k), range(k)))
    part = mats[0]
    for m in mats[1:]:
        part = part.kron(m)
    assert part.n <= allowed_dim
    return part, part_rank


def _random_core(rng: random.Random, r: int, target_rank: int, max_dim: int) -> RMatrix:
    """Direct sum of random parts with total rank exactly ``target_rank``."""
    if target_rank > max_dim:
        raise ValueError(
            f"target rank {target_rank} is unreachable within dimension budget {max_dim}"
        )
    parts: list[RMatrix] = []
    remaining = target_rank
    dim_left = max_dim
    while remaining > 0:
        # one dimension slot stays reserved per unit of rank still to place
        part, part_rank = _random_part(rng, r, remaining, dim_left - remaining)
        parts.append(part)
        remaining -= part_rank
        dim_left -= part.n
    rng.shuffle(parts)
    return block_diagonal(parts)


def _verify_emission(m: RMatrix, r: int, target_rank: int | None) -> Potent:
    """``m`` checked at ``r`` by one exponent check, its rank checked and kept on the result.

    RuntimeError when the generator broke its contract: ``m`` is not
    r-potent, or its rank is not ``target_rank`` (when one is given).
    """
    p = potent_at(m, r)
    if p is None:
        raise RuntimeError("generator emitted a matrix that is not r-potent")
    if target_rank is not None and p.rank != target_rank:
        raise RuntimeError("generator missed the target rank")
    return p


def random_r_potent(
    r: int, target_rank: int, seed: int, max_dim: int = DEFAULT_DIM_BUDGET
) -> Potent:
    """Seeded r-potent matrix of exact rank ``target_rank``, as a checked ``Potent``.

    Assembled from Kronecker products of cycles (lengths dividing r-1) and
    positive rank-one idempotents, summed block diagonally, optionally
    wrapped with a coupled zero block, and finally conjugated by a seeded
    permutation.  The matrix is ``.a``; the emission check that proved it
    r-potent also computed ``.rank``, so callers reuse both.  Raises
    ValueError when the target rank cannot fit the dimension budget.
    """
    require_exponent(r)
    if target_rank < 1 or target_rank > max_dim:
        raise ValueError(
            f"target rank {target_rank} is unreachable within dimension budget {max_dim}"
        )
    rng = random.Random(seed)
    m = _random_core(rng, r, target_rank, max_dim)
    if m.n < max_dim and rng.random() < 0.4:
        x = [rng.choice(_POOL_WITH_ZERO) for _ in range(m.n)]
        # the core is r-potent by construction; the emission check below proves the wrap
        m = _coupled(m, m.pow(r - 1), x)
    m = m.conjugate(Permutation.random(m.n, rng))
    return _verify_emission(m, r, target_rank)


def random_singular_zero_diag(r: int, seed: int, max_dim: int = 24) -> Potent:
    """Seeded singular r-potent of rank <= r-1 whose powers all have a zero diagonal entry.

    Built by wrapping a rank <= r-1 core with one coupled zero row/column:
    the appended coordinate contributes a zero diagonal entry to every power,
    and the wrap keeps the rank of the core, so the matrix is singular.  The
    core's rank is drawn at most max_dim - 1, so that it fits its budget.
    Returned as the checked ``Potent`` of the emission check, which carries
    its projection and rank; the matrix is ``.a``.  Requires r >= 3 so that the
    power window {2, ..., r-1} is nonempty.
    """
    if r < 3:
        raise ValueError("this family needs r >= 3")
    rng = random.Random(seed)
    target = rng.randint(1, min(r - 1, max_dim - 1))
    core = _random_core(rng, r, target, max_dim - 1)
    if rng.random() < 0.5:
        x = [rng.choice(_POOL_WITH_ZERO) for _ in range(core.n)]
        m = _coupled(core, core.pow(r - 1), x)
    else:
        m = block_diagonal([core, RMatrix.zeros(1)])
    m = m.conjugate(Permutation.random(m.n, rng))
    p = _verify_emission(m, r, target)
    if target >= m.n:
        raise RuntimeError("generator emitted a nonsingular matrix")
    return p


def rank_dominant_semigroup_generators(r: int, count: int, seed: int) -> list[Potent]:
    """Generators whose whole multiplicative closure has rank > r-1 r-potent members.

    Independent random r-potents will not do: their products need not stay
    r-potent.  Instead A (rank > r-1) and B (nonzero) are fixed and the
    generators are powers A^(a_i) (x) B^(b_i) under one shared conjugation.
    Every word then equals a conjugated A^s (x) B^t with s, t >= 1, which is
    r-potent of rank rank(A) * rank(B) > r-1.  Each comes as the ``Potent`` of
    its emission check (the matrix is ``.a``), which check 6.4's rank floor
    takes as it is: no generator's potency is decided twice.

    The closure is decomposable because A is (an r-potent of rank > r-1 is
    decomposable, and an invariant index set of A gives one shared by every
    A^s (x) B^t), not because its members have rank > r-1.  That reading is
    false: (12)(34) and (13)(24) are 3-potent of rank 4 > 2, yet they close
    to the Klein four-group, whose union pattern is all ones, so the
    semigroup is indecomposable and its one block holds no member of rank
    <= 2.  The same group appears here when A and B each have an irreducible
    block of period 2: the parity classes of (s, t) act on the Kronecker
    product of those blocks as Z2 x Z2, and the rank floor of check 6.4
    fails on that block.
    """
    require_exponent(r)
    if count < 1:
        raise ValueError("need at least one generator")
    rng = random.Random(seed)
    rank_a = r - 1 + rng.randint(1, 2)
    a = _random_core(rng, r, rank_a, 2 * rank_a)
    if count == 1 and rng.random() < 0.5:
        m = a.conjugate(Permutation.random(a.n, rng))
        return [_verify_emission(m, r, None)]
    b = _random_core(rng, r, rng.randint(1, 2), 3)
    p = None
    gens = []
    for _ in range(count):
        s = rng.randint(1, max(2, r - 1))
        t = rng.randint(1, max(2, r - 1))
        g = a.pow(s).kron(b.pow(t))
        if p is None:
            p = Permutation.random(g.n, rng)
        gens.append(_verify_emission(g.conjugate(p), r, None))
    return gens


def conjugated_cycle(seed: int, length: int) -> RMatrix:
    """The cycle matrix of ``length`` relabelled by ``Permutation.random(length, random.Random(seed))``."""
    base = cycle_matrix(length)
    return base.conjugate(Permutation.random(base.n, random.Random(seed)))


@dataclass(frozen=True)
class GeneratorKind:
    """The parameters of one generator kind and its builder, ``build(seed, **params)``."""

    required: tuple[str, ...]
    build: Callable[..., RMatrix]
    optional: tuple[str, ...] = ()


GENERATOR_KINDS: dict[str, GeneratorKind] = {
    "cycle": GeneratorKind(("length",), lambda seed, length: cycle_matrix(length)),
    "rank_one_idempotent": GeneratorKind(
        ("dim",), lambda seed, dim, padded=None: random_rank_one_idempotent(dim, seed, padded), optional=("padded",)
    ),
    "block_diagonal": GeneratorKind(
        ("sizes",), lambda seed, sizes: block_diagonal([uniform_idempotent(k) for k in sizes])
    ),
    "kronecker": GeneratorKind(("r", "rank"), lambda seed, r, rank: random_r_potent(r, rank, seed).a),
    "triangular_family": GeneratorKind(("r",), lambda seed, r: random_singular_zero_diag(r, seed).a),
    "permutation": GeneratorKind(("n",), lambda seed, n: Permutation.random(n, random.Random(seed)).to_matrix()),
    "conjugated": GeneratorKind(("length",), conjugated_cycle),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Named construction plus parameters plus seed; a full recipe for one matrix."""

    kind: str
    seed: int = 0
    params: Mapping[str, object] = field(default_factory=dict)

    def build(self) -> RMatrix:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        params = self.params
        sizes = params["sizes"] if "sizes" in params else [params[p] for p in ("length", "n", "dim") if p in params]
        # a size below 1 is refused by its builder, but only after the sizes before it are built
        dim = sum([max(k, 0) for k in sizes])
        if dim > MAX_SPEC_DIM:
            raise ValueError(f"dimension {dim} is above the limit of {MAX_SPEC_DIM} for a generated matrix")
        return GENERATOR_KINDS[self.kind].build(self.seed, **self.params)

    def provenance(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "params": dict(self.params)}
