"""Seeded constructions of r-potent matrices for every property suite.

The atoms are cycle matrices (r-potent when the length divides r-1) and
rank-one idempotents; ranks multiply under Kronecker products and add under
direct sums, so a target rank is hit exactly by solving a tiny partition over
divisors of r-1.  Coupled decomposable examples come from wrapping a known
r-potent block B as [[B, B^(r-1) x], [0, 0]], which is r-potent for any
nonnegative column x and keeps the rank of B.  All randomness flows
through ``random.Random(seed)``, so a spec plus seed identifies one matrix.

Every part carries its normal form A = F C G (``NormalForm``) beside its
matrix: G F = I_k, and C is a k x k monomial whose cycle lengths divide
r-1 with scalars that multiply to 1 around each cycle.  A rank-one
idempotent u v^T has F = u, C = [1] and G = v^T; a d-cycle has F = G = I and
C the cycle; a Kronecker product has F1 (x) F2, C1 (x) C2 and G1 (x) G2; a
direct sum block-diagonal F, C and G; the coupled wrap [F; 0], C and
[G, C^-1 G x]; the seeded relabelling the rows of F and the columns of G
relabelled.  The emission check (``_verify_emission``) proves each
matrix r-potent of rank k from its factors (``Potent.from_normal_form``),
with no power and no rank of the matrix.  The matrix itself is built as
before, so the check compares two independent constructions.

Entries are drawn from a small pool of rationals and idempotent factors are
normalized exactly, which keeps entry bit-size bounded through repeated
powers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Mapping, Sequence

from .matrix import Permutation, RMatrix
from .potency import NormalForm, Potent, _unit_rows, require_exponent

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


def _cycle_form(length: int) -> NormalForm:
    """The form of ``cycle_matrix(length)``: F = G = I, and C the cycle, whose row i holds its 1 in column i - 1."""
    f = tuple([(i, 1) for i in range(length)])
    return NormalForm(f, f[-1:] + f[:-1], 1, _unit_rows(length), 1)


def _idempotent_form(m: RMatrix) -> NormalForm:
    """u v^T of a rank-one idempotent M with M[0, 0] > 0: F = u = M e_0, C = [1] and G = v^T = e_0^T M / M[0, 0].

    F G = M[:, 0] M[0, :] / M[0, 0] = M for M = u v^T of rank one, and
    G F = (M^2)[0, 0] / M[0, 0] = 1 as M^2 = M.  F holds the numerators of
    column 0, and G's denominator takes M's.
    """
    num = m.num
    return NormalForm(tuple([(0, row[0]) for row in num]), ((0, 1),), 1, (num[0],), m.den * num[0][0])


# the form of the 1 x 1 zero block: rank 0, one zero row of F and one zero column of G
_ZERO_FORM = NormalForm(((0, 0),), (), 1, (), 1)


def _kron_form(x: NormalForm, y: NormalForm) -> NormalForm:
    """(F1 (x) F2)(C1 (x) C2)(G1 (x) G2), in the index order of ``RMatrix.kron``: (i1, i2) is i1 n2 + i2.

    F and C keep one nonzero per row: row (i1, i2) holds v1 v2 in column
    (j1, j2).
    """
    k2 = y.k

    def kron_rows(x_rows: tuple[tuple[int, int], ...], y_rows: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        return tuple([(j1 * k2 + j2, v1 * v2) for j1, v1 in x_rows for j2, v2 in y_rows])

    g = tuple([tuple([a * b for a in g1 for b in g2]) for g1 in x.g for g2 in y.g])
    return NormalForm(kron_rows(x.f, y.f), kron_rows(x.c, y.c), x.c_den * y.c_den, g, x.g_den * y.g_den)


def _direct_sum_form(forms: Sequence[NormalForm]) -> NormalForm:
    """Block-diagonal F, C and G, in the block order of ``block_diagonal``."""
    n = sum([len(x.f) for x in forms])
    c_den, g_den = math.lcm(*[x.c_den for x in forms]), math.lcm(*[x.g_den for x in forms])
    f: list[tuple[int, int]] = []
    c: list[tuple[int, int]] = []
    g: list[tuple[int, ...]] = []
    for x in forms:
        k_offset, c_scale, g_scale = len(c), c_den // x.c_den, g_den // x.g_den
        left, right = (0,) * len(f), (0,) * (n - len(f) - len(x.f))
        c += [(j + k_offset, v * c_scale) for j, v in x.c]
        g += [(*left, *(row if g_scale == 1 else map(mul, row, repeat(g_scale))), *right) for row in x.g]
        f += [(j + k_offset, v) for j, v in x.f]
    return NormalForm(tuple(f), tuple(c), c_den, tuple(g), g_den)


def _relabelled(a: RMatrix, form: NormalForm, p: Permutation) -> tuple[RMatrix, NormalForm]:
    """``A.conjugate(p)`` and its form: row i of F is row p(i), and column j of G column p(j)."""
    images = p.images
    g = tuple([tuple([*map(row.__getitem__, images)]) for row in form.g])
    return a.conjugate(p), form._replace(f=tuple([*map(form.f.__getitem__, images)]), g=g)


def _power_form(form: NormalForm, s: int) -> NormalForm:
    """F C^s G, the form of A^s for s >= 1, as G F = I: row i of C^s is the s-step walk from i along C's rows."""
    c = form.c
    for _ in range(s - 1):
        c = tuple([(form.c[j][0], v * form.c[j][1]) for j, v in c])
    return form._replace(c=c, c_den=form.c_den**s)


def _coupled(b: RMatrix, form: NormalForm, x: Sequence[Fraction]) -> tuple[RMatrix, NormalForm]:
    """[[B, E x], [0, 0]] and its form, for B = F C G checked at r by ``form``, E = B^(r-1) = F G.

    ``x`` is one column of n pool fractions.  E x = F (G x) takes k dot
    products and one pass over the nonzeros of F: no product of n x n
    matrices and no power of B.  E B = B^r = B, so E [[B, x], [0, 0]] is this
    matrix: the r-th power reproduces it, and its rank is rank(B), as E x
    lies in the range of B.  Its form is F' = [F; 0], C' = C and
    G' = [G, C^-1 G x], since F' C G' = [[F C G, F G x], [0, 0]] and
    G' F' = G F = I.  C^-1 = C^(r-2) is C's inverse, read off its rows: row
    i of C holds c / c_den in column j, so row j of C^-1 holds c_den / c in
    column i.
    """
    n, g = b.n, form.g
    x_den = math.lcm(*[t.denominator for t in x])
    x_num = [t.numerator * (x_den // t.denominator) for t in x]
    gx = [sum(map(mul, row, x_num)) for row in g]  # G x, over g_den x_den
    ex = [v * gx[j] if v else 0 for j, v in form.f]  # E x = F G x, over the same
    den = math.lcm(b.den, form.g_den * x_den)
    b_scale, e_scale = den // b.den, den // (form.g_den * x_den)
    rows = [(*[y * b_scale for y in b_row], e * e_scale) for b_row, e in zip(b.num, ex)]
    m = RMatrix._normalized(den, tuple(rows + [(0,) * (n + 1)]))
    # C^-1 G x over g_den x_den c_lcm: row j gets c_den gx[i] (c_lcm / c) from row i = (j, c) of C
    c_lcm = math.lcm(*[v for _, v in form.c])
    inverse_gx = [0] * form.k
    for i, (j, v) in enumerate(form.c):
        inverse_gx[j] = form.c_den * gx[i] * (c_lcm // v)
    g_scale = x_den * c_lcm
    g = tuple([(*[y * g_scale for y in row], t) for row, t in zip(g, inverse_gx)])
    return m, form._replace(f=form.f + ((0, 0),), g=g, g_den=form.g_den * g_scale)


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
) -> tuple[RMatrix, NormalForm]:
    """One direct-sum part and its form: a Kronecker product of cycles and idempotents.

    A factorization is a tuple of factor ranks, each either 1 (a rank-one
    idempotent) or a cycle length dividing r-1.  Its minimal dimension equals
    its rank (cycles have dim = rank, idempotents can be 1 x 1), so any
    factorization with rank <= ``max_rank`` fits; ``dim_headroom`` is spent
    growing idempotent factors beyond 1 x 1.  Only cycle lengths up to
    ``max_rank`` can enter one, so no divisor of r-1 above it is sought.
    The part's rank is its form's k.
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
    forms: list[NormalForm] = []
    for idx, f in enumerate(factors):
        if f >= 2:
            mats.append(cycle_matrix(f))
            forms.append(_cycle_form(f))
            continue
        others = math.prod(dims) // dims[idx]
        k = 1
        desired = rng.randint(1, 3)
        while k < desired and others * (k + 1) <= allowed_dim:
            k += 1
        dims[idx] = k
        mats.append(_random_idempotent(rng, k, range(k), range(k)))
        forms.append(_idempotent_form(mats[-1]))
    part, form = mats[0], forms[0]
    for m, m_form in zip(mats[1:], forms[1:]):
        part, form = part.kron(m), _kron_form(form, m_form)
    assert part.n <= allowed_dim
    return part, form


def _random_core(rng: random.Random, r: int, target_rank: int, max_dim: int) -> tuple[RMatrix, NormalForm]:
    """Direct sum of random parts with total rank exactly ``target_rank``, and its form."""
    if target_rank > max_dim:
        raise ValueError(
            f"target rank {target_rank} is unreachable within dimension budget {max_dim}"
        )
    parts: list[tuple[RMatrix, NormalForm]] = []
    remaining = target_rank
    dim_left = max_dim
    while remaining > 0:
        # one dimension slot stays reserved per unit of rank still to place
        part, form = _random_part(rng, r, remaining, dim_left - remaining)
        parts.append((part, form))
        remaining -= form.k
        dim_left -= part.n
    rng.shuffle(parts)
    return block_diagonal([m for m, _ in parts]), _direct_sum_form([form for _, form in parts])


def _verify_emission(m: RMatrix, r: int, target_rank: int | None, form: NormalForm) -> Potent:
    """``m`` checked at ``r`` by its normal form ``form``, with its rank k kept on the result.

    ``Potent.from_normal_form`` checks A = F C G, G F = I and C's cycles
    exactly, with no power and no rank of ``m``.  RuntimeError when the
    generator broke its contract: ``form`` does not prove ``m`` r-potent,
    or k is not ``target_rank`` (when one is given).
    """
    try:
        p = Potent.from_normal_form(m, r, form)
    except ValueError as exc:
        raise RuntimeError(f"generator emitted a matrix that is not r-potent by its normal form: {exc}") from None
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
    permutation, with the normal form carried through every step.  The
    matrix is ``.a``; the emission check proved it r-potent of rank k from
    that form, so ``.rank`` is k and ``.projection`` is F G, built when read.
    Raises ValueError when the target rank cannot fit the dimension budget.
    """
    require_exponent(r)
    if target_rank < 1 or target_rank > max_dim:
        raise ValueError(
            f"target rank {target_rank} is unreachable within dimension budget {max_dim}"
        )
    rng = random.Random(seed)
    m, form = _random_core(rng, r, target_rank, max_dim)
    if m.n < max_dim and rng.random() < 0.4:
        x = [rng.choice(_POOL_WITH_ZERO) for _ in range(m.n)]
        m, form = _coupled(m, form, x)
    m, form = _relabelled(m, form, Permutation.random(m.n, rng))
    return _verify_emission(m, r, target_rank, form)


def random_singular_zero_diag(r: int, seed: int, max_dim: int = 24) -> Potent:
    """Seeded singular r-potent of rank <= r-1 whose powers all have a zero diagonal entry.

    Built by wrapping a rank <= r-1 core with one coupled zero row/column:
    the appended coordinate contributes a zero diagonal entry to every power,
    and the wrap keeps the rank of the core, so the matrix is singular.  The
    core's rank is drawn at most max_dim - 1, so that it fits its budget.
    The normal form comes through the wrap (``_coupled``) or the zero block
    (a zero row of F and a zero column of G), and the relabelling.
    Returned as the checked ``Potent`` of the emission check, whose rank is
    the form's k and whose projection is F G; the matrix is ``.a``.
    Requires r >= 3 so that the power window {2, ..., r-1} is nonempty.
    """
    if r < 3:
        raise ValueError("this family needs r >= 3")
    rng = random.Random(seed)
    target = rng.randint(1, min(r - 1, max_dim - 1))
    core, form = _random_core(rng, r, target, max_dim - 1)
    if rng.random() < 0.5:
        x = [rng.choice(_POOL_WITH_ZERO) for _ in range(core.n)]
        m, form = _coupled(core, form, x)
    else:
        m, form = block_diagonal([core, RMatrix.zeros(1)]), _direct_sum_form([form, _ZERO_FORM])
    m, form = _relabelled(m, form, Permutation.random(m.n, rng))
    p = _verify_emission(m, r, target, form)
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
    its emission check (the matrix is ``.a``), proved from the normal form
    (F_A (x) F_B)(C_A^s (x) C_B^t)(G_A (x) G_B), which check 6.4's rank
    floor takes as it is: no generator's potency is decided twice.

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
    a, a_form = _random_core(rng, r, rank_a, 2 * rank_a)
    if count == 1 and rng.random() < 0.5:
        m, form = _relabelled(a, a_form, Permutation.random(a.n, rng))
        return [_verify_emission(m, r, None, form)]
    b, b_form = _random_core(rng, r, rng.randint(1, 2), 3)
    p = None
    gens = []
    for _ in range(count):
        s = rng.randint(1, max(2, r - 1))
        t = rng.randint(1, max(2, r - 1))
        g = a.pow(s).kron(b.pow(t))
        form = _kron_form(_power_form(a_form, s), _power_form(b_form, t))
        if p is None:
            p = Permutation.random(g.n, rng)
        m, form = _relabelled(g, form, p)
        gens.append(_verify_emission(m, r, None, form))
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
