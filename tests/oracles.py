"""Independent oracle implementations used to cross-check the package.

Each oracle takes a deliberately different route than the implementation it
checks: naive cubic multiplication against the sparse-aware product, plain
fraction Gaussian elimination against fraction-free Bareiss, diagonal hits of
boolean powers against the BFS-level period, the enumeration of every
invariant index set against the column-closure witness, a closure that
multiplies every new member with every member on both sides against the
one that multiplies each member by the generators on the right, and a potency walk that takes
every power up to its cap against the decision from the block periods.  The semigroup witness oracle searches the union pattern's
digraph and picks its sink component directly, against the one that reads
it off the union's block triangularization.  The generator oracles place
``Fraction`` entries one by one and compute the coupling B^(r-1) X with a
triple loop, against builders that pad integer rows and take one exact
product; the rank-one idempotent oracle draws ``Fraction`` factors and goes
through the validating constructor, against the builder that forms
U_i R_j / U.R on the integer grid.  The matrix reader's reference builds a
``Fraction`` for every entry with ``coerce_entry`` and checks that grid,
against the reader that splits plain integers and ``p/q`` strings with
``int`` onto the integer grid.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from math import gcd, lcm

from rpotent.decomposition import Digraph, InvariantSubsetWitness, condensation_successors
from rpotent.generators import rank_one_idempotent
from rpotent.matrix import PatternMatrix, RMatrix, coerce_entry
from rpotent.potency import Potent
from rpotent.semigroup import PatternSemigroup


def fraction_grid(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, num)`` of the matrix read from ``rows`` through one ``Fraction`` per entry.

    Every entry goes through ``coerce_entry`` first, so parse and type errors
    come before the dimension, squareness and negativity checks.
    """
    grid = [[coerce_entry(x) for x in row] for row in rows]
    n = len(grid)
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    for i, row in enumerate(grid):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, x in enumerate(row):
            if x.numerator < 0:
                raise ValueError(f"negative entry {x} at ({i}, {j})")
    den = lcm(*[x.denominator for row in grid for x in row])
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in grid)


def naive_multiply(a: RMatrix, b: RMatrix) -> RMatrix:
    n = a.n
    rows = [
        tuple(
            sum((a.entries[i][k] * b.entries[k][j] for k in range(n)), Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    ]
    return RMatrix(tuple(rows))


def naive_power(a: RMatrix, k: int) -> RMatrix:
    result = RMatrix.identity(a.n)
    for _ in range(k):
        result = naive_multiply(result, a)
    return result


def fraction_cycle_matrix(length: int) -> RMatrix:
    """Cycle 0 -> 1 -> ... -> length-1 -> 0, one ``Fraction`` entry at a time."""
    rows = [[Fraction(0)] * length for _ in range(length)]
    for j in range(length):
        rows[(j + 1) % length][j] = Fraction(1)
    return RMatrix(tuple(tuple(row) for row in rows))


def fraction_block_diagonal(blocks: list[RMatrix]) -> RMatrix:
    """Direct sum built by copying each block's ``Fraction`` entries."""
    n = sum(b.n for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.n):
            for j in range(b.n):
                rows[offset + i][offset + j] = b.entries[i][j]
        offset += b.n
    return RMatrix(tuple(tuple(row) for row in rows))


def fraction_triangular_family(p: Potent, x) -> RMatrix:
    """[[B, B^(r-1) X], [0, 0]] with the coupling summed entry by entry."""
    b = p.a
    xs = [[coerce_entry(c) for c in row] for row in (x.entries if isinstance(x, RMatrix) else x)]
    k, m = b.n, len(xs[0])
    proj = p.projection
    coupling = [
        [sum((proj.entries[i][t] * xs[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(k)
    ]
    rows = [[Fraction(0)] * (k + m) for _ in range(k + m)]
    for i in range(k):
        rows[i][:k] = b.entries[i]
        rows[i][k:] = coupling[i]
    return RMatrix(tuple(tuple(row) for row in rows))


_FRACTION_POOL = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3))


def fraction_random_idempotent(rng: random.Random, dim: int, su, sv) -> RMatrix:
    """u v^T from ``Fraction`` pool draws on the supports ``su`` and ``sv``, v scaled so v.u = 1."""
    u = [rng.choice(_FRACTION_POOL) if i in su else Fraction(0) for i in range(dim)]
    raw = [rng.choice(_FRACTION_POOL) if i in sv else Fraction(0) for i in range(dim)]
    s = sum((a * b for a, b in zip(raw, u)), Fraction(0))
    return rank_one_idempotent(u, [x / s for x in raw])


REFERENCE_POTENCY_CAP = 64


def unscreened_minimal_potency(a: RMatrix, cap: int = REFERENCE_POTENCY_CAP) -> int | None:
    """The least r in [2, cap] with A^r = A, by a walk that takes every power up to the cap."""
    p = a
    for r in range(2, cap + 1):
        p = p @ a
        if p == a:
            return r
    return None


def gauss_rank(a: RMatrix) -> int:
    """Rank by plain fraction pivoting, no fraction-free tricks."""
    m = [list(row) for row in a.entries]
    n = a.n
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, n):
            if m[i][col] == 0:
                continue
            factor = m[i][col] / m[rank][col]
            for j in range(col, n):
                m[i][j] -= factor * m[rank][j]
        rank += 1
    return rank


def kron_entry(a: RMatrix, b: RMatrix, i: int, j: int) -> Fraction:
    """Closed-form Kronecker entry: a[i // nb][j // nb] * b[i % nb][j % nb]."""
    nb = b.n
    return a.entries[i // nb][j // nb] * b.entries[i % nb][j % nb]


def bool_product(p: PatternMatrix, q: PatternMatrix) -> PatternMatrix:
    """Boolean product entry by entry, without bitmask tricks."""
    n = p.n
    grid = [
        [any(p.get(i, k) and q.get(k, j) for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return PatternMatrix.from_bools(grid)


def period_by_diagonal_hits(p: PatternMatrix) -> int:
    """Gcd of all closed-walk lengths up to n, read off boolean powers.

    Every simple cycle has length at most n and shows up as a diagonal hit of
    the corresponding power, and every closed walk is a sum of simple cycles,
    so the gcd over m <= n equals the gcd of all cycle lengths.
    """
    n = p.n
    g = 0
    q = p
    for m in range(1, n + 1):
        if any(q.get(i, i) for i in range(n)):
            g = gcd(g, m)
        q = bool_product(q, p)
    return g


def closed_subsets(p: PatternMatrix) -> list[frozenset[int]]:
    """All proper nonempty index sets whose columns have support inside the set."""
    n = p.n
    out = []
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            subset = set(combo)
            if all(
                all(i in subset for i in range(n) if p.get(i, j)) for j in subset
            ):
                out.append(frozenset(subset))
    return out


def random_small_matrix(rng: random.Random, n: int, density: float = 0.6) -> RMatrix:
    pool = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3)]
    rows = [
        [rng.choice(pool) if rng.random() < density else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]
    return RMatrix.from_rows(rows)


def random_pattern_local(rng: random.Random, n: int, density: float) -> PatternMatrix:
    rows = []
    for _ in range(n):
        mask = 0
        for j in range(n):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask)
    return PatternMatrix(n, tuple(rows))


def two_sided_closure(gens: list, product, cap: int) -> tuple[list, bool]:
    """Breadth-first closure multiplying each new member with every member on both sides.

    O(|S|^2) products; returns the admitted members in order and whether the
    member cap was hit.
    """
    members: list = []
    seen: set = set()
    queue: deque = deque()
    truncated = False

    def admit(p) -> bool:
        nonlocal truncated
        if p in seen:
            return True
        if len(members) >= cap:
            truncated = True
            return False
        seen.add(p)
        members.append(p)
        queue.append(p)
        return True

    for g in gens:
        if not admit(g):
            break
    while queue and not truncated:
        z = queue.popleft()
        for m in list(members):
            if not admit(product(z, m)) or not admit(product(m, z)):
                break
    return members, truncated


def union_digraph_witness(s: PatternSemigroup) -> InvariantSubsetWitness | None:
    """The semigroup's invariant index set from a component search of its union pattern.

    Of the sink components (those no edge leaves) it takes the one holding
    the smallest index: the first component a sink-first order places.
    """
    s.require_complete()
    u = s.union_pattern()
    graph = Digraph.from_pattern(u)
    comps = graph.strongly_connected_components()
    if len(comps) == 1:
        return None
    succ = condensation_successors(tuple(comps), graph)
    sink = min((c for c, out in zip(comps, succ) if not out), key=lambda c: c[0])
    witness = InvariantSubsetWitness(frozenset(sink), u.n)
    assert witness.verify_pattern(u)
    return witness
