"""Independent oracle implementations used to cross-check the package.

Each oracle takes a deliberately different route than the implementation it
checks: naive cubic multiplication against the sparse-aware product, plain
fraction Gaussian elimination against fraction-free Bareiss, diagonal hits of
boolean powers against the BFS-level period, exhaustive subset scans
against the component decision, and a closure that multiplies every new
member with every member on both sides against the one that multiplies
each member by the generators on the right.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from math import gcd

from rpotent.matrix import PatternMatrix, RMatrix


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


def unscaled_perron(a: RMatrix, tol: float = 1e-9, max_iter: int = 10_000) -> float:
    """Power iteration on float(A)^h with no rescaling of the entries.

    h is the lcm of the periods of the nonzero diagonal blocks, as in
    ``perron_value``; the loop and its stopping rule are the same, so on
    input whose floats stay in range the two must agree bit for bit.
    """
    import math

    import numpy as np

    from rpotent.decomposition import block_triangularize
    from rpotent.spectral import period

    h = 1
    for blk in block_triangularize(a).diagonal_blocks:
        if not blk.is_zero():
            h = math.lcm(h, period(blk))
    bf = np.linalg.matrix_power(np.array([[float(x) for x in row] for row in a.entries]), h)
    x = np.ones(a.n) / math.sqrt(a.n)
    prev = None
    for _ in range(max_iter):
        y = bf @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        est = float(x @ y)
        x = y / norm
        if prev is not None and abs(est - prev) <= tol:
            return est ** (1.0 / h)
        prev = est
    raise AssertionError("reference iteration did not converge")
