"""Exact matrix helpers of the benchmark's own, independent of ``rpotent``.

Matrices are tuples of rows of ``Fraction``; patterns are tuples of row
bitmasks (bit ``j`` of row ``i`` set iff entry ``(i, j)`` is nonzero).  The
benchmark builds its inputs and checks the program's answers with these, so a
change to the program cannot change what the benchmark expects.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def matmul(a, b):
    n = len(a)
    out = []
    for row in a:
        acc = [ZERO] * n
        for k, f in enumerate(row):
            if f:
                for j, g in enumerate(b[k]):
                    if g:
                        acc[j] += f * g
        out.append(tuple(acc))
    return tuple(out)


def power(a, k):
    p = a
    for _ in range(k - 1):
        p = matmul(p, a)
    return p


def kron(a, b):
    nb = len(b)
    return tuple(
        tuple(a[i][j] * b[p][q] for j in range(len(a)) for q in range(nb))
        for i in range(len(a))
        for p in range(nb)
    )


def direct_sum(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[ZERO] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                rows[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(r) for r in rows)


def conjugate(a, perm):
    """Entry (i, j) of the result is entry (perm[i], perm[j]) of ``a``."""
    n = len(a)
    return tuple(tuple(a[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def pattern(a):
    return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in a)


def pattern_mul(p, q):
    out = []
    for mask in p:
        acc = 0
        j = 0
        while mask:
            if mask & 1:
                acc |= q[j]
            mask >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


def strongly_connected(p):
    """Whether the support digraph of pattern ``p`` is strongly connected.

    Reachability from vertex 0 along rows and along columns; a 1x1 pattern
    counts as strongly connected whatever its entry.
    """
    n = len(p)
    cols = [0] * n
    for i, mask in enumerate(p):
        for j in range(n):
            if mask >> j & 1:
                cols[j] |= 1 << i

    def reach(adj):
        seen, frontier = 1, [0]
        while frontier:
            v = frontier.pop()
            new = adj[v] & ~seen
            seen |= new
            frontier.extend(j for j in range(n) if new >> j & 1)
        return seen

    full = (1 << n) - 1
    return reach(p) == full and reach(cols) == full


def row_sums(a):
    return [sum(row, ZERO) for row in a]


def to_json_text(a):
    def fmt(x):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    return json.dumps({"n": len(a), "entries": [[fmt(x) for x in row] for row in a]})


def from_json_entries(entries):
    return tuple(tuple(Fraction(x) for x in row) for row in entries)
