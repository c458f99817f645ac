"""Per-block structure of maximal triangularizations of r-potent matrices.

For a decomposable r-potent matrix of rank k, every diagonal block of a
maximal standard block triangularization is either zero or an indecomposable
r-potent block of rank at most r-1; the block ranks sum to k, so the number
of nonzero blocks lies between ceil(k/(r-1)) and k.  Once each run of
consecutive zero components is read as one zero block, no two zero blocks
are adjacent and the total block count is at most 2k+1.  This module
computes those facts over the sink-first order of the triangularization.

Every block fact is read off the checked ``Potent`` (``analyze_structure``),
with no block built and no rank or product taken; only k, the rank of A, is
computed (``p.rank``), and the count bounds compare against it.  A record
states its size, whether it is zero and its rank, and nothing the decision
already proves: every block is r-potent, every nonzero block has rank at
most r - 1, the block ranks sum to k, and a block is indecomposable unless
it is a merged run of two or more zero components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .potency import Potent, block_ranks


@dataclass(frozen=True)
class BlockRecord:
    indices: tuple[int, ...]
    is_zero: bool
    block_rank: int

    @property
    def size(self) -> int:
        return len(self.indices)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "is_zero": self.is_zero,
            "block_rank": self.block_rank,
        }


@dataclass(frozen=True)
class StructureReport:
    """Block-level classification and count bounds for one r-potent matrix.

    ``applicable`` is False for indecomposable input (trivial single block),
    in which case the bounds are reported but carry no content.
    """

    applicable: bool
    blocks: tuple[BlockRecord, ...]
    nonzero_count: int
    total_count: int
    bounds_ok: bool

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "blocks": [b.to_dict() for b in self.blocks],
            "nonzero_count": self.nonzero_count,
            "total_count": self.total_count,
            "bounds_ok": self.bounds_ok,
        }


def analyze_structure(p: Potent) -> StructureReport:
    """Classify every diagonal block of A's triangularization ``p.tri`` and evaluate the bounds.

    Each fact of a block B = A[C, C] on a component C is read off ``p``:

    * B is zero iff its period in ``p.tri.periods`` is None: a component
      with no cycle is a lone index with no loop, and any other has an edge.
    * rank B is trace E[C, C] for E = ``p.projection`` = A^(r-1)
      (``block_ranks``).  The components partition the indices, so the
      block ranks sum to trace E, which the report's ``potency.rank_trace_ok``
      compares with k = rank A.
    * B is r-potent, by the C x C block of E A = A, which the decision that
      built ``p`` checked exactly.  A nonzero term E[i, w] A[w, j] with i, j
      in C is a walk from i through w to j, and j reaches i, so w lies in C:
      a walk from C back to C stays in C.  So E[C, C] = B^(r-1) and
      (E A)[C, C] = E[C, C] B = B^r, and (E A)[C, C] = A[C, C] gives B^r = B.
      As E = A^L for the period L, which divides r - 1, this is also
      B^(L+1) = B.
    * A nonzero B of period q has rank q <= r - 1: B^r = B makes B
      diagonalizable with q simple nonzero eigenvalues, the q-th roots of
      unity (``minimal_potency``), and q divides L, which divides r - 1.
    * B is indecomposable, as a strongly connected component.

    Each run of consecutive zero components then counts as one zero block,
    indecomposable only when the run is one component.  None of these
    proved facts is reported; check 4.1 (``structure_case_ok``) tests the
    rank bound and the rank sum on its families.
    """
    t, r, k = p.tri, p.r, p.rank
    records = reorder_to_avoid_consecutive_zeros(
        [
            BlockRecord(comp, period is None, rank)
            for comp, period, rank in zip(t.components, t.periods, block_ranks(p.projection, t.components))
        ]
    )
    nonzero_count = sum(1 for rec in records if not rec.is_zero)
    total = len(records)
    lower = -(-k // (r - 1))  # ceil(k / (r-1))
    bounds_ok = (lower <= nonzero_count <= k) and total <= 2 * k + 1
    return StructureReport(
        applicable=not t.is_trivial,
        blocks=tuple(records),
        nonzero_count=nonzero_count,
        total_count=total,
        bounds_ok=bounds_ok,
    )


# The name is kept: bench/tracer.py times this merge as structure.reorder.
def reorder_to_avoid_consecutive_zeros(records: list[BlockRecord]) -> list[BlockRecord]:
    """Join each run of consecutive zero blocks of the sink-first order into one zero block.

    A zero component is a single index u with A[u, u] = 0, since a larger
    strongly connected component has an edge.  Let u and v lie in one run
    with A[u, v] > 0.  A^r = A gives A = A^(1+j(r-1)) for every j, so for
    1 + j(r-1) > n there is a positive walk from u to v longer than n.  It
    repeats an index, which therefore lies on a cycle, in a nonzero
    component that u reaches and that reaches v: strictly between the two
    in every linear extension of the condensation, this order included,
    which contradicts the run.  So each run of size s spans a zero principal
    submatrix, a zero block that is indecomposable only when s = 1.  Runs
    are separated by nonzero blocks, each of rank at least 1, so
    #runs <= #nonzero + 1 and #total <= 2 #nonzero + 1 <= 2k + 1, with no
    search over orders.
    """
    merged: list[BlockRecord] = []
    for rec in records:
        if rec.is_zero and merged and merged[-1].is_zero:
            merged[-1] = BlockRecord(merged[-1].indices + rec.indices, True, 0)
        else:
            merged.append(rec)
    return merged
