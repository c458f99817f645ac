"""Per-block structure of maximal triangularizations of r-potent matrices.

For a decomposable r-potent matrix of rank k, every diagonal block of a
maximal standard block triangularization is either zero or an indecomposable
r-potent block of rank at most r-1; the block ranks sum to k, so the number
of nonzero blocks lies between ceil(k/(r-1)) and k.  Once each run of
consecutive zero components is read as one zero block, no two zero blocks
are adjacent and the total block count is at most 2k+1.  This module
computes those facts over the sink-first order of the triangularization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .potency import Potent


@dataclass(frozen=True)
class BlockRecord:
    indices: tuple[int, ...]
    is_zero: bool
    block_rank: int
    block_is_r_potent: bool
    block_is_indecomposable: bool

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def satisfies_dichotomy(self) -> bool:
        """Zero, or an indecomposable r-potent block (rank bound checked by caller)."""
        return self.is_zero or (self.block_is_r_potent and self.block_is_indecomposable)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "is_zero": self.is_zero,
            "block_rank": self.block_rank,
            "block_is_r_potent": self.block_is_r_potent,
            "block_is_indecomposable": self.block_is_indecomposable,
        }


@dataclass(frozen=True)
class StructureReport:
    """Block-level classification and count bounds for one r-potent matrix.

    ``applicable`` is False for indecomposable input (trivial single block),
    in which case the bounds are reported but carry no content.
    """

    k: int
    r: int
    applicable: bool
    blocks: tuple[BlockRecord, ...]
    nonzero_count: int
    total_count: int
    bounds_ok: bool

    @property
    def blocks_ok(self) -> bool:
        return all(
            b.satisfies_dichotomy and (b.is_zero or b.block_rank <= self.r - 1)
            for b in self.blocks
        )

    @property
    def rank_sum_ok(self) -> bool:
        return sum(b.block_rank for b in self.blocks) == self.k

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "applicable": self.applicable,
            "blocks": [b.to_dict() for b in self.blocks],
            "nonzero_count": self.nonzero_count,
            "total_count": self.total_count,
            "bounds_ok": self.bounds_ok,
            "blocks_ok": self.blocks_ok,
            "rank_sum_ok": self.rank_sum_ok,
        }


def analyze_structure(p: Potent) -> StructureReport:
    """Classify every diagonal block of A's triangularization ``p.tri`` and evaluate the bounds.

    A block B on a component C is r-potent iff B ``p.projection``[C, C] = B:
    every walk between two vertices of one strongly connected component
    stays inside it, so A^(r-1)[C, C] = B^(r-1), and the test is B^r = B.
    Each run of consecutive zero components then counts as one zero block.
    """
    t, r, k = p.tri, p.r, p.rank
    if t.is_trivial:
        # the one block is A itself, whose facts are known
        records = [BlockRecord(t.components[0], p.a.is_zero(), k, True, True)]
    else:
        projection = p.projection
        records = reorder_to_avoid_consecutive_zeros(
            [
                BlockRecord(
                    indices=comp,
                    is_zero=blk.is_zero(),
                    block_rank=blk.rank(),
                    block_is_r_potent=blk @ projection.submatrix(comp) == blk,
                    block_is_indecomposable=True,  # a strongly connected component, by construction
                )
                for comp, blk in zip(t.components, t.diagonal_blocks)
            ]
        )
    nonzero_count = sum(1 for rec in records if not rec.is_zero)
    total = len(records)
    lower = -(-k // (r - 1))  # ceil(k / (r-1))
    bounds_ok = (lower <= nonzero_count <= k) and total <= 2 * k + 1
    return StructureReport(
        k=k,
        r=r,
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
            merged[-1] = BlockRecord(merged[-1].indices + rec.indices, True, 0, True, False)
        else:
            merged.append(rec)
    return merged
