"""Memory-budgeted tiled pairwise-distance kernels.

The historical k-NN path materialises the full (m, n) distance matrix —
quadratic memory, which is what caps LOF/KNN/OCSVM at a few thousand
windows.  :func:`tile_kneighbors` streams the same computation through
(tile × tile) blocks with a running top-k merge, so peak scratch is the
byte budget instead of O(n²).

**Bitwise tile-independence.**  Changing the tile size must not change the
result, or streaming-vs-batch and cache-hit-vs-recompute guarantees break
upstream.  Two ingredients make every element's bits independent of the
tiling:

* :func:`padded_matmul_t` pads both *output* dimensions of each GEMM to a
  multiple of 16.  OpenBLAS handles output-dim remainder blocks with
  different micro-kernels, so un-padded tile GEMMs disagree with the full
  GEMM in the last ulp along the remainder edges; padded ones agree
  everywhere (property-tested in ``tests/test_accel.py``).
* the top-k merge orders candidates by ``(distance, index)`` via a stable
  lexicographic sort, so duplicate-distance ties always resolve to the
  lowest reference index, no matter which tile a candidate arrived in.

The self-join (``reference is query``) walks only the upper triangle of
the tile grid and reuses each block transposed for the mirrored rows —
half the GEMM work.  Both self-joins, this one's diagonal tiles and
``ml.neighbors.pairwise_sq_euclidean``'s full matrix, make their result
exactly symmetric with :func:`mirror_upper`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .config import memory_budget_bytes
from .precision import resolve_dtype

__all__ = ["mirror_upper", "padded_matmul_t", "tile_kneighbors"]

#: output-dimension padding multiple; covers OpenBLAS micro-kernel widths
_GEMM_PAD = 16

#: rows mirrored per block: the transposed source is a strip this many
#: columns wide, which stays in cache while the block's rows are written
_MIRROR_ROWS = 64
_STRICT_LOWER = np.tri(_MIRROR_ROWS, k=-1, dtype=bool)


def mirror_upper(d: np.ndarray) -> None:
    """Copy the strict upper triangle of the square ``d`` onto its lower one, in place.

    Block by block of ``_MIRROR_ROWS`` rows: the rows left of the diagonal
    block come from the strip above it, transposed, and the diagonal block
    copies its own transpose below its diagonal.  Only copies, so every
    mirrored element has its upper twin's bytes.
    """
    n = d.shape[0]
    for i0 in range(0, n, _MIRROR_ROWS):
        i1 = min(i0 + _MIRROR_ROWS, n)
        d[i0:i1, :i0] = d[:i0, i0:i1].T
        diagonal = d[i0:i1, i0:i1]
        np.copyto(diagonal, diagonal.T, where=_STRICT_LOWER[:i1 - i0, :i1 - i0])


def padded_matmul_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` with both output dimensions zero-padded to multiples of 16.

    Always copies the operands into fresh padded buffers so every block —
    including a self-join's diagonal blocks, which would otherwise take
    BLAS's ``syrk`` shortcut — runs through the identical GEMM code path.
    The padding makes each output element's bits independent of how the
    operands were tiled out of a larger matrix.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    m, d = a.shape
    n = b.shape[0]
    mp = -(-m // _GEMM_PAD) * _GEMM_PAD
    np_ = -(-n // _GEMM_PAD) * _GEMM_PAD
    a_pad = np.zeros((mp, d), dtype=a.dtype)
    a_pad[:m] = a
    # The right operand is materialised C-contiguous as (d, n): a transposed
    # *view* would take BLAS's transB path, whose remainder handling is what
    # the padding is meant to sidestep.
    bt_pad = np.zeros((d, np_), dtype=b.dtype)
    bt_pad[:, :n] = b.T
    return (a_pad @ bt_pad)[:m, :n]


def _sq_dist_block(
    q: np.ndarray, r: np.ndarray, q_sq: np.ndarray, r_sq: np.ndarray
) -> np.ndarray:
    """One (rows, cols) block of squared distances, canonical bit pattern."""
    d = q_sq[:, None] + r_sq[None, :] - 2.0 * padded_matmul_t(q, r)
    np.maximum(d, 0.0, out=d)
    return d


def _merge_topk(
    best_d: np.ndarray,
    best_i: np.ndarray,
    block_d: np.ndarray,
    col_start: int,
) -> None:
    """Fold a distance block into the per-row running top-k, in place.

    Candidates are ranked by ``(distance, reference index)``; the selection
    is a pure function of the candidate multiset, so merge order (and hence
    tiling) cannot change the outcome.
    """
    rows, cols = block_d.shape
    k = best_d.shape[1]
    cand_d = np.concatenate([best_d, block_d], axis=1)
    block_i = np.broadcast_to(np.arange(col_start, col_start + cols)[None, :],
                              (rows, cols))
    cand_i = np.concatenate([best_i, block_i], axis=1)
    order = np.lexsort((cand_i, cand_d), axis=1)[:, :k]
    best_d[:] = np.take_along_axis(cand_d, order, axis=1)
    best_i[:] = np.take_along_axis(cand_i, order, axis=1)


def _mask_self_matches(
    block: np.ndarray, row_start: int, col_start: int
) -> None:
    """Set entries whose global row and column index coincide to +inf."""
    rows, cols = block.shape
    lo = max(row_start, col_start)
    hi = min(row_start + rows, col_start + cols)
    if lo < hi:
        r = np.arange(lo, hi)
        block[r - row_start, r - col_start] = np.inf


def _default_tile(budget: int, itemsize: int, k: int) -> int:
    # Scratch per tile row ≈ tile_cols distances + the (k + tile_cols)
    # candidate keys and int64 indices of the merge; ~4 copies is a safe
    # envelope, hence budget / (tile² · itemsize · 4) per square tile.
    tile = int(np.sqrt(budget / (4 * itemsize)))
    return max(tile, 4 * max(k, 1), 64)


def tile_kneighbors(
    query: np.ndarray,
    reference: np.ndarray,
    k: int,
    exclude_self: bool = False,
    tile_rows: Optional[int] = None,
    tile_cols: Optional[int] = None,
    memory_budget_mb: Optional[float] = None,
    dtype=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(distances, indices) of the ``k`` nearest reference rows, tiled.

    Semantics match :func:`repro.accel.reference.kneighbors_dense` — ``k``
    is clamped to the available neighbour count, ``exclude_self`` masks
    positionally identical rows — except that equal-distance ties always
    resolve to the lowest reference index (the dense path inherits
    ``argpartition``'s arbitrary tie order).  Peak scratch memory is
    O(tile_rows · tile_cols), derived from the memory budget when the tile
    sizes are not given; results are bitwise independent of the tiling.
    """
    self_join = reference is query
    dt = resolve_dtype(dtype)
    q = np.ascontiguousarray(np.asarray(query), dtype=dt)
    r = q if self_join else np.ascontiguousarray(np.asarray(reference), dtype=dt)
    m, n = q.shape[0], r.shape[0]
    k_eff = max(1, min(k, n - (1 if exclude_self else 0)))

    budget = memory_budget_bytes(memory_budget_mb)
    default = _default_tile(budget, dt.itemsize, k_eff)
    tr = min(m, tile_rows if tile_rows is not None else default)
    tc = min(n, tile_cols if tile_cols is not None else default)
    tr = max(int(tr), 1)
    tc = max(int(tc), 1)
    if self_join:
        tc = tr  # symmetric walk needs a square tile grid

    # Row norms come from the full arrays once, so every tile combines the
    # exact same scalars regardless of the tiling.
    q_sq = (q ** 2).sum(axis=1)
    r_sq = q_sq if self_join else (r ** 2).sum(axis=1)

    best_d = np.full((m, k_eff), np.inf, dtype=dt)
    best_i = np.full((m, k_eff), n, dtype=np.int64)  # n = "no candidate" sentinel

    if self_join:
        starts = list(range(0, m, tr))
        for bi, i0 in enumerate(starts):
            i1 = min(i0 + tr, m)
            for j0 in starts[bi:]:
                j1 = min(j0 + tr, m)
                block = _sq_dist_block(q[i0:i1], q[j0:j1], q_sq[i0:i1], q_sq[j0:j1])
                if j0 == i0:
                    # GEMM output is not guaranteed bitwise symmetric; mirror
                    # the upper triangle so every (i, j) / (j, i) pair shares
                    # the upper-triangle bits no matter how the grid is cut.
                    mirror_upper(block)
                if exclude_self:
                    _mask_self_matches(block, i0, j0)
                _merge_topk(best_d[i0:i1], best_i[i0:i1], block, j0)
                if j0 > i0:  # mirrored rows reuse the block transposed
                    _merge_topk(best_d[j0:j1], best_i[j0:j1],
                                np.ascontiguousarray(block.T), i0)
    else:
        for i0 in range(0, m, tr):
            i1 = min(i0 + tr, m)
            for j0 in range(0, n, tc):
                j1 = min(j0 + tc, n)
                block = _sq_dist_block(q[i0:i1], r[j0:j1], q_sq[i0:i1], r_sq[j0:j1])
                if exclude_self:
                    _mask_self_matches(block, i0, j0)
                _merge_topk(best_d[i0:i1], best_i[i0:i1], block, j0)

    return np.sqrt(best_d), best_i
