"""The self-join mirror the blocked ``accel.distances.mirror_upper`` replaced.

``reference_mirror_upper`` is the former ``ml.neighbors._mirror_upper``:
1,024-row blocks, the rows left of each diagonal block copied from the
strip above it, and the diagonal block's lower triangle filled through
``np.tril_indices``.  On a matrix of at most 1,024 rows it is exactly the
``tril_indices`` copy the tiled k-NN applied to its diagonal tiles, so it
stands for both former mirrors.
"""

from __future__ import annotations

import numpy as np


def reference_mirror_upper(d: np.ndarray, block: int = 1024) -> None:
    """Copy the strict upper triangle of a square matrix onto the lower one."""
    n = d.shape[0]
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        if i0:
            d[i0:i1, :i0] = d[:i0, i0:i1].T
        il, jl = np.tril_indices(i1 - i0, k=-1)
        d[i0 + il, i0 + jl] = d[i0 + jl, i0 + il]
