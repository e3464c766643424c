"""Reference Ward agglomeration for the tests: the Python double scan over
the active pairs that ``rainmax.cluster.ward_cluster`` used before its
merge search became one ``argmin``, on scipy's squared distances. The
module name starts with an underscore so that pytest does not collect it.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform


def ward_merges(x: np.ndarray) -> list[tuple[int, int, float]]:
    """Merge history (lower id, higher id, height) of the rows of ``x``."""
    n = x.shape[0]
    d = squareform(pdist(x, metric="sqeuclidean"))
    np.fill_diagonal(d, np.inf)
    size = np.ones(n)
    cluster_id = list(range(n))
    active = list(range(n))
    merges: list[tuple[int, int, float]] = []
    for step in range(n - 1):
        best = (np.inf, -1, -1)
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                if d[i, j] < best[0]:
                    best = (d[i, j], i, j)
        height, i, j = best
        ids = sorted((cluster_id[i], cluster_id[j]))
        merges.append((ids[0], ids[1], float(height)))
        si, sj = size[i], size[j]
        for k in active:
            if k in (i, j):
                continue
            sk = size[k]
            d_new = ((si + sk) * d[i, k] + (sj + sk) * d[j, k] - sk * height) / (si + sj + sk)
            d[i, k] = d[k, i] = d_new
        size[i] = si + sj
        cluster_id[i] = n + step
        active.remove(j)
        d[j, :] = d[:, j] = np.inf
    return merges
