"""Station clustering: distances, Ward and PAM partitions, partition scores.

Two distance structures feed the clustering: plain Euclidean distance on
fitted-parameter features, and the rank-based F-madogram between maxima
series (0 under comonotonicity, 1/6 under independence). Partitions are
scored by mean silhouette width and by a variance-ratio criterion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .estimate import FitResult
from .ingest import AnnualMaximaSeries, _sorted_distinct, year_matrix

DEFAULT_MIN_OVERLAP = 10
_PAM_BLOCK_ELEMENTS = 1 << 20  # bounds each swap pass's cost temporaries

FEATURE_COLUMNS = ("mu", "sigma", "xi")


@dataclass(frozen=True)
class FeatureMatrix:
    labels: tuple[str, ...]
    values: np.ndarray  # shape (n_stations, 3), columns FEATURE_COLUMNS

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] != len(self.labels):
            raise ValueError("feature matrix shape must match labels")


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        d = self.values
        n = len(self.labels)
        if d.shape != (n, n):
            raise ValueError("distance matrix must be square and match labels")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
        if np.any(d < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("diagonal must be zero")
        if not np.allclose(d, d.T, atol=1e-12):
            raise ValueError("distance matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass
class Partition:
    k: int
    assignment: dict[str, int]
    medoids: tuple[str, ...] | None = None
    mean_silhouette: float | None = None

    def labels_for(self, labels: Sequence[str]) -> np.ndarray:
        return np.array([self.assignment[label] for label in labels], dtype=int)


class SilhouetteResult(NamedTuple):
    per_station: dict[str, float]
    mean: float


class ExtremalCoefficient(NamedTuple):
    theta: float  # clipped to [1, 2] for reporting
    raw: float


@dataclass
class SelectKResult:
    chosen_k: int
    scores: dict[int, float]
    partitions: dict[int, "Partition"] = field(repr=False, default_factory=dict)


def _standardize(x: np.ndarray) -> np.ndarray:
    """z-score each column; a zero-variance column is named in the error."""
    sd = x.std(axis=0)
    zero = np.flatnonzero(sd == 0)
    if zero.size:
        cols = ", ".join(FEATURE_COLUMNS[i] for i in zero)
        raise ValueError(f"cannot standardize zero-variance column(s): {cols}")
    return (x - x.mean(axis=0)) / sd


def param_features(
    fits: Mapping[str, FitResult],
    standardize: bool = True,
) -> FeatureMatrix:
    """Stack fitted (mu, sigma, xi) per station; optionally z-score columns."""
    labels = tuple(fits.keys())
    if not labels:
        raise ValueError("no fits given")
    for station, fit in fits.items():
        if not fit.converged:
            raise ValueError(f"fit for station {station!r} did not converge")
    x = np.array([[fits[s].params.mu, fits[s].params.sigma, fits[s].params.xi] for s in labels])
    return FeatureMatrix(labels, _standardize(x) if standardize else x)


def _squared_distances(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x``. Each is summed
    over the columns in order, as scipy's ``pdist(x, "sqeuclidean")`` sums
    it, so both give the same bits."""
    x = np.asarray(x, dtype=float)
    d = np.zeros((x.shape[0], x.shape[0]))
    for column in x.T:
        diff = column[:, None] - column[None, :]
        d += diff * diff
    return d


def euclidean_dm(features: FeatureMatrix) -> DistanceMatrix:
    return DistanceMatrix(features.labels, np.sqrt(_squared_distances(features.values)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the mean of their ranks; all NaN if any
    value is NaN (scipy's ``rankdata(x, "average")``)."""
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def fmadogram_dm(
    series: Sequence[AnnualMaximaSeries],
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> tuple[DistanceMatrix, dict[str, dict[str, int]]]:
    """Pairwise F-madogram distances on common years among the stations
    left once every pair shares at least ``min_overlap`` years, and the
    stations left out, each with its short pairs and their overlaps.

    The stations are aligned once by :func:`~rainmax.ingest.year_matrix`;
    a pair's common years are the years both stations fill. Each round
    leaves out the kept station in the most short pairs among the kept
    stations; ties go to the station with fewer years, then to the later
    one in input order.

    Each series is reduced to average ranks over the shared years, scaled
    by 1/(m+1); the distance is half the mean absolute difference of the
    two rank transforms, hence invariant under strictly increasing maps.
    A station ranked over all of its own years gives the same scaled ranks
    in every such pair, so those are computed once per station and kept
    (at most one array per station). A pair whose common years leave out
    some of a station's years ranks that station over the common years
    alone. One common year ranks both stations alike, so ``min_overlap``
    must be at least 2.
    """
    if min_overlap < 2:
        raise ValueError(f"min_overlap must be at least 2, got {min_overlap}")
    labels = [s.station_id for s in series]
    _, values = year_matrix(series)
    present = ~np.isnan(values)
    filled = present.astype(np.int64)
    overlap = filled @ filled.T  # each station's own years on the diagonal
    short = overlap < min_overlap
    np.fill_diagonal(short, False)
    kept = np.ones(len(labels), dtype=bool)
    excluded: dict[str, dict[str, int]] = {}
    while (counts := (short & kept).sum(axis=1) * kept).any():
        worst = max(range(len(labels)), key=lambda i: (counts[i], -overlap[i, i], i))
        pairs = np.flatnonzero(short[worst] & kept)
        excluded[labels[worst]] = {labels[j]: int(overlap[worst, j]) for j in pairs}
        kept[worst] = False

    stations = np.flatnonzero(kept)
    d = np.zeros((stations.size, stations.size))
    own_ranks: dict[int, np.ndarray] = {}

    def scaled_ranks(k: int, both: np.ndarray, m: int) -> np.ndarray:
        if m < overlap[k, k]:
            return _average_ranks(values[k, both]) / (m + 1)
        if k not in own_ranks:
            own_ranks[k] = _average_ranks(values[k, both]) / (m + 1)
        return own_ranks[k]

    for a, b in itertools.combinations(range(stations.size), 2):
        i, j = stations[a], stations[b]
        both = present[i] & present[j]
        m = int(overlap[i, j])
        fi, fj = scaled_ranks(i, both, m), scaled_ranks(j, both, m)
        d[a, b] = d[b, a] = 0.5 * float(np.abs(fi - fj).mean())
    return DistanceMatrix(tuple(labels[i] for i in stations), d), excluded


def extremal_coefficient(nu: float) -> ExtremalCoefficient:
    """Pairwise extremal coefficient from an F-madogram value.

    1 means complete dependence, 2 independence; the reported value is
    clipped to [1, 2] while the raw ratio is kept alongside.
    """
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"F-madogram value must lie in [0, 0.5), got {nu!r}")
    raw = (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)
    return ExtremalCoefficient(theta=float(min(max(raw, 1.0), 2.0)), raw=float(raw))


@dataclass
class Dendrogram:
    """Agglomerative merge history; cluster ids follow the scipy convention
    (leaves 0..n-1, the merge at step t creates cluster n+t)."""

    labels: tuple[str, ...]
    merges: list[tuple[int, int, float]]
    _distances: DistanceMatrix = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    def cut(self, k: int) -> Partition:
        if not 1 <= k <= self.n:
            raise ValueError(f"k must lie in [1, {self.n}], got {k}")
        members: dict[int, list[int]] = {i: [i] for i in range(self.n)}
        for step in range(self.n - k):
            a, b, _ = self.merges[step]
            members[self.n + step] = members.pop(a) + members.pop(b)
        groups = sorted(members.values(), key=min)
        assignment = {}
        for cluster_id, group in enumerate(groups, start=1):
            for leaf in group:
                assignment[self.labels[leaf]] = cluster_id
        partition = Partition(k=k, assignment=assignment)
        if k >= 2:
            partition.mean_silhouette = silhouette(self._distances, partition).mean
        return partition


def ward_cluster(features: FeatureMatrix) -> Dendrogram:
    """Ward agglomeration via the Lance-Williams recurrence.

    Works on squared Euclidean distances, so each merge height is the
    increase-in-variance cost and heights are nondecreasing. Each step
    merges the first closest pair in row-major order, the lowest index
    first, and updates the merged cluster's distances to the others at once.
    """
    x = features.values
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 stations to cluster")
    d = _squared_distances(x)
    distances = DistanceMatrix(features.labels, np.sqrt(d))
    # inf on the diagonal, and later on merged-away rows and columns, keeps
    # argmin to pairs of active clusters
    np.fill_diagonal(d, np.inf)
    size = np.ones(n)
    cluster_id = list(range(n))
    active = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float]] = []
    for step in range(n - 1):
        # d is symmetric, so the first minimum in row-major order has i < j
        i, j = divmod(int(np.argmin(d)), n)
        height = d[i, j]
        ids = sorted((cluster_id[i], cluster_id[j]))
        merges.append((ids[0], ids[1], float(height)))
        active[j] = False
        others = np.flatnonzero(active & (np.arange(n) != i))
        si, sj, sk = size[i], size[j], size[others]
        d[i, others] = d[others, i] = (
            (si + sk) * d[i, others] + (sj + sk) * d[j, others] - sk * height
        ) / (si + sj + sk)
        size[i] = si + sj
        cluster_id[i] = n + step
        d[j, :] = d[:, j] = np.inf
    return Dendrogram(features.labels, merges, distances)


def pam_cluster(dm: DistanceMatrix, k: int) -> Partition:
    """Partitioning around medoids: greedy BUILD then steepest-descent SWAP.

    Deterministic: all ties break toward the lowest station index. The
    total distance to medoids never increases across SWAP iterations.
    """
    n = dm.n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    d = dm.values

    columns = np.ascontiguousarray(d.T)
    # BUILD: first medoid minimizes total distance, then greedy best additions;
    # argmax takes the first largest gain, so ties go to the lowest index
    medoids = [int(np.lexsort((np.arange(n), d.sum(axis=1)))[0])]
    while len(medoids) < k:
        gains = np.maximum(d[:, medoids].min(axis=1) - columns, 0.0).sum(axis=1)
        gains[medoids] = -np.inf
        medoids.append(int(np.argmax(gains)))

    current = float(d[:, medoids].min(axis=1).sum())
    while True:
        # single-medoid steepest descent, with a double-exchange escape step:
        # single swaps alone strand in local optima whose improvement needs
        # two medoids replaced at once (happens even on 4-point instances)
        move = _best_swap(columns, medoids, current, 1)
        if move is None and k >= 2 and n - k >= 2:
            move = _best_swap(columns, medoids, current, 2)
        if move is None:
            break
        current, medoids = move

    medoids = sorted(medoids)
    dist_to_medoids = d[:, medoids]
    nearest_idx = dist_to_medoids.argmin(axis=1)  # argmin ties -> lowest medoid index
    assignment = {
        dm.labels[i]: int(nearest_idx[i]) + 1 for i in range(n)
    }
    partition = Partition(
        k=k,
        assignment=assignment,
        medoids=tuple(dm.labels[m] for m in medoids),
    )
    if k >= 2:
        partition.mean_silhouette = silhouette(dm, partition).mean
    return partition


def _best_swap(
    columns: np.ndarray, medoids: list[int], current: float, exchanges: int
) -> tuple[float, list[int]] | None:
    """One PAM swap pass: the best replacement of ``exchanges`` (1 or 2)
    medoids by non-medoids, or None when no candidate improves on ``current``.

    ``columns[c]`` is column c of the distance matrix as a contiguous row.
    Candidates run in combinations order (removed sets outer, added sets
    inner). A candidate's cost is the row sum of min(nearest kept medoid,
    added columns), summed along a contiguous row so it has the bits of
    ``d[:, trial].min(axis=1).sum()``. The first candidate below
    current - 1e-12 is taken, then each later one below best - 1e-12.
    Blocks of candidates keep the temporaries near _PAM_BLOCK_ELEMENTS.

    A double exchange is costed only when a lower bound on its cost lets it
    pass the threshold. With S = sum(near) and A(c) = sum(min(near, d_c)),
    the pointwise min(a, b, c) >= min(a, b) + min(a, c) - a gives
    cost(c1, c2) >= A(c1) + A(c2) - S. Each float sum of n nonnegative terms
    is off by at most about n*eps/2 of its value, and every term of the
    bound and the cost is at most S, so the computed bound exceeds the
    computed cost by less than the margin 8*n*eps*S. A candidate whose
    bound minus that margin is not below the threshold could never be
    taken: the threshold only falls.
    """
    n = columns.shape[0]
    outs = list(itertools.combinations(sorted(medoids), exchanges))
    others = np.array([h for h in range(n) if h not in medoids], dtype=np.intp)
    # positions in others of each added set, in combinations order
    if exchanges == 1:
        slots = np.arange(others.size)[:, None]
    else:
        slots = np.column_stack(np.triu_indices(others.size, k=1))
    near = np.full((len(outs), n), np.inf)
    for r, removed in enumerate(outs):
        kept = sorted(set(medoids).difference(removed))
        if kept:
            near[r] = columns[kept].min(axis=0)
    if exchanges == 2:
        # near rows without a kept medoid are inf, so their bounds are -inf
        # and nothing under them is pruned
        totals = near.sum(axis=1)
        margin = 8 * n * np.finfo(float).eps * totals
        singles = np.empty((len(outs), others.size))
        rows = max(1, _PAM_BLOCK_ELEMENTS // n)
        for r in range(len(outs)):
            for lo in range(0, others.size, rows):
                singles[r, lo : lo + rows] = _swap_costs(
                    near[r], columns[others[lo : lo + rows], None]
                )
    best: tuple[float, int] | None = None
    threshold = current - 1e-12
    total = len(outs) * slots.shape[0]
    block = max(1, _PAM_BLOCK_ELEMENTS // (n * exchanges))
    for start in range(0, total, block):
        index = np.arange(start, min(start + block, total))
        r, a = np.divmod(index, slots.shape[0])
        if exchanges == 2:
            bound = singles[r, slots[a, 0]] + singles[r, slots[a, 1]] - totals[r]
            keep = bound - margin[r] < threshold
            index, r, a = index[keep], r[keep], a[keep]
        costs = _swap_costs(near[r], columns[others[slots[a]]])
        pos = 0
        while (hits := np.flatnonzero(costs[pos:] < threshold)).size:
            pos += int(hits[0])
            best = (float(costs[pos]), int(index[pos]))
            threshold = best[0] - 1e-12
            pos += 1
    if best is None:
        return None
    r, a = divmod(best[1], slots.shape[0])
    return best[0], sorted(set(medoids).difference(outs[r]).union(others[slots[a]].tolist()))


def _swap_costs(near: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Exact costs of swap candidates: row i sums min(near[i], added[i, j])
    over the added columns j, along a contiguous row."""
    return np.minimum(near, added.min(axis=1)).sum(axis=1)


def pam_cost(dm: DistanceMatrix, partition: Partition) -> float:
    if partition.medoids is None:
        raise ValueError("partition carries no medoids")
    idx = [dm.labels.index(m) for m in partition.medoids]
    return float(dm.values[:, idx].min(axis=1).sum())


def silhouette(dm: DistanceMatrix, partition: Partition) -> SilhouetteResult:
    """Silhouette widths s = (b - a)/max(a, b); singletons score 0.

    Each cluster's columns are gathered into one C-ordered block, whose
    row means are every station's mean distance to the cluster; the
    members' rows without the diagonal give their a. A row mean of a
    C-ordered block sums the same distances in the same order as a
    per-station loop, so the widths keep that loop's bits (``d[:, rows]``
    is not C-ordered, and its row sums round differently)."""
    if partition.k < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    member = partition.labels_for(dm.labels)
    clusters = _sorted_distinct(member)
    d = dm.values
    n = member.size
    a = np.zeros(n)
    alone = np.zeros(n, dtype=bool)
    to_other = np.empty((clusters.size, n))
    for c, cluster in enumerate(clusters):
        rows = np.flatnonzero(member == cluster)
        to_other[c] = d.take(rows, axis=1).mean(axis=1)
        to_other[c, rows] = np.inf
        m = rows.size
        if m == 1:
            alone[rows] = True
        else:
            others = np.broadcast_to(rows, (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)
            a[rows] = d[rows[:, None], others].mean(axis=1)
    b = to_other.min(axis=0)
    denom = np.maximum(a, b)
    widths = np.zeros(n)
    np.divide(b - a, denom, out=widths, where=~alone & (denom != 0))
    return SilhouetteResult(dict(zip(dm.labels, widths.tolist())), float(np.mean(widths)))


def pseudo_f(features: FeatureMatrix, partition: Partition) -> float:
    """Variance-ratio score (R^2/(K-1)) / ((1-R^2)/(n-K)).

    R^2 is the between-cluster share of the total sum of squares about the
    grand mean; perfect separation returns +inf.
    """
    n = len(features.labels)
    k = partition.k
    if not 2 <= k < n:
        raise ValueError(f"pseudo-F requires 2 <= K < n, got K={k}, n={n}")
    x = features.values
    member = partition.labels_for(features.labels)
    grand = x.mean(axis=0)
    sst = float(((x - grand) ** 2).sum())
    if sst == 0:
        raise ValueError("zero total variance; scores undefined")
    ssb = 0.0
    for cluster in _sorted_distinct(member):
        rows = x[member == cluster]
        ssb += rows.shape[0] * float(((rows.mean(axis=0) - grand) ** 2).sum())
    r2 = ssb / sst
    if 1.0 - r2 <= 1e-12:
        return math.inf
    return (r2 / (k - 1)) / ((1.0 - r2) / (n - k))


def select_k(dm: DistanceMatrix, kmax: int = 7) -> SelectKResult:
    """Score the PAM partitions of ``dm`` for K = 2..kmax by mean
    silhouette width and return the argmax, ties toward the smallest K,
    with the full score table."""
    if dm.n < 3:
        raise ValueError(f"choosing K needs at least 3 stations, got {dm.n}")
    if not 2 <= kmax <= dm.n - 1:
        raise ValueError(f"kmax must lie in [2, {dm.n - 1}], got {kmax}")
    partitions = {k: pam_cluster(dm, k) for k in range(2, kmax + 1)}
    scores = {k: float(p.mean_silhouette) for k, p in partitions.items()}
    return SelectKResult(chosen_k=max(scores, key=scores.get), scores=scores, partitions=partitions)


def singleton_stations(partition: Partition) -> list[str]:
    counts: dict[int, int] = {}
    for cluster in partition.assignment.values():
        counts[cluster] = counts.get(cluster, 0) + 1
    return sorted(s for s, c in partition.assignment.items() if counts[c] == 1)
