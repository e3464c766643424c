"""Station clustering: distances, Ward and PAM partitions, partition scores.

Two distance structures feed the clustering: plain Euclidean distance on
fitted-parameter features, and the rank-based F-madogram between maxima
series (0 under comonotonicity, 1/6 under independence). Partitions are
scored by mean silhouette width and by a variance-ratio criterion.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .estimate import FitResult
from .ingest import AnnualMaximaSeries

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


def euclidean_dm(features: FeatureMatrix) -> DistanceMatrix:
    return DistanceMatrix(features.labels, squareform(pdist(features.values)))


def _common_years(a: AnnualMaximaSeries, b: AnnualMaximaSeries) -> tuple[np.ndarray, np.ndarray]:
    years = np.intersect1d(a.years, b.years)
    lookup_a, lookup_b = a.by_year(), b.by_year()
    return (
        np.array([lookup_a[int(y)] for y in years]),
        np.array([lookup_b[int(y)] for y in years]),
    )


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
) -> DistanceMatrix:
    """Pairwise F-madogram distances on common years.

    Each series is reduced to average ranks over the shared years, scaled
    by 1/(n+1); the distance is half the mean absolute difference of the
    two rank transforms, hence invariant under strictly increasing maps.
    Pairs sharing fewer than ``min_overlap`` years have no distance: one
    ValueError names every such pair with its overlap.
    """
    labels = tuple(s.station_id for s in series)
    n = len(series)
    d = np.zeros((n, n))
    short: list[str] = []
    for i in range(n):
        for j in range(i + 1, n):
            xi, xj = _common_years(series[i], series[j])
            m = xi.size
            if m < min_overlap:
                short.append(f"{labels[i]!r} and {labels[j]!r} share only {m}")
                continue
            fi = _average_ranks(xi) / (m + 1)
            fj = _average_ranks(xj) / (m + 1)
            d[i, j] = d[j, i] = 0.5 * float(np.abs(fi - fj).mean())
    if short:
        raise ValueError(
            f"{len(short)} station pair(s) share fewer than {min_overlap} years: "
            + "; ".join(short)
        )
    return DistanceMatrix(labels, d)


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
    increase-in-variance cost and heights are nondecreasing.
    """
    x = features.values
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 stations to cluster")
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
    return Dendrogram(features.labels, merges, euclidean_dm(features))


def pam_cluster(dm: DistanceMatrix, k: int) -> Partition:
    """Partitioning around medoids: greedy BUILD then steepest-descent SWAP.

    Deterministic: all ties break toward the lowest station index. The
    total distance to medoids never increases across SWAP iterations.
    """
    n = dm.n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    d = dm.values

    # BUILD: first medoid minimizes total distance, then greedy best additions
    medoids = [int(np.lexsort((np.arange(n), d.sum(axis=1)))[0])]
    while len(medoids) < k:
        nearest = d[:, medoids].min(axis=1)
        best_gain, best_c = -np.inf, -1
        for c in range(n):
            if c in medoids:
                continue
            gain = float(np.maximum(nearest - d[:, c], 0.0).sum())
            if gain > best_gain:
                best_gain, best_c = gain, c
        medoids.append(best_c)

    current = float(d[:, medoids].min(axis=1).sum())
    columns = np.ascontiguousarray(d.T)
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
    """One PAM swap pass: the best replacement of ``exchanges`` medoids by
    non-medoids, or None when no candidate improves on ``current``.

    ``columns[c]`` is column c of the distance matrix as a contiguous row.
    Candidates run in combinations order (removed sets outer, added sets
    inner). A candidate's cost is the row sum of min(nearest kept medoid,
    added columns), summed along a contiguous row so it has the bits of
    ``d[:, trial].min(axis=1).sum()``. The first candidate below
    current - 1e-12 is taken, then each later one below best - 1e-12.
    Blocks of candidates keep the temporaries near _PAM_BLOCK_ELEMENTS.
    """
    n = columns.shape[0]
    outs = list(itertools.combinations(sorted(medoids), exchanges))
    ins = np.array(
        list(itertools.combinations([h for h in range(n) if h not in medoids], exchanges)),
        dtype=np.intp,
    ).reshape(-1, exchanges)
    near = np.full((len(outs), n), np.inf)
    for r, removed in enumerate(outs):
        kept = sorted(set(medoids).difference(removed))
        if kept:
            near[r] = columns[kept].min(axis=0)
    best: tuple[float, int] | None = None
    threshold = current - 1e-12
    total = len(outs) * ins.shape[0]
    block = max(1, _PAM_BLOCK_ELEMENTS // (n * exchanges))
    for start in range(0, total, block):
        r, a = np.divmod(np.arange(start, min(start + block, total)), ins.shape[0])
        costs = np.minimum(near[r], columns[ins[a]].min(axis=1)).sum(axis=1)
        pos = 0
        while (hits := np.flatnonzero(costs[pos:] < threshold)).size:
            pos += int(hits[0])
            best = (float(costs[pos]), start + pos)
            threshold = best[0] - 1e-12
            pos += 1
    if best is None:
        return None
    r, a = divmod(best[1], ins.shape[0])
    return best[0], sorted(set(medoids).difference(outs[r]).union(ins[a].tolist()))


def pam_cost(dm: DistanceMatrix, partition: Partition) -> float:
    if partition.medoids is None:
        raise ValueError("partition carries no medoids")
    idx = [dm.labels.index(m) for m in partition.medoids]
    return float(dm.values[:, idx].min(axis=1).sum())


def silhouette(dm: DistanceMatrix, partition: Partition) -> SilhouetteResult:
    """Silhouette widths s = (b - a)/max(a, b); singletons score 0."""
    if partition.k < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    labels = dm.labels
    member = partition.labels_for(labels)
    d = dm.values
    values: dict[str, float] = {}
    for i, label in enumerate(labels):
        own = np.flatnonzero(member == member[i])
        if own.size == 1:
            values[label] = 0.0
            continue
        a = float(d[i, own[own != i]].mean())
        b = math.inf
        for other in np.unique(member[member != member[i]]):
            b = min(b, float(d[i, member == other].mean()))
        denom = max(a, b)
        values[label] = 0.0 if denom == 0 else (b - a) / denom
    return SilhouetteResult(values, float(np.mean(list(values.values()))))


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
    for cluster in np.unique(member):
        rows = x[member == cluster]
        ssb += rows.shape[0] * float(((rows.mean(axis=0) - grand) ** 2).sum())
    r2 = ssb / sst
    if 1.0 - r2 <= 1e-12:
        return math.inf
    return (r2 / (k - 1)) / ((1.0 - r2) / (n - k))


def select_k(
    *,
    dm: DistanceMatrix | None = None,
    features: FeatureMatrix | None = None,
    method: str = "silhouette",
    kmax: int = 7,
) -> SelectKResult:
    """Score K = 2..kmax and return the argmax with the full score table.

    'silhouette' scores PAM partitions of the distance matrix (derived
    from the features when only those are given); 'pseudo_f' scores Ward
    cuts and requires features. Ties break toward the smallest K.
    """
    if method not in ("silhouette", "pseudo_f"):
        raise ValueError(f"method must be 'silhouette' or 'pseudo_f', got {method!r}")
    if method == "pseudo_f":
        if features is None:
            raise ValueError("pseudo_f scoring needs the feature matrix")
        n = len(features.labels)
    else:
        if dm is None:
            if features is None:
                raise ValueError("need a distance matrix or features")
            dm = euclidean_dm(features)
        n = dm.n
    if not 2 <= kmax <= n - 1:
        raise ValueError(f"kmax must lie in [2, {n - 1}], got {kmax}")

    scores: dict[int, float] = {}
    partitions: dict[int, Partition] = {}
    dendrogram = ward_cluster(features) if method == "pseudo_f" else None
    for k in range(2, kmax + 1):
        if method == "silhouette":
            part = pam_cluster(dm, k)
            scores[k] = float(part.mean_silhouette)
        else:
            part = dendrogram.cut(k)
            scores[k] = pseudo_f(features, part)
        partitions[k] = part
    chosen = 2
    for k in range(3, kmax + 1):
        if scores[k] > scores[chosen]:
            chosen = k
    return SelectKResult(chosen_k=chosen, scores=scores, partitions=partitions)


def write_distance_tsv(dm: DistanceMatrix, stream: TextIO) -> None:
    writer = csv.writer(stream, delimiter="\t", lineterminator="\n")
    writer.writerow(["station", *dm.labels])
    for i, label in enumerate(dm.labels):
        writer.writerow([label, *(format(v, ".10g") for v in dm.values[i])])


def write_score_table(scores: Mapping[int, float], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["K", "score"])
    for k in sorted(scores):
        writer.writerow([k, format(scores[k], ".10g")])


def partition_payload(partition: Partition) -> dict:
    return {
        "K": partition.k,
        "assignments": dict(sorted(partition.assignment.items())),
        "medoids": list(partition.medoids) if partition.medoids is not None else None,
        "mean_silhouette": partition.mean_silhouette,
    }


def singleton_stations(partition: Partition) -> list[str]:
    counts: dict[int, int] = {}
    for cluster in partition.assignment.values():
        counts[cluster] = counts.get(cluster, 0) + 1
    return sorted(s for s, c in partition.assignment.items() if counts[c] == 1)


def features_from_iterable(
    labeled_rows: Iterable[tuple[str, Sequence[float]]],
    standardize: bool = False,
) -> FeatureMatrix:
    """Build a FeatureMatrix from raw (station, (mu, sigma, xi)) rows."""
    labels, rows = [], []
    for label, row in labeled_rows:
        labels.append(label)
        rows.append(tuple(float(v) for v in row))
    x = np.array(rows)
    return FeatureMatrix(tuple(labels), _standardize(x) if standardize else x)
