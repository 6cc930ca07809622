"""From-scratch clustering pipeline.

Stages: z-score standardization, PCA onto the top 3 covariance eigenvectors
(cyclic Jacobi rotations), k-means++ seeding, Lloyd iterations, an SSE elbow
curve, and silhouette scoring for model selection.

Everything is deterministic: all randomness flows through
``numpy.random.default_rng`` seeded from explicit integers, restarts are
merged in index order, and ties break toward the lower index.

Summation order is part of the contract. Every squared distance adds the
per-feature squares one feature at a time, left to right, into one output
array (``_squared_gaps``); for up to 7 features that is bit-for-bit numpy's
``np.sum(diff * diff, axis=-1)``, which sums so short an axis in the same
order. k-means++ keeps each point's distance to its nearest chosen centroid
as a running ``np.minimum``, which is exact. Every fit uses all k clusters:
an empty cluster is reseeded to the point farthest from its own centroid,
repeatedly, until none is empty (k <= n).

Silhouette uses the standard cohesion/separation form s = (b - a)/max(a, b),
where a is the mean distance to the point's own cluster and b the smallest
mean distance to another cluster, so +1 means well separated. Model selection
scores every fitted k in one blocked pass: the distance matrix is computed a
block of points at a time (about ``PAIRS_PER_BLOCK`` distances) and each
block serves every labeling, so memory stays bounded whatever the fleet size.
A block is stored transposed, one column per block point, since distance is
symmetric bit for bit. Each point's sum over a cluster's members is
``np.add.reduce`` down the member rows: on a C-contiguous block of two or
more columns numpy adds the rows one after another in index order, but a
one-column block is summed pairwise, so every block is at least two columns
wide. The running total is carried across blocks in point order; the score is
therefore bit-for-bit the naive pairwise one.

Lloyd's centroid update sorts the points by label (stable, so each cluster
keeps index order) and reduces each cluster's contiguous slice with the same
``np.add.reduce`` and divide as ``x[labels == j].mean(axis=0)``, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .cell_model import check_cell_id
from .errors import ConfigurationError, DataError
from .traffic import KpiRecord, fmt_num, read_csv, write_csv

FEATURE_COLUMNS = [
    "tch_traffic_erl",
    "dl_edge_throughput_kbps",
    "pdch_congestion_pct",
    "preempt_pdch",
    "ts_count",
]


class Stage(Enum):
    RAW = "raw"
    STANDARDIZED = "standardized"
    REDUCED = "reduced"


@dataclass
class FeatureMatrix:
    """Rectangular numeric feature table with row identities and a stage tag."""

    row_ids: list[str]
    values: np.ndarray
    stage: Stage = Stage.RAW

    def validate(self) -> "FeatureMatrix":
        if self.values.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {self.values.shape}")
        if len(self.row_ids) != self.values.shape[0]:
            raise DataError("row_ids length does not match the matrix")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature matrix contains NaN or Inf")
        if self.stage is Stage.REDUCED and self.values.shape[1] != 3:
            raise DataError(f"reduced matrix must have 3 columns, got {self.values.shape[1]}")
        return self

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def kpi_feature_matrix(records: Sequence[KpiRecord]) -> FeatureMatrix:
    """Stack KPI records into a raw feature matrix (fixed column order)."""
    rows = [
        [getattr(r, c) for c in FEATURE_COLUMNS]
        for r in records
    ]
    return FeatureMatrix(
        row_ids=[r.cell_id for r in records],
        values=np.asarray(rows, dtype=np.float64),
        stage=Stage.RAW,
    ).validate()


@dataclass(frozen=True)
class StandardizationStats:
    means: np.ndarray
    stds: np.ndarray
    constant_columns: np.ndarray  # bool mask of zero-variance columns


def standardize(m: FeatureMatrix) -> tuple[FeatureMatrix, StandardizationStats]:
    """Z-score each column with the population std; constant columns map to 0."""
    m.validate()
    if m.stage is not Stage.RAW:
        raise DataError(f"standardize expects a raw matrix, got {m.stage.value}")
    if m.n_rows < 2:
        raise DataError(f"standardize needs at least 2 rows, got {m.n_rows}")
    means = m.values.mean(axis=0)
    stds = m.values.std(axis=0)  # population, ddof=0
    constant = stds == 0.0
    safe = np.where(constant, 1.0, stds)
    out = (m.values - means) / safe
    out[:, constant] = 0.0
    res = FeatureMatrix(list(m.row_ids), out, Stage.STANDARDIZED)
    return res, StandardizationStats(means=means, stds=stds, constant_columns=constant)


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaModel:
    """Projection model: per-feature means plus top eigenvectors of covariance."""

    means: np.ndarray
    component_matrix: np.ndarray      # n_features x n_components, orthonormal columns
    explained_variance: np.ndarray    # top n_components eigenvalues, descending
    all_variances: np.ndarray         # full eigenvalue spectrum, descending
    total_variance: float             # trace of the covariance matrix

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.means) @ self.component_matrix


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigen-decompose a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair until the largest off-diagonal
    magnitude drops below ``tol``. Returns (eigenvalues, eigenvectors) sorted
    by descending eigenvalue; eigenvectors are the columns.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise DataError("matrix is not symmetric")
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            row_max = np.max(np.abs(a[p, p + 1:]))
            if row_max > off:
                off = row_max
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def pca_reduce(m: FeatureMatrix, n_components: int = 3) -> tuple[FeatureMatrix, PcaModel]:
    """Project onto the top principal components of the sample covariance.

    Sign convention: each component's largest-magnitude entry is positive.
    """
    m.validate()
    if m.stage is not Stage.STANDARDIZED:
        raise DataError(f"pca_reduce expects a standardized matrix, got {m.stage.value}")
    if n_components > m.n_cols:
        raise DataError(f"n_components={n_components} exceeds {m.n_cols} features")
    if n_components < 1:
        raise DataError(f"n_components must be >= 1, got {n_components}")
    if m.n_rows < 2:
        raise DataError("pca_reduce needs at least 2 rows")

    means = m.values.mean(axis=0)
    centered = m.values - means
    cov = (centered.T @ centered) / (m.n_rows - 1)
    eigenvalues, eigenvectors = jacobi_eigh(cov)
    eigenvalues = np.maximum(eigenvalues, 0.0)  # clamp round-off negatives

    components = eigenvectors[:, :n_components].copy()
    for j in range(n_components):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]

    model = PcaModel(
        means=means,
        component_matrix=components,
        explained_variance=eigenvalues[:n_components].copy(),
        all_variances=eigenvalues,
        total_variance=float(np.trace(cov)),
    )
    reduced = FeatureMatrix(list(m.row_ids), model.transform(m.values), Stage.REDUCED)
    return reduced, model


# ---------------------------------------------------------------------------
# K-means


@dataclass
class ClusteringResult:
    k: int
    labels: np.ndarray
    centroids: np.ndarray
    sse: float
    iterations: int
    seed: int
    sse_history: list[float] = field(default_factory=list)


def _points_of(points: Union[FeatureMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(points, FeatureMatrix):
        points.validate()
        return points.values
    return np.asarray(points, dtype=np.float64)


def _squared_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the broadcast rows of ``a`` and ``b``.

    The last axis holds the features. The squares are added one feature at a
    time, left to right, into one output array, so no difference tensor with a
    feature axis is built.
    """
    out = a[..., 0] - b[..., 0]
    out *= out
    gap = np.empty_like(out)
    for j in range(1, a.shape[-1]):
        np.subtract(a[..., j], b[..., j], out=gap)
        gap *= gap
        out += gap
    return out


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n_points, n_centers) squared Euclidean distances, features added left to right."""
    return _squared_gaps(points[:, None, :], centers[None, :, :])


def seeding_probabilities(nearest_d2: np.ndarray) -> np.ndarray:
    """Selection weights for the next k-means++ centroid.

    ``nearest_d2`` holds each point's squared distance to its nearest
    already-chosen centroid; a point's weight is its share of the total, so
    points coinciding with a centroid get 0. When every point coincides with
    one, the weights fall back to uniform.
    """
    total = nearest_d2.sum()
    if total == 0.0:
        return np.full(len(nearest_d2), 1.0 / len(nearest_d2))
    return nearest_d2 / total


def kmeanspp_seed(
    points: Union[FeatureMatrix, np.ndarray], k: int, seed: int
) -> np.ndarray:
    """Pick k initial centroids: first uniform, then squared-distance weighted.

    The distance to the nearest chosen centroid is kept as a running minimum,
    updated against each new centroid only; ``min`` is exact, so the weights
    equal those from measuring every point against every chosen centroid.
    """
    x = _points_of(points)
    n = len(x)
    if k > n:
        raise DataError(f"k={k} exceeds {n} points")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    nearest_d2 = _squared_gaps(x, centroids[0])
    for j in range(1, k):
        centroids[j] = x[rng.choice(n, p=seeding_probabilities(nearest_d2))]
        np.minimum(nearest_d2, _squared_gaps(x, centroids[j]), out=nearest_d2)
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin returns the lowest index on ties
    return np.argmin(squared_distances(x, centroids), axis=1)


def _sse(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = x - centroids[labels]
    return float(np.sum(diff * diff))


def _repair_empty(
    x: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reseed each empty cluster to the point farthest from its own centroid.

    Clusters are visited in index order and checked as they are reached, so a
    steal that empties a later cluster is repaired in the same pass. A steal
    can also empty a cluster already visited, so the pass repeats until none
    is empty. A moved point never moves again, so each repaired cluster keeps
    a member and the loop ends within k moves (k <= n). Only moved points and
    repaired clusters change, so each point's distance to its own centroid is
    measured once per call.
    """
    k = len(centroids)
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return centroids, labels
    centroids = centroids.copy()
    labels = labels.copy()
    dist = _squared_gaps(x, centroids[labels])
    while not counts.all():
        for j in range(k):
            if counts[j]:
                continue
            far = int(np.argmax(dist))
            dist[far] = -1.0  # moved: never picked again
            counts[labels[far]] -= 1
            counts[j] += 1
            centroids[j] = x[far]
            labels[far] = j
    return centroids, labels


def lloyd(
    points: Union[FeatureMatrix, np.ndarray],
    init_centroids: np.ndarray,
    max_iter: int = 300,
    tol: float = 1e-9,
    seed: int = 0,
) -> ClusteringResult:
    """Alternate assignment and centroid updates until centroids stop moving.

    Nearest-centroid ties break toward the lower centroid index; empty
    clusters are reseeded to the points farthest from their own centroids, so
    every returned cluster is non-empty (k <= n).
    """
    x = _points_of(points)
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    if centroids.ndim != 2 or centroids.shape[1] != x.shape[1] or len(centroids) == 0:
        raise DataError(f"bad init_centroids shape {centroids.shape}")
    k = len(centroids)
    if k > len(x):
        raise DataError(f"k={k} exceeds {len(x)} points")

    sse_history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        labels = _assign(x, centroids)
        centroids, labels = _repair_empty(x, centroids, labels)
        sse_history.append(_sse(x, centroids, labels))
        # each cluster's members, in index order, as one slice of xs; a stable
        # sort has one result, and on labels of 16 bits or fewer numpy's is a radix sort
        order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
        xs = x.take(order, axis=0)
        counts = np.bincount(labels, minlength=k)
        stops = np.cumsum(counts).tolist()
        new_centroids = np.array([np.add.reduce(xs[a:b], axis=0)
                                  for a, b in zip([0, *stops], stops)])
        new_centroids /= counts[:, None]
        shift = float(np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift < tol:
            break

    labels = _assign(x, centroids)
    centroids, labels = _repair_empty(x, centroids, labels)
    return ClusteringResult(
        k=k,
        labels=labels,
        centroids=centroids,
        sse=_sse(x, centroids, labels),
        iterations=iterations,
        seed=seed,
        sse_history=sse_history,
    )


def child_seed(root: int, *key: int) -> int:
    """Deterministic, platform-stable child seed for a (root, key...) path."""
    ss = np.random.SeedSequence(entropy=root, spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


def run_kmeans(
    points: Union[FeatureMatrix, np.ndarray],
    k: int,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 300,
    tol: float = 1e-9,
) -> ClusteringResult:
    """Best of ``restarts`` k-means++ runs by SSE (ties keep the earliest)."""
    if restarts < 1:
        raise ConfigurationError(f"restarts must be >= 1, got {restarts}")
    best: Optional[ClusteringResult] = None
    for r in range(restarts):
        s = child_seed(seed, k, r)
        init = kmeanspp_seed(points, k, s)
        result = lloyd(points, init, max_iter=max_iter, tol=tol, seed=s)
        if best is None or result.sse < best.sse:
            best = result
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Model selection


@dataclass
class ElbowResult:
    points: list[tuple[int, float]]   # (k, best sse)
    suggested_knee: Optional[int]


def fit_k_range(
    points: Union[FeatureMatrix, np.ndarray],
    ks: Iterable[int],
    restarts: int = 10,
    seed: int = 0,
) -> dict[int, ClusteringResult]:
    """Best-of-restarts k-means for each distinct k, keyed by k in ascending order.

    This is the one place a k range is checked and fitted: the elbow curve,
    silhouette selection and a pinned k all read their results from this table.
    """
    x = _points_of(points)
    ordered = sorted(set(int(k) for k in ks))
    if not ordered or ordered[0] < 1:
        raise ConfigurationError(f"bad k range {ordered!r}")
    if ordered[-1] > len(x):
        raise ConfigurationError(f"max k {ordered[-1]} exceeds {len(x)} points")
    return {k: run_kmeans(x, k, seed=seed, restarts=restarts) for k in ordered}


def elbow_curve(fits: Mapping[int, ClusteringResult]) -> ElbowResult:
    """Best SSE per fitted k plus a knee suggestion (advisory; selection uses silhouette).

    The knee is the k farthest from the chord joining the curve's endpoints,
    which is the classic largest-deviation bend heuristic.
    """
    curve = [(k, fits[k].sse) for k in sorted(fits)]
    knee: Optional[int] = None
    if len(curve) >= 3:
        k0, s0 = curve[0]
        k1, s1 = curve[-1]
        slope = (s1 - s0) / (k1 - k0)
        best_dev = -1.0
        for k, s in curve[1:-1]:
            dev = abs(s - (s0 + slope * (k - k0)))
            if dev > best_dev:
                best_dev = dev
                knee = k
    return ElbowResult(points=curve, suggested_knee=knee)


# Distances one silhouette block holds at once: the pass keeps O(PAIRS_PER_BLOCK)
# floats in memory instead of the whole n x n matrix.
PAIRS_PER_BLOCK = 1 << 20


def _cluster_members(labels: np.ndarray, n: int) -> list[np.ndarray]:
    """Member indices of each cluster 0..k-1; needs k >= 2, all non-empty."""
    if len(labels) != n:
        raise DataError("labels length does not match points")
    k = int(labels.max()) + 1 if n else 0
    if k < 2:
        raise DataError(f"silhouette needs k >= 2, got {k}")
    members = [np.flatnonzero(labels == j) for j in range(k)]
    if any(len(m) == 0 for m in members):
        raise DataError("silhouette needs every cluster non-empty")
    return members


def _member_sums(dist: np.ndarray, members: Sequence[np.ndarray]) -> np.ndarray:
    """(block, k) sums of each column of ``dist`` over each cluster's member rows.

    ``dist[m]`` is C-contiguous, and numpy reduces its first axis row after row,
    in index order, the same additions as a scalar ``acc += d[j]`` loop, as
    long as the block has two or more columns; one column is summed pairwise.
    """
    return np.stack([np.add.reduce(dist[m], axis=0) for m in members], axis=1)


def _block_silhouettes(
    dist: np.ndarray, own: np.ndarray, members: Sequence[np.ndarray]
) -> np.ndarray:
    """Silhouette value of each column of a distance block (0 for singletons and a = b = 0).

    ``dist`` is n x block: column i holds every point's distance to block point i.
    The block must be at least two columns wide (see ``_member_sums``).
    """
    counts = np.array([len(m) for m in members])
    sums = _member_sums(dist, members)
    rows = np.arange(len(own))
    own_size = counts[own] - 1
    a = sums[rows, own] / np.maximum(own_size, 1)
    means = sums / counts
    means[rows, own] = math.inf
    b = means.min(axis=1)
    denom = np.where(a > b, a, b)
    keep = (own_size > 0) & (denom > 0.0)
    return np.divide(b - a, denom, out=np.zeros(len(own)), where=keep)


def silhouette_scores(
    points: Union[FeatureMatrix, np.ndarray], labelings: Sequence[np.ndarray]
) -> list[float]:
    """Mean silhouette value s = (b - a)/max(a, b) over all points, per labeling.

    One pass over row blocks of the distance matrix serves every labeling.
    Singleton-cluster points score 0, as do points where both means vanish
    (coincident data). Each labeling needs at least 2 clusters, all non-empty.
    """
    x = _points_of(points)
    n = len(x)
    labelings = [np.asarray(labels) for labels in labelings]
    members = [_cluster_members(labels, n) for labels in labelings]
    totals = [0.0] * len(labelings)
    # blocks of at least two columns, a last one-column block joining the one
    # before it: numpy would sum a single column pairwise, not in index order
    step = max(2, PAIRS_PER_BLOCK // n) if n else 2
    starts = list(range(0, n, step))
    if len(starts) > 1 and starts[-1] == n - 1:
        del starts[-1]
    for i0, i1 in zip(starts, [*starts[1:], n]):
        # transposed block: (x_j - x_i)^2 equals (x_i - x_j)^2 bit for bit
        dist = _squared_gaps(x[:, None, :], x[None, i0:i1, :])
        np.sqrt(dist, out=dist)
        for t, labels in enumerate(labelings):
            values = _block_silhouettes(dist, labels[i0:i1], members[t])
            # carry the running total across blocks in row order
            totals[t] = float(np.cumsum(np.append(totals[t], values))[-1])
        del dist  # freed before the next block is built
    return [total / n for total in totals]


def silhouette_score(
    points: Union[FeatureMatrix, np.ndarray], labels: np.ndarray
) -> float:
    """Mean silhouette value of one labeling (see ``silhouette_scores``)."""
    return silhouette_scores(points, [labels])[0]


@dataclass
class SelectKResult:
    k_best: int
    curve: list[tuple[int, float]]    # (k, silhouette)
    best_result: ClusteringResult


def select_k(
    points: Union[FeatureMatrix, np.ndarray], fits: Mapping[int, ClusteringResult]
) -> SelectKResult:
    """Pick the fitted k with the highest silhouette (ties go to the smaller k)."""
    x = _points_of(points)
    if not fits or min(fits) < 2:
        raise ConfigurationError(f"select_k needs k >= 2, got {sorted(fits)!r}")
    ks = sorted(fits)
    curve = list(zip(ks, silhouette_scores(x, [fits[k].labels for k in ks])))
    k_best = max(curve, key=lambda point: point[1])[0]  # first maximum: the smaller k
    return SelectKResult(k_best=k_best, curve=curve, best_result=fits[k_best])


# ---------------------------------------------------------------------------
# CSV exports


CLUSTERS_CSV_HEADER = ["cell_id", "cluster"]


def write_elbow_csv(result: ElbowResult, path: Union[str, Path]) -> None:
    write_csv(path, ["k", "sse"], [(k, fmt_num(v)) for k, v in result.points])


def write_silhouette_csv(curve: Sequence[tuple[int, float]], path: Union[str, Path]) -> None:
    write_csv(path, ["k", "silhouette"], [(k, fmt_num(v)) for k, v in curve])


def write_clusters_csv(row_ids: Sequence[str], labels: np.ndarray, path: Union[str, Path]) -> None:
    """One ``cell_id,cluster`` row per id; every id is checked before the file is opened."""
    write_csv(path, CLUSTERS_CSV_HEADER,
              [(check_cell_id(cid, str(path)), int(lab)) for cid, lab in zip(row_ids, labels)])


def read_clusters_csv(path: Union[str, Path]) -> dict[str, int]:
    out: dict[str, int] = {}
    for row_no, (cell_id, cluster) in read_csv(path, CLUSTERS_CSV_HEADER):
        try:
            out[cell_id] = int(cluster)
        except ValueError:
            raise DataError(f"{path}: row {row_no}: non-integer cluster {cluster!r}") from None
    return out
