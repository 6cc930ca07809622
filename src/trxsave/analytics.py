"""From-scratch clustering pipeline.

Stages: z-score standardization, PCA onto the top 3 covariance eigenvectors
(cyclic Jacobi rotations), k-means++ seeding, Lloyd iterations, an SSE elbow
curve, and silhouette scoring for model selection.

Everything is deterministic: all randomness flows through
``numpy.random.default_rng`` seeded from explicit integers, restarts are
merged in index order, and ties break toward the lower index.

Silhouette uses the standard cohesion/separation form s = (b - a)/max(a, b),
where a is the mean distance to the point's own cluster and b the smallest
mean distance to another cluster, so +1 means well separated. Per-point means
are accumulated sequentially in row order, which keeps the score bit-for-bit
reproducible against a naive pairwise recomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

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


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n_points, n_centers) squared Euclidean distances."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.sum(diff * diff, axis=2)


def seeding_probabilities(points: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Selection weights for the next k-means++ centroid.

    Each point's weight is its squared distance to the nearest already-chosen
    centroid over the total; points coinciding with a centroid get 0.
    """
    d2 = squared_distances(points, chosen).min(axis=1)
    total = d2.sum()
    if total == 0.0:
        return np.full(len(points), 1.0 / len(points))  # degenerate: uniform fallback
    return d2 / total


def kmeanspp_seed(
    points: Union[FeatureMatrix, np.ndarray], k: int, seed: int
) -> np.ndarray:
    """Pick k initial centroids: first uniform, then squared-distance weighted."""
    x = _points_of(points)
    n = len(x)
    if k > n:
        raise DataError(f"k={k} exceeds {n} points")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    for j in range(1, k):
        probs = seeding_probabilities(x, centroids[:j])
        centroids[j] = x[rng.choice(n, p=probs)]
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
    """Reseed each empty cluster to the point farthest from its centroid."""
    k = len(centroids)
    taken: set[int] = set()
    for j in range(k):
        if np.any(labels == j):
            continue
        dist = squared_distances(x, centroids)[np.arange(len(x)), labels]
        for idx in taken:
            dist[idx] = -1.0
        far = int(np.argmax(dist))
        taken.add(far)
        centroids = centroids.copy()
        centroids[j] = x[far]
        labels = labels.copy()
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
    clusters are reseeded to the point farthest from its current centroid.
    """
    x = _points_of(points)
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    if centroids.ndim != 2 or centroids.shape[1] != x.shape[1] or len(centroids) == 0:
        raise DataError(f"bad init_centroids shape {centroids.shape}")
    k = len(centroids)

    sse_history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        labels = _assign(x, centroids)
        centroids, labels = _repair_empty(x, centroids, labels)
        sse_history.append(_sse(x, centroids, labels))
        new_centroids = centroids.copy()
        for j in range(k):
            members = x[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
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


def silhouette_score(
    points: Union[FeatureMatrix, np.ndarray], labels: np.ndarray
) -> float:
    """Mean silhouette value s = (b - a)/max(a, b) over all points.

    Singleton-cluster points score 0, as do points where both means vanish
    (coincident data). Requires at least 2 clusters, all non-empty.
    """
    x = _points_of(points)
    labels = np.asarray(labels)
    n = len(x)
    if len(labels) != n:
        raise DataError("labels length does not match points")
    k = int(labels.max()) + 1 if n else 0
    if k < 2:
        raise DataError(f"silhouette needs k >= 2, got {k}")
    counts = [int(np.sum(labels == j)) for j in range(k)]
    if any(c == 0 for c in counts):
        raise DataError("silhouette needs every cluster non-empty")

    diff = x[:, None, :] - x[None, :, :]
    dmat = np.sqrt(np.sum(diff * diff, axis=2))
    members = [np.flatnonzero(labels == j) for j in range(k)]

    total = 0.0
    for i in range(n):
        own = int(labels[i])
        if counts[own] == 1:
            continue  # singleton scores 0
        row = dmat[i]
        acc = 0.0
        for j in members[own]:
            acc += row[j]
        a = acc / (counts[own] - 1)
        b = math.inf
        for other in range(k):
            if other == own:
                continue
            acc = 0.0
            for j in members[other]:
                acc += row[j]
            mean_other = acc / counts[other]
            if mean_other < b:
                b = mean_other
        denom = a if a > b else b
        if denom > 0.0:
            total += (b - a) / denom
    return total / n


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
    curve = [(k, silhouette_score(x, fits[k].labels)) for k in sorted(fits)]
    k_best = max(curve, key=lambda point: point[1])[0]  # first maximum: the smaller k
    return SelectKResult(k_best=k_best, curve=curve, best_result=fits[k_best])


# ---------------------------------------------------------------------------
# CSV exports


CLUSTERS_CSV_HEADER = ["cell_id", "cluster"]


def write_elbow_csv(result: ElbowResult, dest: Union[str, Path, IO[str]]) -> None:
    write_csv(dest, ["k", "sse"], [(k, fmt_num(v)) for k, v in result.points])


def write_silhouette_csv(
    curve: Sequence[tuple[int, float]], dest: Union[str, Path, IO[str]]
) -> None:
    write_csv(dest, ["k", "silhouette"], [(k, fmt_num(v)) for k, v in curve])


def write_clusters_csv(
    row_ids: Sequence[str], labels: np.ndarray, dest: Union[str, Path, IO[str]]
) -> None:
    write_csv(dest, CLUSTERS_CSV_HEADER, [(cid, int(lab)) for cid, lab in zip(row_ids, labels)])


def read_clusters_csv(source: Union[str, Path, IO[str]]) -> dict[str, int]:
    out: dict[str, int] = {}
    for row_no, (cell_id, cluster) in read_csv(source, CLUSTERS_CSV_HEADER):
        try:
            out[cell_id] = int(cluster)
        except ValueError:
            raise DataError(f"row {row_no}: non-integer cluster {cluster!r}") from None
    return out
