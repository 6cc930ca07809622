"""From-scratch clustering pipeline.

Stages: z-score standardization, PCA onto the top 3 covariance eigenvectors
(cyclic Jacobi rotations), k-means++ seeding, Lloyd iterations, an SSE elbow
curve, and silhouette scoring for model selection.

The stages pass plain float arrays, one row per cell: ``kpi_feature_matrix``
stacks the KPI records into an (n, 5) array, ``standardize`` returns its
z-scores and ``pca_reduce`` their (n, 3) projection, which k-means and the
silhouette pass read. The caller keeps the cell ids in the same row order.

Everything is deterministic: all randomness flows through
``numpy.random.default_rng`` seeded from explicit integers, and ties break
toward the lower index. The k-means restarts and the silhouette blocks run
on every usable CPU (``trxsave.parts``) without changing a bit: each restart
seeds from its own index, and the restarts are merged in index order across
parts (lowest SSE, ties to the lowest restart).

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
symmetric bit for bit. Each part holds one block and one scratch buffer of
``PIECE_ROWS`` rows, allocated once and cut to each block's width from the
front, so every block is C-contiguous. A block is filled in place
(``_distance_block``): a piece of its rows takes the first feature's
squares, and each later feature's squares are built in the scratch buffer
and added to it, in ``_squared_gaps``' order. Each point's sum over a
cluster's members is ``np.add.reduce`` down the member rows, which
``_member_sums`` takes into the scratch buffer a piece at a time, the running
sum carried as its row 0: on a C-contiguous array of two or more columns
numpy adds the rows one after another in index order, but a one-column
array is summed pairwise, so every block is at least two columns wide. The
parts return their blocks' values, and the stage process carries each
running total across the blocks in point order; the score is therefore
bit-for-bit the naive pairwise one at any CPU count.

Lloyd's centroid update sorts the points by label (stable, so each cluster
keeps index order) and reduces each cluster's contiguous slice with the same
``np.add.reduce`` and divide as ``x[labels == j].mean(axis=0)``, bit for bit.

The caller keeps each function's preconditions: ``cli.cluster`` checks
``--k``, ``--k-min``/``--k-max`` and ``--restarts`` once, before any fit.
Only the checks a run can reach stay here: ``standardize``'s two, and
``lloyd``'s k <= n, the guard that ends ``_repair_empty``'s loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import parts
from .cell_model import check_cell_id
from .errors import DataError
from .tables import CLUSTERS_CSV_HEADER, KpiRecord, fmt_num, write_csv

FEATURE_COLUMNS = [
    "tch_traffic_erl",
    "dl_edge_throughput_kbps",
    "pdch_congestion_pct",
    "preempt_pdch",
    "ts_count",
]

N_COMPONENTS = 3  # columns of a reduced matrix


def kpi_feature_matrix(records: Sequence[KpiRecord]) -> np.ndarray:
    """The (n, 5) float array of the records' features, in ``FEATURE_COLUMNS`` order."""
    rows = [[getattr(r, c) for c in FEATURE_COLUMNS] for r in records]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_COLUMNS))


def standardize(values: np.ndarray) -> np.ndarray:
    """Z-score each column with the population std; constant columns map to 0.

    Finite values can still overflow the mean or std (three values of 1e308);
    such a column is a ``DataError`` that names it. The caller passes the
    ``FEATURE_COLUMNS`` of ``kpi_feature_matrix``.
    """
    if len(values) < 2:
        raise DataError(f"standardize needs at least 2 rows, got {len(values)}")
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.mean(axis=0)
        stds = values.std(axis=0)  # population, ddof=0
    if not np.isfinite(stds).all():  # an infinite mean makes its std NaN
        name = FEATURE_COLUMNS[int(np.flatnonzero(~np.isfinite(stds))[0])]
        raise DataError(f"feature {name}: mean or standard deviation overflows a float64")
    constant = stds == 0.0
    safe = np.where(constant, 1.0, stds)
    out = (values - means) / safe
    out[:, constant] = 0.0
    return out


# ---------------------------------------------------------------------------
# PCA


JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(matrix: np.ndarray):
    """Eigen-decompose a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair until the largest off-diagonal
    magnitude drops below ``JACOBI_TOL``, for at most ``JACOBI_MAX_SWEEPS``
    sweeps. Returns (eigenvalues, eigenvectors) sorted by descending
    eigenvalue; eigenvectors are the columns.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            row_max = np.max(np.abs(a[p, p + 1:]))
            if row_max > off:
                off = row_max
        if off < JACOBI_TOL:
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


def pca_reduce(values: np.ndarray) -> np.ndarray:
    """Project standardized ``values`` (at least 2 rows and ``N_COMPONENTS``
    columns) onto the top ``N_COMPONENTS`` principal components of their
    sample covariance.

    Sign convention: each component's largest-magnitude entry is positive.
    """
    means = values.mean(axis=0)
    centered = values - means
    cov = (centered.T @ centered) / (len(values) - 1)
    components = jacobi_eigh(cov)[1][:, :N_COMPONENTS].copy()
    for j in range(N_COMPONENTS):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    return (values - means) @ components


# ---------------------------------------------------------------------------
# K-means


@dataclass
class ClusteringResult:
    k: int
    labels: np.ndarray
    centroids: np.ndarray
    sse: float
    iterations: int


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


def kmeanspp_seed(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Pick 1 <= k <= len(x) initial centroids: first uniform, then squared-distance weighted.

    The distance to the nearest chosen centroid is kept as a running minimum,
    updated against each new centroid only; ``min`` is exact, so the weights
    equal those from measuring every point against every chosen centroid.
    """
    n = len(x)
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


# Lloyd's iterations stop once no centroid moves by TOL, or after MAX_ITER
MAX_ITER = 300
TOL = 1e-9


def lloyd(x: np.ndarray, init_centroids: np.ndarray) -> ClusteringResult:
    """Alternate assignment and centroid updates until centroids stop moving.

    Nearest-centroid ties break toward the lower centroid index; empty
    clusters are reseeded to the points farthest from their own centroids, so
    every returned cluster is non-empty. ``init_centroids`` is a (k, features)
    array; k > n is rejected, since ``_repair_empty`` would then never end.
    """
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    k = len(centroids)
    if k > len(x):
        raise DataError(f"k={k} exceeds {len(x)} points")

    iterations = 0
    for _ in range(MAX_ITER):
        iterations += 1
        labels = _assign(x, centroids)
        centroids, labels = _repair_empty(x, centroids, labels)
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
        if shift < TOL:
            break

    labels = _assign(x, centroids)
    centroids, labels = _repair_empty(x, centroids, labels)
    return ClusteringResult(
        k=k,
        labels=labels,
        centroids=centroids,
        sse=_sse(x, centroids, labels),
        iterations=iterations,
    )


# one restart's outcome: (sse, restart index r, fit)
_Restart = tuple[float, int, ClusteringResult]


def _best_restart(x: np.ndarray, k: int, seed: int, restarts: Iterable[int]) -> _Restart:
    """The best k-means++ restart of k among ``restarts`` (see ``_best``)."""
    def fits() -> Iterator[_Restart]:
        for r in restarts:
            fit = lloyd(x, kmeanspp_seed(x, k, parts.child_seed(seed, k, r)))
            yield fit.sse, r, fit

    return _best(fits())


def _best(restarts: Iterable[_Restart]) -> _Restart:
    """The restart of lowest SSE, ties going to the lowest restart index."""
    return min(restarts, key=lambda restart: restart[:2])


def run_kmeans(points: np.ndarray, k: int, seed: int = 0, restarts: int = 10) -> ClusteringResult:
    """Best of ``restarts`` (>= 1) k-means++ runs by SSE (ties keep the earliest)."""
    return _best_restart(points, k, seed, range(restarts))[2]


# ---------------------------------------------------------------------------
# Model selection


@dataclass
class ElbowResult:
    points: list[tuple[int, float]]   # (k, best sse)
    suggested_knee: Optional[int]


def fit_k_range(
    x: np.ndarray,
    ks: Iterable[int],
    restarts: int = 10,
    seed: int = 0,
) -> dict[int, ClusteringResult]:
    """Best-of-restarts k-means for each distinct k, keyed by k in ascending order.

    This is the one place a k range is fitted: the elbow curve, silhouette
    selection and a pinned k all read their results from this table. The
    caller keeps every k in [1, len(x)] and ``restarts`` >= 1.

    The restarts are dealt to one part per usable CPU (at most one per restart):
    part p fits the restarts r = p, p + P, ... of every k in its own process
    (``parts.run_parts``) and returns its best per k. Each restart draws from
    its own (seed, k, r) seed, and the best of the parts' bests is the best of
    all restarts, so the table is that of one process. If any part fails, the
    range is fitted again as one part, which raises the one-process error.
    """
    ordered = sorted(set(int(k) for k in ks))

    def fit_part(rs: range) -> dict[int, _Restart]:
        return {k: _best_restart(x, k, seed, rs) for k in ordered}

    def fit(split: Sequence[range]) -> dict[int, ClusteringResult]:
        done = parts.run_parts(fit_part, split)
        return {k: _best(part[k] for part in done)[2] for k in ordered}

    count = min(parts.cpus(), restarts)
    return parts.serial_on_failure(fit, [range(p, restarts, count) for p in range(count)],
                                   range(restarts))


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


# Distances one silhouette block holds at once: 2^18 float64, 2 MiB. A part
# holds one block and its scratch rows, so the pass peaks at 1.2-1.3 blocks
# traced (2.5-2.8 MB at n = 3,000, two to nine labelings) instead of the
# whole n x n matrix, and that peak stops growing with n once n >= 512. On
# 2,000 demo-fleet cells (2 vCPUs, 14 alternating runs each) ``cluster``
# peaked at 41.7, 42.3 and 43.4 MB RSS with 2^16, 2^17 and 2^18, in 0.50,
# 0.45 and 0.44 s (quartile spread 0.07-0.12 s); the pass alone took 102, 69
# and 52 ms, as a smaller block costs more numpy calls per distance. 2^18 is
# the smallest that is not slower.
PAIRS_PER_BLOCK = 1 << 18

# Rows of the scratch buffer a silhouette part holds beside its block: each
# feature's squares after the first reach the block through it, and each
# cluster's member rows are summed through it (see ``_member_sums``). At 2^18
# pairs on the same 2,000 cells, 64, 128 and 256 rows peaked at 43.2, 43.3
# and 43.5 MB RSS, and the pass took 62, 53 and 51 ms.
PIECE_ROWS = 128


def _distance_block(x: np.ndarray, i0: int, dist: np.ndarray, scratch: np.ndarray) -> None:
    """Fill ``dist`` (n, w) in place: column i holds every point's distance to point i0 + i.

    The additions are ``_squared_gaps``': a row piece of ``dist`` takes the first
    feature's squares, and each later feature's squares, left to right, are
    built in ``scratch`` (at most as many rows, the same width) and added to
    it, so no second block is built. (x_j - x_i)^2 equals (x_i - x_j)^2 bit
    for bit, so the block is the transposed rows i0.. of the distance matrix.
    """
    cols = x[i0:i0 + dist.shape[1]].T
    for r0 in range(0, len(x), len(scratch)):
        rows = x[r0:r0 + len(scratch)]
        out = dist[r0:r0 + len(rows)]
        gap = scratch[:len(rows)]
        np.subtract(rows[:, :1], cols[0], out=out)
        out *= out
        for j in range(1, x.shape[1]):
            np.subtract(rows[:, j:j + 1], cols[j], out=gap)
            gap *= gap
            out += gap
        np.sqrt(out, out=out)


def _member_sums(dist: np.ndarray, members: Sequence[np.ndarray],
                 scratch: np.ndarray) -> np.ndarray:
    """(block, k) sums of each column of ``dist`` over each cluster's member rows.

    The member rows are taken into ``scratch`` (two or more rows, the width of
    ``dist``) a piece at a time: the first piece fills it, and each later
    piece follows the running sum, carried as row 0. numpy reduces the first
    axis of a C-contiguous array row after row, in index order, as long as it
    has two or more columns (one column is summed pairwise), so each sum makes
    the same additions as a scalar ``acc += d[j]`` loop over the members.
    """
    sums = np.empty((len(members), dist.shape[1]))
    for total, m in zip(sums, members):
        # mode="clip" takes straight into ``out`` (mode="raise" would buffer
        # it); every index is a row of ``dist``
        first = m[:len(scratch)]
        np.take(dist, first, axis=0, out=scratch[:len(first)], mode="clip")
        np.add.reduce(scratch[:len(first)], axis=0, out=total)
        for a in range(len(scratch), len(m), len(scratch) - 1):
            piece = m[a:a + len(scratch) - 1]
            scratch[0] = total
            np.take(dist, piece, axis=0, out=scratch[1:1 + len(piece)], mode="clip")
            np.add.reduce(scratch[:1 + len(piece)], axis=0, out=total)
    return sums.T


def _block_silhouettes(
    dist: np.ndarray, own: np.ndarray, members: Sequence[np.ndarray], scratch: np.ndarray
) -> np.ndarray:
    """Silhouette value of each column of a distance block (0 for singletons and a = b = 0).

    ``dist`` is n x block: column i holds every point's distance to block point i.
    The block must be at least two columns wide (see ``_member_sums``).
    """
    counts = np.array([len(m) for m in members])
    sums = _member_sums(dist, members, scratch)
    rows = np.arange(len(own))
    own_size = counts[own] - 1
    a = sums[rows, own] / np.maximum(own_size, 1)
    means = sums / counts
    means[rows, own] = math.inf
    b = means.min(axis=1)
    denom = np.where(a > b, a, b)
    keep = (own_size > 0) & (denom > 0.0)
    return np.divide(b - a, denom, out=np.zeros(len(own)), where=keep)


def silhouette_scores(x: np.ndarray, labelings: Sequence[np.ndarray]) -> list[float]:
    """Mean silhouette value s = (b - a)/max(a, b) over all points, per labeling.

    One pass over row blocks of the distance matrix serves every labeling.
    Singleton-cluster points score 0, as do points where both means vanish
    (coincident data). The caller keeps each labeling one label per point, in
    k >= 2 clusters 0..k-1, all non-empty, as ``lloyd``'s fits are.

    The blocks are cut into one contiguous run per usable CPU, each run scored
    in its own process (``parts.run_parts``) one block at a time; this process
    then carries each labeling's total across the blocks' values in point
    order, so the scores are those of one process. If any run fails, the
    blocks are scored again as one run, which raises the one-process error.
    """
    n = len(x)
    labelings = [np.asarray(labels) for labels in labelings]
    members = [[np.flatnonzero(labels == j) for j in range(labels.max() + 1)]
               for labels in labelings]
    # blocks of at least two columns, a last one-column block joining the one
    # before it: numpy would sum a single column pairwise, not in index order
    step = max(2, PAIRS_PER_BLOCK // n)
    starts = list(range(0, n, step))
    if len(starts) > 1 and starts[-1] == n - 1:
        del starts[-1]
    blocks = list(zip(starts, [*starts[1:], n]))
    piece_rows = min(PIECE_ROWS, n)

    def score_part(run: range) -> list[list[np.ndarray]]:
        """Per block of ``run``, each labeling's silhouette values of the block points."""
        mine = blocks[run.start:run.stop]
        widest = max(i1 - i0 for i0, i1 in mine)
        # one block and one scratch buffer for the run, each block's views cut
        # from their fronts, so a narrower block's views are C-contiguous too
        block_buffer = np.empty(n * widest)
        scratch_buffer = np.empty(piece_rows * widest)
        values = []
        for i0, i1 in mine:
            dist = block_buffer[:n * (i1 - i0)].reshape(n, i1 - i0)
            scratch = scratch_buffer[:piece_rows * (i1 - i0)].reshape(piece_rows, i1 - i0)
            _distance_block(x, i0, dist, scratch)
            values.append([_block_silhouettes(dist, labels[i0:i1], members[t], scratch)
                           for t, labels in enumerate(labelings)])
        return values

    def score(runs: Sequence[range]) -> list[float]:
        totals = [0.0] * len(labelings)
        for part in parts.run_parts(score_part, runs):
            for block in part:
                for t, values in enumerate(block):
                    # carry the running total across blocks in row order
                    totals[t] = float(np.cumsum(np.append(totals[t], values))[-1])
        return [total / n for total in totals]

    return parts.serial_on_failure(score, parts.ranges(len(blocks), parts.cpus()),
                                   range(len(blocks)))


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette value of one labeling (see ``silhouette_scores``)."""
    return silhouette_scores(points, [labels])[0]


@dataclass
class SelectKResult:
    curve: list[tuple[int, float]]    # (k, silhouette)
    best_result: ClusteringResult


def select_k(points: np.ndarray, fits: Mapping[int, ClusteringResult]) -> SelectKResult:
    """The fitted k (one or more, each >= 2) of highest silhouette; ties go to the smaller k."""
    ks = sorted(fits)
    curve = list(zip(ks, silhouette_scores(points, [fits[k].labels for k in ks])))
    k_best = max(curve, key=lambda point: point[1])[0]  # first maximum: the smaller k
    return SelectKResult(curve=curve, best_result=fits[k_best])


# ---------------------------------------------------------------------------
# CSV exports


def write_elbow_csv(result: ElbowResult, path: Union[str, Path]) -> None:
    write_csv(path, ["k", "sse"], [(k, fmt_num(v)) for k, v in result.points])


def write_silhouette_csv(curve: Sequence[tuple[int, float]], path: Union[str, Path]) -> None:
    write_csv(path, ["k", "silhouette"], [(k, fmt_num(v)) for k, v in curve])


def write_clusters_csv(row_ids: Sequence[str], labels: np.ndarray, path: Union[str, Path]) -> None:
    """One ``cell_id,cluster`` row per id; every id is checked before the file is opened."""
    write_csv(path, CLUSTERS_CSV_HEADER,
              [(check_cell_id(cid, str(path)), int(lab)) for cid, lab in zip(row_ids, labels)])
