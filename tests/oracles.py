"""Independent reference implementations used to freeze expected test values.

Everything here recomputes results from first principles, without touching
the production code paths it checks: naive pairwise silhouette (scalar
distances, and the full n x n matrix), exhaustive partition search for the
k-means optimum, squared distances from the whole n x k x d difference tensor,
k-means++ seeding that measures every point against every chosen centroid,
Lloyd's centroid update as one mask and one ``mean`` per cluster, silhouette
member sums as the last of every prefix sum, power iteration with deflation
for eigenpairs, direct capacity arithmetic for the channel model, a scan-by-scan replay of the
state machine's executable spec (``scan_step``/``apply_action``) for the
event-jumping ``run_cell``, and a whole-file row loop for the chunked
``traffic.csv`` reader.

A ``CellTimeline`` keeps only what an output reads. The counters, the delay
window, the demand and the occupancy per scan live only in the replay, so the
counter and delay-window contract is checked on it, and ``run_cell`` is
checked against it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from array import array

import numpy as np

from trxsave.analytics import ClusteringResult, _assign, _repair_empty, _sse
from trxsave.cell_model import build_cell
from trxsave.errors import DataError
from trxsave.saving_engine import SavingState, apply_action, scan_step

SLOTS_PER_TRX = 8


def capacity(num_enabled_trx: int, cch_slots: int) -> int:
    return num_enabled_trx * SLOTS_PER_TRX - cch_slots


def place(demand: int, cap: int) -> tuple[int, int]:
    """(occupied, blocked) for a stateless placement."""
    occupied = min(demand, cap)
    return occupied, demand - occupied


REPLAY_ARRAYS = ("demand", "occupied", "blocked", "active_trx", "active_ts",
                 "off_counter", "on_counter", "delay_remaining", "actions")


def replay_with_step_functions(config, params, trace) -> dict[str, list[int]]:
    """Drive scan_step/apply_action one scan at a time; each per-scan array, by
    name, as a list: the CellTimeline arrays (blocked, active_trx, active_ts,
    actions) and the spec's own (demand, occupied, both counters,
    delay_remaining).

    Calls are placed by capacity arithmetic: the step functions read only the
    call count.
    """
    cell = build_cell(config)
    saving = SavingState()
    before = cell.enabled_trx_count
    rows = []
    for sample in trace.samples.tolist():
        demand = math.floor(sample + 0.5)
        occupied, blocked = place(demand, cell.enabled_tch_capacity)
        cell = dataclasses.replace(cell, occupied_tch=occupied)
        saving, action = scan_step(cell, saving, params)
        cell = apply_action(cell, action)
        after = cell.enabled_trx_count
        rows.append((demand, occupied, blocked, after, after * SLOTS_PER_TRX,
                     saving.off_counter, saving.on_counter, saving.delay_remaining,
                     action.trx if after > before else -action.trx if after < before else 0))
        before = after
    return {name: list(column) for name, column in zip(REPLAY_ARRAYS, zip(*rows))}


def brute_silhouette(x: np.ndarray, labels) -> float:
    """Naive O(n^2) silhouette with sequential sums in index order."""
    n = len(x)
    k = int(max(labels)) + 1
    members = [[j for j in range(n) if labels[j] == c] for c in range(k)]

    def dist(i: int, j: int) -> float:
        s = 0.0
        for f in range(x.shape[1]):
            d = float(x[i, f]) - float(x[j, f])
            s += d * d
        return math.sqrt(s)

    total = 0.0
    for i in range(n):
        own = int(labels[i])
        if len(members[own]) == 1:
            continue
        acc = 0.0
        for j in members[own]:
            acc += dist(i, j)
        a = acc / (len(members[own]) - 1)
        b = math.inf
        for c in range(k):
            if c == own:
                continue
            acc = 0.0
            for j in members[c]:
                acc += dist(i, j)
            mean_c = acc / len(members[c])
            if mean_c < b:
                b = mean_c
        denom = a if a > b else b
        if denom > 0.0:
            total += (b - a) / denom
    return total / n


def pairwise_silhouette(x: np.ndarray, labels) -> float:
    """Silhouette from the whole n x n distance matrix, member sums in index order.

    The distances come from the whole n x n x 3 difference tensor at once; each
    point's per-cluster sums are scalar loops over that point's row.
    """
    labels = np.asarray(labels)
    n = len(x)
    k = int(labels.max()) + 1
    counts = [int(np.sum(labels == j)) for j in range(k)]
    diff = x[:, None, :] - x[None, :, :]
    dmat = np.sqrt(np.sum(diff * diff, axis=2))
    members = [np.flatnonzero(labels == j) for j in range(k)]

    total = 0.0
    for i in range(n):
        own = int(labels[i])
        if counts[own] == 1:
            continue
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


def exhaustive_best_sse(x: np.ndarray, k: int) -> float:
    """Global k-means optimum by enumerating every label assignment.

    Centroids are the member means, which is optimal for a fixed partition;
    assignments leaving a cluster empty are allowed (they equal a smaller k).
    Only feasible for ~10 points.
    """
    n = len(x)
    best = math.inf
    for labeling in itertools.product(range(k), repeat=n):
        sse = 0.0
        for c in range(k):
            members = [i for i in range(n) if labeling[i] == c]
            if not members:
                continue
            centroid = x[members].mean(axis=0)
            diff = x[members] - centroid
            sse += float(np.sum(diff * diff))
        if sse < best:
            best = sse
    return best


def tensor_squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n_points, n_centers) squared distances summed over the n x k x d difference tensor."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.sum(diff * diff, axis=2)


def rescan_kmeanspp_seed(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding that measures every point against every chosen centroid at each step.

    Draws from the same generator in the same order as the production seeding:
    one uniform pick, then one weighted pick per further centroid, with
    uniform weights when every point coincides with a chosen centroid.
    """
    n = len(x)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    for j in range(1, k):
        d2 = tensor_squared_distances(x, centroids[:j]).min(axis=1)
        total = d2.sum()
        probs = np.full(n, 1.0 / n) if total == 0.0 else d2 / total
        centroids[j] = x[rng.choice(n, p=probs)]
    return centroids


def mask_mean_lloyd(x: np.ndarray, init_centroids: np.ndarray, max_iter: int = 300,
                    tol: float = 1e-9, seed: int = 0) -> ClusteringResult:
    """Lloyd iterations whose centroid update is one boolean mask and one ``mean``
    per cluster. Assignment, empty-cluster repair and SSE are the production
    ones, so only the update differs from ``analytics.lloyd``."""
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    k = len(centroids)
    sse_history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        labels = _assign(x, centroids)
        centroids, labels = _repair_empty(x, centroids, labels)
        sse_history.append(_sse(x, centroids, labels))
        new_centroids = np.array([x[labels == j].mean(axis=0) for j in range(k)])
        shift = float(np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift < tol:
            break
    labels = _assign(x, centroids)
    centroids, labels = _repair_empty(x, centroids, labels)
    return ClusteringResult(k=k, labels=labels, centroids=centroids,
                            sse=_sse(x, centroids, labels), iterations=iterations,
                            seed=seed, sse_history=sse_history)


def cumsum_member_sums(dist: np.ndarray, members) -> np.ndarray:
    """(block, k) member sums of each column of a distance block, each the last
    of its prefix sums down the member rows: strictly in index order."""
    return np.stack([np.cumsum(dist[m], axis=0)[-1] for m in members], axis=1)


def power_iteration_eigs(matrix: np.ndarray, n_components: int,
                         iters: int = 500_000, tol: float = 1e-12):
    """Top eigenpairs of a symmetric PSD matrix via power iteration.

    Later components stay orthogonal to the found ones at every step instead
    of deflating the matrix, and iteration stops on the eigenpair residual,
    so each pair is accurate to ~tol even for nearby eigenvalues.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max()))
    values = []
    vectors: list[np.ndarray] = []
    for comp in range(n_components):
        v = np.ones(n) + 0.1 * np.arange(n)  # deterministic, unlikely orthogonal start
        for prev in vectors:
            v -= (prev @ v) * prev
        v /= np.linalg.norm(v)
        lam = float(v @ a @ v)
        for _ in range(iters):
            w = a @ v
            for prev in vectors:
                w -= (prev @ w) * prev
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break  # eigenvalue 0 in the remaining subspace
            w /= norm
            lam = float(w @ a @ w)
            residual = np.linalg.norm(a @ w - lam * w - sum(((p @ (a @ w)) * p for p in vectors), np.zeros(n)))
            v = w
            if residual < tol * scale:
                break
        values.append(lam)
        vectors.append(v)
    return np.array(values), np.array(vectors).T


def diurnal_template_value(base: float, peak: float, peak_hour: float,
                           trough_hour: float, hour: float) -> float:
    """Direct raised-cosine evaluation at one hour-of-day."""
    rise = (peak_hour - trough_hour) % 24.0
    d = (hour - trough_hour) % 24.0
    amp = peak - base
    if d <= rise:
        return base + amp * (1 - math.cos(math.pi * d / rise)) / 2
    f = (d - rise) / (24.0 - rise)
    return base + amp * (1 + math.cos(math.pi * f)) / 2


def gaussian_blobs(centers, points_per_blob: int, scale: float, seed: int) -> np.ndarray:
    """Seeded isotropic Gaussian blobs around the given centers."""
    rng = np.random.default_rng(seed)
    chunks = [
        np.asarray(c, dtype=np.float64) + rng.normal(scale=scale, size=(points_per_blob, len(c)))
        for c in centers
    ]
    return np.vstack(chunks)


def row_loop_traffic(path) -> dict[str, array]:
    """Samples per cell id of a traffic CSV file, one row at a time over the whole
    file; a bad row raises the ``DataError`` the reader must raise, which
    starts with the path. The file is
    decoded one raw line at a time, so a byte that is not UTF-8 is named only
    after every row before it has been read. A cell id is checked where its
    block starts: split on commas and at line ends, an id can still be empty
    or hold '"', '/' or NUL, which are named in that order."""
    header_text = "cell_id,scan_index,offered_erlang"
    lines = _decoded_lines(path)
    header = next(lines, "")
    if header.split(",") != header_text.split(","):
        raise DataError(f"{path}: traffic CSV header mismatch: expected {header_text}, "
                        f"got {header!r}")
    samples: dict[str, array] = {}
    cid, block = None, array("d")
    for row_no, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}: row {row_no}: expected 3 fields, got {len(parts)}")
        row_cid, idx_s, val_s = parts
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no}: non-numeric field ({exc})") from None
        if row_cid != cid:
            if row_cid in samples:
                raise DataError(f"{path}: row {row_no}: cell {row_cid!r} again after another "
                                f"cell; each cell's rows must form one contiguous block")
            if row_cid == "":
                raise DataError(f"{path}: row {row_no}: empty cell_id")
            for bad in ('"', "/", "\0"):
                if bad in row_cid:
                    raise DataError(f"{path}: row {row_no}: cell_id {row_cid!r} "
                                    f"may not hold {bad!r}")
            cid, block = row_cid, array("d")
            samples[cid] = block
        if idx != len(block):
            raise DataError(f"{path}: row {row_no}: cell {cid!r} scan_index {idx} not contiguous "
                            f"(expected {len(block)})")
        if not math.isfinite(val) or val < 0:
            raise DataError(f"{path}: row {row_no}: offered_erlang must be finite and >= 0")
        block.append(val)
    return samples


def _decoded_lines(path):
    """The header, then each row, split at ``\\n``, ``\\r\\n`` or a bare ``\\r`` and
    without its line end, decoding one line at a time, with its end, as its bytes
    stand in the file; the first line that is not UTF-8 raises a ``DataError``
    naming its row."""
    with open(path, "rb") as raw:
        read = 0  # lines given so far, the header as line 0
        for raw_line in raw:  # ends at \n, so a \r\n stays whole
            for line in raw_line.splitlines(keepends=True):
                try:
                    text = line.decode("utf-8").rstrip("\r\n")
                except UnicodeDecodeError as exc:
                    where = "header: " if read == 0 else f"row {read}: "
                    raise DataError(f"{path}: {where}not UTF-8 text ({exc.reason})") from None
                read += 1
                yield text
