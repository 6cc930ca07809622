"""Independent reference implementations used to freeze expected test values.

Everything here recomputes results from first principles, without touching
the production code paths it checks: naive pairwise silhouette (scalar
distances, and the full n x n matrix), exhaustive partition search for the
k-means optimum, squared distances from the whole n x k x d difference tensor,
k-means++ seeding that measures every point against every chosen centroid,
power iteration with deflation for eigenpairs, direct
capacity arithmetic for the channel model, a scan-by-scan replay of the
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
import io
import itertools
import math
from array import array

import numpy as np

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


def row_loop_traffic(source) -> dict[str, array]:
    """Samples per cell id of a traffic CSV path or text stream, one row at a time
    over the whole file; a bad row raises the ``DataError`` the reader must raise.
    A path is decoded one raw line at a time, so a byte that is not UTF-8 is
    named only after every row before it has been read."""
    header_text = "cell_id,scan_index,offered_erlang"
    lines = iter(source) if isinstance(source, io.IOBase) else _decoded_lines(source)
    header = next(lines, "").rstrip("\n")
    if header.split(",") != header_text.split(","):
        raise DataError(f"traffic CSV header mismatch: expected {header_text}, got {header!r}")
    samples: dict[str, array] = {}
    cid, block = None, array("d")
    for row_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"row {row_no}: expected 3 fields, got {len(parts)}")
        row_cid, idx_s, val_s = parts
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError as exc:
            raise DataError(f"row {row_no}: non-numeric field ({exc})") from None
        if row_cid != cid:
            if row_cid in samples:
                raise DataError(f"row {row_no}: cell {row_cid!r} again after another "
                                f"cell; each cell's rows must form one contiguous block")
            cid, block = row_cid, array("d")
            samples[cid] = block
        if idx != len(block):
            raise DataError(f"row {row_no}: cell {cid!r} scan_index {idx} not contiguous "
                            f"(expected {len(block)})")
        if not math.isfinite(val) or val < 0:
            raise DataError(f"row {row_no}: offered_erlang must be finite and >= 0")
        block.append(val)
    return samples


def _decoded_lines(path):
    """The header, then each row, as a text stream splits them, decoding one raw
    line at a time; the first raw line that is not UTF-8 raises a ``DataError``
    naming the row a text stream would give it. A last row without a newline is
    read as if it had one, as the reader reads it."""
    with open(path, "rb") as raw:
        read = 0  # lines given so far, the header as line 0
        for raw_line in raw:
            if read and not raw_line.endswith(b"\n"):
                raw_line += b"\n"
            try:
                text = raw_line.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = "header: " if read == 0 else f"row {read}: "
                raise DataError(f"{path}: {where}not UTF-8 text ({exc.reason})") from None
            for line in io.StringIO(text, newline=""):
                read += 1
                yield line
