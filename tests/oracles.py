"""Independent reference implementations used to freeze expected test values.

Everything here recomputes results from first principles, without touching
the production code paths it checks: naive pairwise silhouette (scalar
distances, and the full n x n matrix), exhaustive partition search for the
k-means optimum, squared distances from the whole n x k x d difference tensor,
k-means++ seeding that measures every point against every chosen centroid,
Lloyd's centroid update as one mask and one ``mean`` per cluster, silhouette
member sums as the last of every prefix sum, power iteration with deflation
for eigenpairs, the whole PCA fit behind ``pca_reduce``'s projection (its
components and eigenvalues, from ``jacobi_eigh``, to check against other
eigensolvers), direct capacity arithmetic for the channel model, a scan-by-scan replay of the
state machine's executable spec (``scan_step``/``apply_action``) for the
event-jumping ``run_cell``, the event walker it used before its prefix sums
were held between events, a saving-off run with its statistics and timeline
text for ``summarize``'s saving-off fold, a whole-file row loop for the
chunked ``traffic.csv`` reader, and the diurnal trace synthesis that wraps
every scan time and allocates a new array per step.

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

from trxsave.analytics import (N_COMPONENTS, ClusteringResult, _assign, _repair_empty, _sse,
                               jacobi_eigh)
from trxsave.cell_model import build_cell
from trxsave.errors import DataError
from trxsave.evaluator import CellStats
from trxsave import saving_engine
from trxsave.saving_engine import CellTimeline, SavingState, apply_action, scan_step
from trxsave.tables import fmt_num
from trxsave.traffic import _hourly_template

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
    rows = []
    for sample in trace.samples.tolist():
        demand = math.floor(sample + 0.5)
        occupied, blocked = place(demand, cell.enabled_tch_capacity)
        cell = dataclasses.replace(cell, occupied_tch=occupied)
        saving, action = scan_step(cell, saving, params)
        cell = apply_action(cell, action)
        after = cell.enabled_trx_count
        rows.append((demand, occupied, blocked, after, after * SLOTS_PER_TRX,
                     saving.off_counter, saving.on_counter, saving.delay_remaining, action))
    return {name: list(column) for name, column in zip(REPLAY_ARRAYS, zip(*rows))}


def saving_off_run(config, trace) -> CellTimeline:
    """A run with saving off, scan by scan: every TRX stays enabled and takes no
    action, so each scan blocks the calls above the cell's full capacity."""
    cap = capacity(config.num_trx, config.cch_slots)
    blocked = [place(math.floor(sample + 0.5), cap)[1] for sample in trace.samples.tolist()]
    n = len(blocked)
    return CellTimeline(cell_id=config.cell_id, offered=trace.samples,
                        blocked=np.array(blocked, np.int64),
                        active_trx=np.full(n, config.num_trx, np.int64),
                        actions=np.zeros(n, np.int64))


def timeline_stats(timeline: CellTimeline, warmup_scans: int = 0) -> CellStats:
    """One run's statistics over scans >= warmup_scans, read off its timeline
    one scan at a time."""
    active_ts = timeline.active_ts.tolist()[warmup_scans:]
    return CellStats(cell_id=timeline.cell_id, max_ts=max(active_ts),
                     mean_ts=math.fsum(active_ts) / len(active_ts),
                     blocked=sum(timeline.blocked.tolist()[warmup_scans:]),
                     trx_scans=sum(timeline.active_trx.tolist()[warmup_scans:]))


def timeline_csv_text(timeline: CellTimeline) -> str:
    """A timeline CSV, one value at a time: scan index, offered Erlang as
    ``fmt_num`` prints it, active slots."""
    return "scan,erlang,active_ts\n" + "".join(
        f"{i},{fmt_num(e)},{t}\n"
        for i, (e, t) in enumerate(zip(timeline.offered.tolist(), timeline.active_ts.tolist())))


def walk_counters(demand, config, params, actions) -> None:
    """The event walker ``run_cell`` used before its prefix sums were held between
    events: it fills a run's actions, event by event, looking each side's sums
    up per window and testing the hit it found. Its constants are read from
    ``saving_engine`` at each call, so a test that patches them patches both.

    Each window's counters go into two window-sized scratch buffers. Only each
    counter's value at the event scan, or at the window's last scan, is carried
    on; a counter that is not walked (delay window, no TRX to switch) keeps its
    carried value.

    Enabled TRXs always form the prefix 1..enabled, because disables pick the
    highest index and enables the lowest disabled one, so the enabled count is
    the whole cell state besides the counters.
    """
    decay, offset = saving_engine.DECAY_STEP, saving_engine.FIXED_OFFSET
    first_window, max_window = saving_engine.FIRST_WINDOW, saving_engine.MAX_WINDOW
    n = len(demand)
    num_trx, cch, h = config.num_trx, config.cch_slots, params.hysteresis
    on_target, off_target = params.trx_on_target, params.trx_off_target
    dtype = np.int32 if (n + 1) * decay < 2**31 else np.int64  # steps are +1 or -decay
    kept: dict[tuple[str, int], np.ndarray] = {}

    def prefix_sums(side: str, enabled: int) -> np.ndarray:
        """Counter steps of every scan on ``enabled`` TRXs, summed from scan 0;
        built when the walk first reaches that count."""
        sums = kept.get((side, enabled))
        if sums is None:
            cap = enabled * SLOTS_PER_TRX - cch
            if side == "on":  # idle < h, with idle = max(cap - demand, 0) and h >= 1
                up = demand > cap - h
            else:  # idle > h + 9
                up = demand < cap - h - offset
            sums = np.zeros(n + 1, dtype)
            np.cumsum(np.where(up, np.int8(1), np.int8(-decay)), dtype=dtype, out=sums[1:])
            kept[side, enabled] = sums
        return sums

    on_walk = np.empty(max_window + 1, dtype)
    off_walk = np.empty(max_window + 1, dtype)
    low = np.empty(max_window + 1, dtype)

    def first_fire(sums: np.ndarray, start: int, stop: int, counter: int, target: int,
                   walk: np.ndarray) -> int:
        """Walk a counter that holds ``counter`` before scan ``start`` over the scans
        [start, stop), leaving its value after scan ``start + i`` in ``walk[i + 1]``;
        the first scan where it reaches ``target``, or stop.

        C_t = max(C_{t-1} + x_t, 0) is P_t - min(-C, min_{start<=k<=t} P_k), where P
        sums the steps x from ``start`` (Lindley's recursion, in closed form).
        """
        k = stop - start
        np.subtract(sums[start + 1:stop + 1], sums[start], out=walk[1:k + 1])
        walk[0] = -counter
        np.minimum.accumulate(walk[:k + 1], out=low[:k + 1])
        np.subtract(walk[1:k + 1], low[1:k + 1], out=walk[1:k + 1])
        hit = walk[1:k + 1] >= target
        i = int(hit.argmax())
        return start + i if hit[i] else stop

    start, enabled, off_c, on_c, off_open = 0, num_trx, 0, 0, 0
    window = first_window
    while start < n:
        stop = min(start + window, n)
        on_at = off_at = stop
        on_walked = enabled < num_trx
        if on_walked:
            on_at = first_fire(prefix_sums("on", enabled), start, stop, on_c, on_target,
                               on_walk)
        # off-checks stay suspended until the delay window after a disable has run out
        off_from = max(start, off_open)
        off_walked = enabled > 1 and off_from < stop
        if off_walked:
            off_at = first_fire(prefix_sums("off", enabled), off_from, stop, off_c,
                                off_target, off_walk)
        at = min(on_at, off_at)
        if at == stop:  # no event: go on from the window's last scan
            at, window = stop - 1, min(2 * window, max_window)
        else:
            window = first_window
        if on_walked:
            on_c = int(on_walk[at - start + 1])
        if off_walked and off_from <= at:
            off_c = int(off_walk[at - off_from + 1])
        if at == on_at:  # enable first on a tie, which the disjoint triggers never make
            enabled += 1
            actions[at] = enabled
            on_c = 0
        elif at == off_at:
            actions[at] = -enabled
            enabled -= 1
            off_c = 0
            off_open = at + params.trx_off_delay + 1
        start = at + 1


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
                    tol: float = 1e-9) -> ClusteringResult:
    """Lloyd iterations whose centroid update is one boolean mask and one ``mean``
    per cluster. Assignment, empty-cluster repair and SSE are the production
    ones, so only the update differs from ``analytics.lloyd``."""
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    k = len(centroids)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        labels = _assign(x, centroids)
        centroids, labels = _repair_empty(x, centroids, labels)
        new_centroids = np.array([x[labels == j].mean(axis=0) for j in range(k)])
        shift = float(np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift < tol:
            break
    labels = _assign(x, centroids)
    centroids, labels = _repair_empty(x, centroids, labels)
    return ClusteringResult(k=k, labels=labels, centroids=centroids,
                            sse=_sse(x, centroids, labels), iterations=iterations)


def cumsum_member_sums(dist: np.ndarray, members) -> np.ndarray:
    """(block, k) member sums of each column of a distance block, each the last
    of its prefix sums down the member rows: strictly in index order."""
    return np.stack([np.cumsum(dist[m], axis=0)[-1] for m in members], axis=1)


def silhouette_block_widths(n: int, pairs_per_block: int) -> list[int]:
    """Column widths of the silhouette pass's blocks over n points: each block
    ``pairs_per_block // n`` columns (at least 2), the last one shorter, and a
    last block of one column joined to the one before it."""
    width = max(2, pairs_per_block // n)
    widths = [width] * (n // width) + ([n % width] if n % width else [])
    if len(widths) > 1 and widths[-1] == 1:
        widths[-2:] = [width + 1]
    return widths


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


@dataclasses.dataclass(frozen=True)
class PcaFit:
    means: np.ndarray
    components: np.ndarray  # n_features x n_components, orthonormal columns
    variances: np.ndarray  # the whole eigenvalue spectrum, descending
    total_variance: float  # trace of the covariance matrix
    projection: np.ndarray  # (values - means) @ components


def pca_fit(values: np.ndarray) -> PcaFit:
    """``pca_reduce``'s arithmetic, keeping every intermediate: the sample
    covariance's eigenpairs from ``jacobi_eigh`` (round-off negatives clamped
    to 0), each component's largest-magnitude entry made positive."""
    means = values.mean(axis=0)
    centered = values - means
    cov = (centered.T @ centered) / (len(values) - 1)
    eigenvalues, eigenvectors = jacobi_eigh(cov)
    components = eigenvectors[:, :N_COMPONENTS].copy()
    for j in range(N_COMPONENTS):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    return PcaFit(means, components, np.maximum(eigenvalues, 0.0), float(np.trace(cov)),
                  (values - means) @ components)


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


def diurnal_trace(spec) -> np.ndarray:
    """The samples of ``generate_diurnal_trace(spec)`` as it first computed them:
    each scan's hour of day wrapped with ``% 24.0``, both hourly marks wrapped
    with ``% 24``, and a new array for the noise, the clip at zero and the
    rounding. The hourly template is the production one, which this does not
    check (``diurnal_template_value`` does)."""
    period = spec.scan_period_s
    scans_per_day = int(round(86400 / period))
    template = _hourly_template(spec)

    t_hours = (np.arange(scans_per_day, dtype=np.float64) * period / 3600.0) % 24.0
    lo = np.floor(t_hours).astype(int) % 24
    hi = (lo + 1) % 24
    frac = t_hours - np.floor(t_hours)
    day = template[lo] * (1 - frac) + template[hi] * frac

    samples = np.tile(day, spec.days)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        samples = samples + rng.normal(0.0, spec.noise_sigma, size=len(samples))
    samples = np.maximum(samples, 0.0)
    return np.round(samples, 6)


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
        demand_max = int(np.iinfo(np.int32).max)
        if math.floor(val + 0.5) > demand_max:  # the call demand, rounded half up, is an int32
            raise DataError(f"{path}: row {row_no}: offered_erlang {fmt_num(val)} rounds to a "
                            f"call demand over {demand_max}")
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
