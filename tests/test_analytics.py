import math
import warnings

import numpy as np
import pytest

from trxsave import analytics, parts
from trxsave.analytics import (
    elbow_curve,
    fit_k_range,
    jacobi_eigh,
    kmeanspp_seed,
    kpi_feature_matrix,
    lloyd,
    pca_reduce,
    run_kmeans,
    seeding_probabilities,
    select_k,
    silhouette_score,
    silhouette_scores,
    squared_distances,
    standardize,
    write_clusters_csv,
    write_curve_csv,
)
from trxsave.errors import DataError
from trxsave.parts import child_seed
from trxsave.tables import ingest_kpi_csv, read_clusters_csv

import oracles

from test_traffic import sample_kpi_csv, text_file, traced_peak


class TestStandardize:
    def test_two_point_column(self):
        assert list(standardize(np.array([[1.0], [3.0]]))[:, 0]) == [-1.0, 1.0]

    def test_constant_column_zeroed(self):
        std = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.all(std[:, 0] == 0.0)
        assert std[:, 1] == pytest.approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])

    def test_dataset_sample_columns_have_unit_moments(self, tmp_path):
        records = ingest_kpi_csv(sample_kpi_csv(tmp_path))
        std = standardize(kpi_feature_matrix(records))
        # recompute moments independently
        for col in range(std.shape[1]):
            vals = std[:, col]
            mean = math.fsum(vals) / len(vals)
            var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
            assert abs(mean) < 1e-9
            assert abs(math.sqrt(var) - 1.0) < 1e-9

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            standardize(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("values,name", [
        ([[1.0, 1e308, 2.0, 3.0, 24.0]] * 3, "dl_edge_throughput_kbps"),  # the mean overflows
        # only the squares overflow
        ([[1, 130, 0.1, 1e200, 24], [2, 131, 0.2, -1e200, 24]], "preempt_pdch"),
    ], ids=["kpi_mean", "kpi_squares"])
    def test_overflowing_column_named_without_warnings(self, values, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            with pytest.raises(DataError, match=f"^feature {name}: mean or standard "
                                                "deviation overflows a float64$"):
                standardize(np.array(values))


class TestJacobi:
    def test_matches_numpy_eigh_on_random_symmetric(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 6):
            b = rng.normal(size=(n, n))
            sym = b @ b.T
            vals, vecs = jacobi_eigh(sym)
            ref = np.sort(np.linalg.eigvalsh(sym))[::-1]
            assert np.allclose(vals, ref, atol=1e-10)
            # eigenvector property: A v = lambda v
            for j in range(n):
                assert np.allclose(sym @ vecs[:, j], vals[j] * vecs[:, j], atol=1e-8)


class TestPca:
    """The components and eigenvalues come from ``oracles.pca_fit``, whose
    projection ``pca_reduce`` must equal bit for bit."""

    def std3d(self, seed=11, n=60):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3)) * [3.0, 1.0, 0.3]
        return standardize(x)

    def test_full_rank_rotation_keeps_all_variance(self):
        std = self.std3d()
        fit = oracles.pca_fit(std)
        assert np.array_equal(pca_reduce(std), fit.projection)
        assert fit.variances[:3].sum() == pytest.approx(fit.total_variance, abs=1e-8)

    def test_collinear_data_is_rank_one(self):
        t = np.linspace(-2, 2, 30)
        x = np.stack([t, 2 * t, -t], axis=1)
        std = standardize(x)
        fit = oracles.pca_fit(std)
        assert np.array_equal(pca_reduce(std), fit.projection)
        assert fit.variances[0] == pytest.approx(fit.total_variance, abs=1e-8)
        assert fit.variances[1] == pytest.approx(0.0, abs=1e-8)
        assert fit.variances[2] == pytest.approx(0.0, abs=1e-8)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(19)
        std = standardize(rng.normal(size=(40, 5)) * [1, 2, 3, 4, 5])
        fit = oracles.pca_fit(std)
        assert np.array_equal(pca_reduce(std), fit.projection)
        gram = fit.components.T @ fit.components
        assert np.abs(gram - np.eye(3)).max() < 1e-8

    def test_matches_power_iteration_oracle_on_5_features(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(80, 5)) @ rng.normal(size=(5, 5))
        std = standardize(x)
        reduced, fit = pca_reduce(std), oracles.pca_fit(std)
        assert np.array_equal(reduced, fit.projection)

        cov = (std - std.mean(0)).T @ (std - std.mean(0))
        cov /= len(x) - 1
        oracle_vals, oracle_vecs = oracles.power_iteration_eigs(cov, 3)
        assert np.allclose(fit.variances[:3], oracle_vals, atol=1e-8)
        for j in range(3):
            dot = abs(float(fit.components[:, j] @ oracle_vecs[:, j]))
            assert dot == pytest.approx(1.0, abs=1e-8)
        # projection agrees up to the sign convention
        for j in range(3):
            a = reduced[:, j]
            b = (std - std.mean(0)) @ oracle_vecs[:, j]
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(31)
        std = standardize(rng.normal(size=(50, 4)))
        fit = oracles.pca_fit(std)
        assert np.array_equal(pca_reduce(std), fit.projection)
        for j in range(3):
            col = fit.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction_error_is_minimal_among_rank3_maps(self):
        rng = np.random.default_rng(37)
        std = standardize(rng.normal(size=(45, 6)) * [1, 2, 3, 4, 5, 6])
        reduced, fit = pca_reduce(std), oracles.pca_fit(std)
        assert np.array_equal(reduced, fit.projection)
        centered = std - fit.means
        recon = reduced @ fit.components.T
        err = float(np.sum((centered - recon) ** 2))
        # optimum equals the sum of the discarded eigenvalues of the scatter
        scatter_vals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        assert err == pytest.approx(float(scatter_vals[3:].sum()), abs=1e-8)


def duplicated_point_sets(count, seed):
    """Point sets of 12-40 rows drawn from only 3-7 distinct rows (3 features)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        distinct = rng.normal(size=(int(rng.integers(3, 8)), 3))
        yield distinct[rng.integers(len(distinct), size=int(rng.integers(12, 41)))]


def lloyd_cases(count):
    """Seeded (points, initial centroids) with 1-5 features, cycling through five kinds."""
    for i in range(count):
        rng = np.random.default_rng(i)
        d = 1 + (i // 5) % 5
        kind = i % 5
        n = int(rng.integers(2, 400))
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        k = int(rng.integers(1, min(n, 10) + 1))
        if kind == 1:  # duplicated points: fewer distinct rows than clusters, often
            distinct = rng.normal(size=(int(rng.integers(1, 6)), d))
            pts = distinct[rng.integers(len(distinct), size=n)]
        elif kind == 2:  # far outliers that end up as singleton clusters
            outliers = int(rng.integers(1, 4))
            pts[:outliers] *= 1e4
            pts = rng.permutation(pts)
            k = min(n, outliers + int(rng.integers(1, 4)))
        elif kind == 3:  # k = n
            pts = pts[:int(rng.integers(1, 30))]
            k = len(pts)
        if kind == 4:  # every centroid on one point: all but one cluster start empty
            init = np.repeat(pts[rng.integers(len(pts))][None, :], k, axis=0)
        else:
            init = kmeanspp_seed(pts, k, seed=i)
        yield pts, init


class TestSquaredDistances:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_equals_difference_tensor_sum(self, d):
        rng = np.random.default_rng(d)
        for _ in range(30):
            n, k = rng.integers(1, 50, size=2)
            scale = 10.0 ** rng.integers(-4, 5)
            pts, centers = rng.normal(size=(n, d)) * scale, rng.normal(size=(k, d)) * scale
            assert np.array_equal(squared_distances(pts, centers),
                                  oracles.tensor_squared_distances(pts, centers))

    @pytest.mark.parametrize("pts,centers", [
        (np.array([[1.5, -2.0, 3.25]]), np.array([[0.5, 4.0, -1.0]])),
        (np.full((4, 3), 2.5), np.full((3, 3), 2.5)),
        (np.array([[1e-150, -3e-150, 2e-150], [5e149, 1e150, -1e150]]),
         np.array([[-1e-150, 1e-150, 0.0], [1e150, -7e149, 3e149], [0.0, 0.0, 0.0]])),
    ], ids=["n1_k1", "coincident", "magnitudes_1e-150_to_1e150"])
    def test_edge_cases_equal_difference_tensor_sum(self, pts, centers):
        assert np.array_equal(squared_distances(pts, centers),
                              oracles.tensor_squared_distances(pts, centers))


class TestKmeansppSeed:
    def test_probabilities_match_direct_arithmetic(self):
        # 1-D points {0, 1, 10} with centroid at 0: squared distances 1 and 100
        pts = np.array([[0.0], [1.0], [10.0]])
        probs = seeding_probabilities(squared_distances(pts, np.array([[0.0]]))[:, 0])
        assert list(probs) == [0.0, 1 / 101, 100 / 101]

    def test_statistical_draw_frequencies(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        counts = {1: 0, 2: 0}
        trials = 0
        for seed in range(4000):
            centroids = kmeanspp_seed(pts, 2, seed)
            if centroids[0][0] != 0.0:
                continue  # condition on the first pick being point 0
            trials += 1
            counts[1 if centroids[1][0] == 1.0 else 2] += 1
        assert trials > 1000
        assert counts[2] / trials > 0.95  # expected 100/101

    def test_duplicates_of_chosen_centroid_never_picked(self):
        pts = np.array([[1.0], [1.0], [5.0]])
        probs = seeding_probabilities(squared_distances(pts, np.array([[1.0]]))[:, 0])
        assert probs[0] == 0.0 and probs[1] == 0.0 and probs[2] == 1.0

    def test_k_equals_n_selects_every_point(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(6, 2))
        centroids = kmeanspp_seed(pts, 6, seed=0)
        assert {tuple(c) for c in centroids} == {tuple(p) for p in pts}

    def test_same_draws_as_rescanning_every_chosen_centroid(self):
        rng = np.random.default_rng(15)
        spread = rng.normal(size=(40, 3))
        duplicated = np.repeat(spread[:4], 5, axis=0)  # k = 6 reaches the uniform fallback
        for seed in range(200):
            assert np.array_equal(kmeanspp_seed(spread, 5, seed),
                                  oracles.rescan_kmeanspp_seed(spread, 5, seed))
            assert np.array_equal(kmeanspp_seed(duplicated, 6, seed),
                                  oracles.rescan_kmeanspp_seed(duplicated, 6, seed))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(30, 3))
        assert np.array_equal(kmeanspp_seed(pts, 4, 7), kmeanspp_seed(pts, 4, 7))


class TestLloyd:
    def test_points_at_k_locations_reach_zero_sse(self):
        locs = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = np.repeat(locs, 4, axis=0)
        init = kmeanspp_seed(pts, 3, seed=2)
        res = lloyd(pts, init)
        assert res.sse == 0.0
        assert res.iterations <= 2

    def test_two_pair_example_matches_exhaustive_oracle(self):
        pts = np.array([[0.0], [2.0], [10.0], [12.0]])
        best = oracles.exhaustive_best_sse(pts, 2)
        assert best == pytest.approx(4.0, abs=1e-12)
        res = lloyd(pts, np.array([[1.0], [11.0]]))
        assert res.sse == pytest.approx(best, abs=1e-12)
        assert list(res.centroids[:, 0]) == [1.0, 11.0]
        assert list(res.labels) == [0, 0, 1, 1]

    def test_fixed_point_no_label_changes_on_reassignment(self):
        rng = np.random.default_rng(22)
        for seed in range(6):
            pts = rng.normal(size=(50, 3))
            res = run_kmeans(pts, 3, seed=seed)
            dists = np.sum((pts[:, None, :] - res.centroids[None, :, :]) ** 2, axis=2)
            assert np.array_equal(np.argmin(dists, axis=1), res.labels)

    def test_empty_cluster_repair_keeps_k_clusters(self):
        pts = np.array([[0.0], [0.1], [0.2], [9.0]])
        # both centroids start on top of the dense group
        res = lloyd(pts, np.array([[0.0], [0.05]]))
        assert len(set(res.labels.tolist())) == 2

    def test_steal_that_empties_a_visited_cluster_is_repaired(self):
        # cluster 1 steals point 0, the only member of the already visited cluster 0
        pts = np.array([[10.0], [0.0], [1.0]])
        centroids, labels = analytics._repair_empty(
            pts, np.array([[0.0], [5.0], [0.5]]), np.array([0, 2, 2]))
        assert list(labels) == [1, 0, 2]
        assert list(centroids[:, 0]) == [0.0, 10.0, 0.5]

    def test_matches_mask_and_mean_oracle(self):
        # the sorted-slice update adds the same rows in the same order as
        # x[labels == j].mean(axis=0), so every output is equal, not close
        for i, (pts, init) in enumerate(lloyd_cases(320)):
            got, want = lloyd(pts, init), oracles.mask_mean_lloyd(pts, init)
            assert np.array_equal(got.labels, want.labels), i
            assert got.centroids.tobytes() == want.centroids.tobytes(), i
            assert (got.sse, got.iterations) == (want.sse, want.iterations), i

    def test_more_centroids_than_points_rejected(self):
        with pytest.raises(DataError, match="k=3 exceeds 2 points"):
            lloyd(np.array([[0.0], [1.0]]), np.array([[0.0], [0.5], [1.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(40, 2))
        a = run_kmeans(pts, 3, seed=5)
        b = run_kmeans(pts, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)


class TestFitKRange:
    def test_duplicated_points_leave_no_cluster_empty(self):
        for i, pts in enumerate(duplicated_point_sets(40, seed=3)):
            for k, fit in fit_k_range(pts, range(1, 11), restarts=3, seed=i).items():
                assert set(fit.labels.tolist()) == set(range(k)), (i, k)

    def test_one_fit_per_distinct_k(self):
        pts = oracles.gaussian_blobs([[0, 0], [9, 9]], 10, 0.5, seed=2)
        fits = fit_k_range(pts, [4, 2, 2, 3], restarts=3, seed=7)
        assert list(fits) == [2, 3, 4]
        for k, result in fits.items():
            direct = run_kmeans(pts, k, seed=7, restarts=3)
            assert result.sse == direct.sse
            assert np.array_equal(result.labels, direct.labels)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("ks,restarts", [
        (range(2, 10), 2),  # the thousand_points labelings: fewer restarts than CPUs at 3
        ([5], 7),
        (range(1, 11), 10),
    ], ids=["thousand_points", "single_k", "elbow_range"])
    def test_every_part_count_fits_what_one_part_fits(self, thousand_points, monkeypatch,
                                                      part_counts, cpus, ks, restarts):
        pts = thousand_points[0]
        fits = {}
        for count in (1, cpus):
            monkeypatch.setattr(parts, "cpus", lambda: count)
            fits[count] = fit_k_range(pts, ks, restarts=restarts, seed=4)
        assert part_counts == [1, min(cpus, restarts)]
        assert list(fits[cpus]) == list(fits[1]) == list(ks)
        for k, one in fits[1].items():
            split = fits[cpus][k]
            assert (split.k, split.sse, split.iterations) == (one.k, one.sse, one.iterations)
            assert split.labels.tobytes() == one.labels.tobytes()
            assert split.centroids.tobytes() == one.centroids.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_an_sse_tie_across_parts_goes_to_the_lower_restart(self, monkeypatch, cpus):
        pts = oracles.gaussian_blobs([[0, 0], [9, 9], [0, 9], [9, 0]], 6, 0.8, seed=0)
        seeds = [child_seed(10, 4, r) for r in range(4)]
        each = [lloyd(pts, kmeanspp_seed(pts, 4, s)) for s in seeds]
        # restart 0 is worse and 1, 2, 3 tie with different labelings, so at 2 or 3
        # parts the part that holds restart 0 has restart 2 or 3 as its own best
        assert each[0].sse > each[1].sse == each[2].sse == each[3].sse
        assert len({fit.labels.tobytes() for fit in each[1:]}) == 3
        monkeypatch.setattr(parts, "cpus", lambda: cpus)
        fit = fit_k_range(pts, [4], restarts=4, seed=10)[4]
        assert fit.labels.tobytes() == each[1].labels.tobytes()


class TestElbow:
    def test_sse_zero_at_k_equals_n(self):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(8, 2))
        curve, _ = elbow_curve(fit_k_range(pts, range(1, 9), restarts=4, seed=1))
        assert curve[-1][0] == 8
        assert curve[-1][1] == pytest.approx(0.0, abs=1e-18)

    def test_sse_non_increasing_in_k(self):
        rng = np.random.default_rng(26)
        for seed in range(4):
            pts = rng.normal(size=(40, 3))
            curve, _ = elbow_curve(fit_k_range(pts, range(1, 9), restarts=8, seed=seed))
            sses = [s for _, s in curve]
            assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_three_blobs_knee_at_three(self):
        pts = oracles.gaussian_blobs([[0, 0, 0], [20, 0, 0], [0, 20, 0]], 20, 0.8, seed=4)
        _, knee = elbow_curve(fit_k_range(pts, range(1, 11), restarts=6, seed=2))
        assert knee == 3


class TestSilhouette:
    def test_two_tight_far_pairs_score_near_one(self):
        pts = np.array([[0.0, 0], [0.1, 0], [50.0, 0], [50.1, 0]])
        labels = np.array([0, 0, 1, 1])
        assert silhouette_score(pts, labels) > 0.99

    def test_identical_points_score_zero(self):
        pts = np.zeros((6, 2))
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert silhouette_score(pts, labels) == 0.0

    def test_singleton_cluster_scores_zero_for_that_point(self):
        pts = np.array([[0.0], [0.2], [9.0]])
        labels = np.array([0, 0, 1])
        score = silhouette_score(pts, labels)
        oracle = oracles.brute_silhouette(pts, labels)
        assert score == oracle

    @pytest.mark.parametrize("seed,n,k", [(0, 30, 2), (1, 80, 3), (2, 150, 5), (3, 200, 4)])
    def test_matches_brute_force_exactly(self, seed, n, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        res = run_kmeans(pts, k, seed=seed, restarts=3)
        assert silhouette_score(pts, res.labels) == oracles.brute_silhouette(pts, res.labels)

    @pytest.mark.parametrize("case", ["singletons", "coincident", "uneven", "k12"])
    def test_edge_cases_match_brute_force_exactly(self, case):
        pts, labels = silhouette_case(case)
        score = silhouette_score(pts, labels)
        assert score == oracles.brute_silhouette(pts, labels)
        if case == "coincident":
            assert score == 0.0

    def test_range_bounds(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(60, 2))
        res = run_kmeans(pts, 4, seed=3)
        assert -1.0 <= silhouette_score(pts, res.labels) <= 1.0


def silhouette_case(case: str) -> tuple[np.ndarray, np.ndarray]:
    """Seeded point sets of at most 200 points for the exact-oracle checks."""
    rng = np.random.default_rng(["singletons", "coincident", "uneven", "k12"].index(case))
    if case == "singletons":  # three one-point clusters beside two large ones
        pts = rng.normal(size=(40, 3))
        labels = np.concatenate([rng.integers(0, 2, size=37), [2, 3, 4]])
        labels[:2] = [0, 1]
        return pts, rng.permutation(labels)
    if case == "coincident":  # every point on the same spot: a = b = 0 everywhere
        return np.full((30, 3), 1.5), np.arange(30) % 3
    if case == "uneven":  # cluster sizes 190, 6, 3, 1
        pts = rng.normal(size=(200, 3))
        return pts, rng.permutation(np.repeat([0, 1, 2, 3], [190, 6, 3, 1]))
    pts = rng.normal(size=(180, 3))
    return pts, run_kmeans(pts, 12, seed=7, restarts=2).labels


@pytest.fixture(scope="module")
def thousand_points():
    """1,000 points with their k = 2..9 labelings and full-matrix oracle scores."""
    pts = np.random.default_rng(21).normal(size=(1000, 3))
    labelings = [fit.labels for fit in fit_k_range(pts, range(2, 10), restarts=2, seed=4).values()]
    return pts, labelings, [oracles.pairwise_silhouette(pts, labels) for labels in labelings]


BLOCK_CASES = pytest.mark.parametrize("block_rows,widths", [
    (1, [2] * 500),  # the width floor: numpy sums a single column pairwise
    (7, [7] * 142 + [6]),  # the last block is short
    (333, [333, 333, 334]),  # a last one-column block joins the one before it
    (1000, [1000]),
    (None, oracles.silhouette_block_widths(1000, analytics.PAIRS_PER_BLOCK)),
], ids=["one_row", "seven_rows", "333_rows", "whole_matrix", "default"])


class TestSilhouetteScores:
    @BLOCK_CASES
    def test_block_size_invariant(self, thousand_points, monkeypatch, block_rows, widths):
        pts, labelings, expected = thousand_points
        monkeypatch.setattr(parts, "cpus", lambda: 1)  # every block is seen in this process
        if block_rows is not None:
            monkeypatch.setattr(analytics, "PAIRS_PER_BLOCK", block_rows * len(pts))
        seen = []
        block_silhouettes = analytics._block_silhouettes

        def recording(dist, *rest):
            assert dist.flags.c_contiguous  # a narrower last block's view too
            seen.append(dist.shape[1])
            return block_silhouettes(dist, *rest)

        monkeypatch.setattr(analytics, "_block_silhouettes", recording)
        assert silhouette_scores(pts, labelings) == expected
        assert seen[::len(labelings)] == widths

    @pytest.mark.parametrize("cpus", [2, 3])
    @BLOCK_CASES
    def test_every_part_count_scores_the_oracle(self, thousand_points, monkeypatch,
                                                part_counts, block_rows, widths, cpus):
        pts, labelings, expected = thousand_points
        if block_rows is not None:
            monkeypatch.setattr(analytics, "PAIRS_PER_BLOCK", block_rows * len(pts))
        monkeypatch.setattr(parts, "cpus", lambda: cpus)
        assert silhouette_scores(pts, labelings) == expected
        assert part_counts == [min(cpus, len(widths))]

    @pytest.mark.parametrize("width", [*range(2, 10), None], ids=lambda w: f"w{w or 'default'}")
    def test_member_sums_equal_the_cumsum_oracle(self, thousand_points, width):
        pts, labelings, _ = thousand_points
        n = len(pts)
        width = width or min(n, analytics.PAIRS_PER_BLOCK // n)
        scratch = np.empty((analytics.PIECE_ROWS, width))
        for i0 in (0, 1, n // 2, n - width):
            dist = np.sqrt(analytics._squared_gaps(pts[:, None, :], pts[None, i0:i0 + width, :]))
            for labels in labelings:
                members = [np.flatnonzero(labels == j) for j in range(labels.max() + 1)]
                assert (analytics._member_sums(dist, members, scratch).tobytes()
                        == oracles.cumsum_member_sums(dist, members).tobytes())

    # a piece of 7 rows: the first piece fills all 7, each later one holds 6
    # member rows behind the running sum
    @pytest.mark.parametrize("size", [1, 6, 7, 8, 13, 14, 59])
    def test_member_sums_carry_across_pieces(self, monkeypatch, size):
        """One cluster of ``size`` of 60 points, the other of the rest, scored in
        pieces of 7 rows: every member sum is the cumsum oracle's, bit for bit."""
        monkeypatch.setattr(analytics, "PIECE_ROWS", 7)
        monkeypatch.setattr(parts, "cpus", lambda: 1)
        rng = np.random.default_rng(size)
        pts = rng.normal(size=(60, 3))
        labels = np.ones(60, dtype=np.int64)
        labels[rng.choice(60, size, replace=False)] = 0
        checked = []
        member_sums = analytics._member_sums

        def checking(dist, members, scratch):
            assert len(scratch) == 7
            sums = member_sums(dist, members, scratch)
            assert sums.tobytes() == oracles.cumsum_member_sums(dist, members).tobytes()
            checked.append(sorted(len(m) for m in members))
            return sums

        monkeypatch.setattr(analytics, "_member_sums", checking)
        assert silhouette_scores(pts, [labels]) == [oracles.pairwise_silhouette(pts, labels)]
        assert checked == [sorted([size, 60 - size])]

    @pytest.mark.parametrize("width,rows", [(2, 7), (5, 7), (6, 1000), (9, 3)])
    def test_distance_block_in_a_wider_buffer(self, thousand_points, width, rows):
        """A block narrower than its buffer, filled through a scratch buffer of
        ``rows`` rows (7 and 3 leave a short last piece): each distance is
        ``np.sqrt`` of ``_squared_gaps``, bit for bit."""
        pts = thousand_points[0]
        n = len(pts)
        buffer = np.full(n * 10, np.nan)
        dist = buffer[:n * width].reshape(n, width)
        for i0 in (0, 123, n - width):
            analytics._distance_block(pts, i0, dist, np.empty((rows, width)))
            expected = np.sqrt(analytics._squared_gaps(pts[:, None, :],
                                                       pts[None, i0:i0 + width, :]))
            assert dist.tobytes() == expected.tobytes()
        assert np.isnan(buffer[n * width:]).all()  # the rest of the buffer is untouched

    def test_one_labeling_equals_its_share_of_the_pass(self, thousand_points):
        pts, labelings, expected = thousand_points
        assert [silhouette_score(pts, labels) for labels in labelings] == expected

    @staticmethod
    def pass_peak(n: int) -> int:
        """Bytes the pass over n points allocates at its peak, in this process."""
        pts = np.random.default_rng(8).normal(size=(n, 3))
        labelings = [np.arange(n) % k for k in (2, 4)]
        return traced_peak(lambda: silhouette_scores(pts, labelings))

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_peak_memory_bounded(self, monkeypatch, n):
        monkeypatch.setattr(parts, "cpus", lambda: 1)  # every block is built in this process
        block = analytics.PAIRS_PER_BLOCK * 8
        # one block and its scratch rows; the n x n matrix would take 8 or 72 MB
        assert self.pass_peak(n) < 1.5 * block

    def test_peak_memory_does_not_grow_with_n(self, monkeypatch):
        monkeypatch.setattr(parts, "cpus", lambda: 1)
        block = analytics.PAIRS_PER_BLOCK * 8
        assert abs(self.pass_peak(3000) - self.pass_peak(1000)) < block


class TestSelectK:
    def test_three_blobs(self):
        pts = oracles.gaussian_blobs([[0, 0, 0], [15, 15, 0], [-15, 15, 5]], 25, 0.7, seed=9)
        _, best_k = select_k(pts, fit_k_range(pts, range(2, 10), restarts=6, seed=1))
        assert best_k == 3

    def test_two_blobs(self):
        pts = oracles.gaussian_blobs([[0, 0], [20, 0]], 25, 0.8, seed=10)
        _, best_k = select_k(pts, fit_k_range(pts, range(2, 8), restarts=6, seed=1))
        assert best_k == 2

    def test_identical_points_tie_breaks_to_two(self):
        pts = np.zeros((12, 3))
        curve, best_k = select_k(pts, fit_k_range(pts, range(2, 6), restarts=2, seed=0))
        assert best_k == 2
        assert all(s == 0.0 for _, s in curve)

    def test_full_determinism(self):
        pts = oracles.gaussian_blobs([[0, 0], [8, 8], [-8, 8]], 15, 1.0, seed=12)
        fits_a = fit_k_range(pts, range(2, 8), restarts=5, seed=4)
        fits_b = fit_k_range(pts, range(2, 8), restarts=5, seed=4)
        curve_a, k_a = select_k(pts, fits_a)
        curve_b, k_b = select_k(pts, fits_b)
        assert k_a == k_b
        assert curve_a == curve_b
        assert np.array_equal(fits_a[k_a].labels, fits_b[k_b].labels)


class TestCsvExports:
    def test_curves_and_clusters(self, tmp_path):
        pts = oracles.gaussian_blobs([[0, 0], [9, 9]], 10, 0.5, seed=2)
        fits = fit_k_range(pts, range(1, 5), restarts=3, seed=0)
        elbow, _ = elbow_curve(fits)
        write_curve_csv(elbow, "sse", tmp_path / "elbow.csv")
        lines = (tmp_path / "elbow.csv").read_text().splitlines()
        assert lines[0] == "k,sse"
        assert len(lines) == 5

        curve, best_k = select_k(pts, {k: fits[k] for k in range(2, 5)})
        write_curve_csv(curve, "silhouette", tmp_path / "sil.csv")
        assert (tmp_path / "sil.csv").read_text().splitlines()[0] == "k,silhouette"

        ids = [f"cell_{i}" for i in range(len(pts))]
        write_clusters_csv(ids, fits[best_k].labels, tmp_path / "clusters.csv")
        back = read_clusters_csv(tmp_path / "clusters.csv")
        assert back == {i: int(l) for i, l in zip(ids, fits[best_k].labels)}

    def test_duplicate_cell_id_names_row(self, tmp_path):
        source = text_file(tmp_path, "cell_id,cluster\na,0\nb,1\na,1\n", "clusters.csv")
        with pytest.raises(DataError, match="row 3: duplicate cell_id 'a'"):
            read_clusters_csv(source)

    @pytest.mark.parametrize("row", ["a,1,zzz", "a"])
    def test_row_of_wrong_width_names_row(self, tmp_path, row):
        source = text_file(tmp_path, f"cell_id,cluster\nb,0\n\n{row}\n", "clusters.csv")
        with pytest.raises(DataError, match=r"row 3: expected 2 fields, got \d"):
            read_clusters_csv(source)

    def test_exact_bytes(self, tmp_path):
        out = tmp_path / "out.csv"
        write_curve_csv([(1, 12.0), (2, 3.5), (3, 0.1 + 0.2)], "sse", out)
        assert out.read_bytes() == b"k,sse\n1,12\n2,3.5\n3,0.30000000000000004\n"
        write_curve_csv([(2, 0.5), (3, 1 / 3)], "silhouette", out)
        assert out.read_bytes() == b"k,silhouette\n2,0.5\n3,0.3333333333333333\n"
        # fields are joined by bare commas: no quoting
        write_clusters_csv(["a", "b c", "é"], np.array([1, 0, 2]), out)
        assert out.read_bytes() == "cell_id,cluster\na,1\nb c,0\né,2\n".encode()


class TestChildSeed:
    def test_distinct_and_stable(self):
        a = child_seed(7, 3, 0)
        b = child_seed(7, 3, 1)
        c = child_seed(7, 4, 0)
        assert len({a, b, c}) == 3
        assert child_seed(7, 3, 0) == a
