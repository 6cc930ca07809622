import io
import math

import numpy as np
import pytest

from trxsave.analytics import (
    ElbowResult,
    FeatureMatrix,
    Stage,
    child_seed,
    elbow_curve,
    fit_k_range,
    jacobi_eigh,
    kmeanspp_seed,
    kpi_feature_matrix,
    lloyd,
    pca_reduce,
    read_clusters_csv,
    run_kmeans,
    seeding_probabilities,
    select_k,
    silhouette_score,
    standardize,
    write_clusters_csv,
    write_elbow_csv,
    write_silhouette_csv,
)
from trxsave.errors import ConfigurationError, DataError
from trxsave.traffic import ingest_kpi_csv

import oracles

from test_traffic import sample_kpi_csv


def raw(values):
    values = np.asarray(values, dtype=np.float64)
    return FeatureMatrix([f"r{i}" for i in range(len(values))], values, Stage.RAW)


class TestStandardize:
    def test_two_point_column(self):
        std, stats = standardize(raw([[1.0], [3.0]]))
        assert list(std.values[:, 0]) == [-1.0, 1.0]
        assert stats.means[0] == 2.0 and stats.stds[0] == 1.0

    def test_constant_column_flagged_and_zeroed(self):
        std, stats = standardize(raw([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.all(std.values[:, 0] == 0.0)
        assert list(stats.constant_columns) == [True, False]

    def test_dataset_sample_columns_have_unit_moments(self):
        records = ingest_kpi_csv(sample_kpi_csv())
        std, _ = standardize(kpi_feature_matrix(records))
        # recompute moments independently
        for col in range(std.n_cols):
            vals = std.values[:, col]
            mean = math.fsum(vals) / len(vals)
            var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
            assert abs(mean) < 1e-9
            assert abs(math.sqrt(var) - 1.0) < 1e-9

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            standardize(raw([[1.0, 2.0]]))

    def test_wrong_stage_rejected(self):
        std, _ = standardize(raw([[1.0], [2.0]]))
        with pytest.raises(DataError):
            standardize(std)


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

    def test_rejects_non_symmetric(self):
        with pytest.raises(DataError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPca:
    def std3d(self, seed=11, n=60):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3)) * [3.0, 1.0, 0.3]
        std, _ = standardize(raw(x))
        return std

    def test_full_rank_rotation_keeps_all_variance(self):
        std = self.std3d()
        _, model = pca_reduce(std, n_components=3)
        assert model.explained_variance.sum() == pytest.approx(model.total_variance, abs=1e-8)

    def test_collinear_data_is_rank_one(self):
        t = np.linspace(-2, 2, 30)
        x = np.stack([t, 2 * t, -t], axis=1)
        std, _ = standardize(raw(x))
        _, model = pca_reduce(std, n_components=3)
        assert model.explained_variance[0] == pytest.approx(model.total_variance, abs=1e-8)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-8)
        assert model.explained_variance[2] == pytest.approx(0.0, abs=1e-8)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(19)
        std, _ = standardize(raw(rng.normal(size=(40, 5)) * [1, 2, 3, 4, 5]))
        _, model = pca_reduce(std, n_components=3)
        gram = model.component_matrix.T @ model.component_matrix
        assert np.abs(gram - np.eye(3)).max() < 1e-8

    def test_matches_power_iteration_oracle_on_5_features(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(80, 5)) @ rng.normal(size=(5, 5))
        std, _ = standardize(raw(x))
        reduced, model = pca_reduce(std, n_components=3)

        cov = (std.values - std.values.mean(0)).T @ (std.values - std.values.mean(0))
        cov /= len(x) - 1
        oracle_vals, oracle_vecs = oracles.power_iteration_eigs(cov, 3)
        assert np.allclose(model.explained_variance, oracle_vals, atol=1e-8)
        for j in range(3):
            dot = abs(float(model.component_matrix[:, j] @ oracle_vecs[:, j]))
            assert dot == pytest.approx(1.0, abs=1e-8)
        # projection agrees up to the sign convention
        for j in range(3):
            a = reduced.values[:, j]
            b = (std.values - std.values.mean(0)) @ oracle_vecs[:, j]
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(31)
        std, _ = standardize(raw(rng.normal(size=(50, 4))))
        _, model = pca_reduce(std, n_components=3)
        for j in range(3):
            col = model.component_matrix[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction_error_is_minimal_among_rank3_maps(self):
        rng = np.random.default_rng(37)
        std, _ = standardize(raw(rng.normal(size=(45, 6)) * [1, 2, 3, 4, 5, 6]))
        reduced, model = pca_reduce(std, n_components=3)
        centered = std.values - model.means
        recon = reduced.values @ model.component_matrix.T
        err = float(np.sum((centered - recon) ** 2))
        # optimum equals the sum of the discarded eigenvalues of the scatter
        scatter_vals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        assert err == pytest.approx(float(scatter_vals[3:].sum()), abs=1e-8)

    def test_too_many_components_rejected(self):
        std, _ = standardize(raw(np.random.default_rng(1).normal(size=(10, 3))))
        with pytest.raises(DataError):
            pca_reduce(std, n_components=4)

    def test_requires_standardized_stage(self):
        with pytest.raises(DataError):
            pca_reduce(raw([[1.0, 2.0], [3.0, 4.0]]), 2)


class TestKmeansppSeed:
    def test_probabilities_match_direct_arithmetic(self):
        # 1-D points {0, 1, 10} with centroid at 0: squared distances 1 and 100
        pts = np.array([[0.0], [1.0], [10.0]])
        probs = seeding_probabilities(pts, np.array([[0.0]]))
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
        probs = seeding_probabilities(pts, np.array([[1.0]]))
        assert probs[0] == 0.0 and probs[1] == 0.0 and probs[2] == 1.0

    def test_k_equals_n_selects_every_point(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(6, 2))
        centroids = kmeanspp_seed(pts, 6, seed=0)
        assert {tuple(c) for c in centroids} == {tuple(p) for p in pts}

    def test_k_too_large_rejected(self):
        with pytest.raises(DataError):
            kmeanspp_seed(np.zeros((3, 2)), 4, 0)

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

    def test_sse_history_non_increasing(self):
        rng = np.random.default_rng(21)
        for seed in range(6):
            pts = rng.normal(size=(60, 3))
            res = run_kmeans(pts, 4, seed=seed, restarts=3)
            hist = res.sse_history
            assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))

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

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(40, 2))
        a = run_kmeans(pts, 3, seed=5)
        b = run_kmeans(pts, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)


class TestFitKRange:
    def test_one_fit_per_distinct_k(self):
        pts = oracles.gaussian_blobs([[0, 0], [9, 9]], 10, 0.5, seed=2)
        fits = fit_k_range(pts, [4, 2, 2, 3], restarts=3, seed=7)
        assert list(fits) == [2, 3, 4]
        for k, result in fits.items():
            direct = run_kmeans(pts, k, seed=7, restarts=3)
            assert result.sse == direct.sse
            assert np.array_equal(result.labels, direct.labels)

    @pytest.mark.parametrize("ks", [[], [0, 1, 2]])
    def test_k_below_one_rejected(self, ks):
        with pytest.raises(ConfigurationError):
            fit_k_range(np.zeros((4, 2)), ks)


class TestElbow:
    def test_sse_zero_at_k_equals_n(self):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(8, 2))
        result = elbow_curve(fit_k_range(pts, range(1, 9), restarts=4, seed=1))
        assert result.points[-1][0] == 8
        assert result.points[-1][1] == pytest.approx(0.0, abs=1e-18)

    def test_sse_non_increasing_in_k(self):
        rng = np.random.default_rng(26)
        for seed in range(4):
            pts = rng.normal(size=(40, 3))
            result = elbow_curve(fit_k_range(pts, range(1, 9), restarts=8, seed=seed))
            sses = [s for _, s in result.points]
            assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_three_blobs_knee_at_three(self):
        pts = oracles.gaussian_blobs([[0, 0, 0], [20, 0, 0], [0, 20, 0]], 20, 0.8, seed=4)
        result = elbow_curve(fit_k_range(pts, range(1, 11), restarts=6, seed=2))
        assert result.suggested_knee == 3

    def test_k_above_n_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_k_range(np.zeros((4, 2)), range(1, 6))


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

    def test_range_bounds(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(60, 2))
        res = run_kmeans(pts, 4, seed=3)
        assert -1.0 <= silhouette_score(pts, res.labels) <= 1.0

    def test_single_cluster_rejected(self):
        with pytest.raises(DataError):
            silhouette_score(np.zeros((4, 2)), np.zeros(4, dtype=int))


class TestSelectK:
    def test_three_blobs(self):
        pts = oracles.gaussian_blobs([[0, 0, 0], [15, 15, 0], [-15, 15, 5]], 25, 0.7, seed=9)
        sel = select_k(pts, fit_k_range(pts, range(2, 10), restarts=6, seed=1))
        assert sel.k_best == 3

    def test_two_blobs(self):
        pts = oracles.gaussian_blobs([[0, 0], [20, 0]], 25, 0.8, seed=10)
        sel = select_k(pts, fit_k_range(pts, range(2, 8), restarts=6, seed=1))
        assert sel.k_best == 2

    def test_identical_points_tie_breaks_to_two(self):
        pts = np.zeros((12, 3))
        sel = select_k(pts, fit_k_range(pts, range(2, 6), restarts=2, seed=0))
        assert sel.k_best == 2
        assert all(s == 0.0 for _, s in sel.curve)

    def test_k_below_two_rejected(self):
        pts = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ConfigurationError):
            select_k(pts, fit_k_range(pts, range(1, 4)))
        with pytest.raises(ConfigurationError):
            select_k(pts, {})

    def test_full_determinism(self):
        pts = oracles.gaussian_blobs([[0, 0], [8, 8], [-8, 8]], 15, 1.0, seed=12)
        a = select_k(pts, fit_k_range(pts, range(2, 8), restarts=5, seed=4))
        b = select_k(pts, fit_k_range(pts, range(2, 8), restarts=5, seed=4))
        assert a.k_best == b.k_best
        assert a.curve == b.curve
        assert np.array_equal(a.best_result.labels, b.best_result.labels)


class TestCsvExports:
    def test_curves_and_clusters(self, tmp_path):
        pts = oracles.gaussian_blobs([[0, 0], [9, 9]], 10, 0.5, seed=2)
        fits = fit_k_range(pts, range(1, 5), restarts=3, seed=0)
        elbow = elbow_curve(fits)
        write_elbow_csv(elbow, tmp_path / "elbow.csv")
        lines = (tmp_path / "elbow.csv").read_text().splitlines()
        assert lines[0] == "k,sse"
        assert len(lines) == 5

        sel = select_k(pts, {k: fits[k] for k in range(2, 5)})
        write_silhouette_csv(sel.curve, tmp_path / "sil.csv")
        assert (tmp_path / "sil.csv").read_text().splitlines()[0] == "k,silhouette"

        ids = [f"cell_{i}" for i in range(len(pts))]
        write_clusters_csv(ids, sel.best_result.labels, tmp_path / "clusters.csv")
        back = read_clusters_csv(tmp_path / "clusters.csv")
        assert back == {i: int(l) for i, l in zip(ids, sel.best_result.labels)}

    def test_duplicate_cell_id_names_row(self):
        source = io.StringIO("cell_id,cluster\na,0\nb,1\na,1\n")
        with pytest.raises(DataError, match="row 3: duplicate cell_id 'a'"):
            read_clusters_csv(source)

    @pytest.mark.parametrize("row", ["a,1,zzz", "a"])
    def test_row_of_wrong_width_names_row(self, row):
        source = io.StringIO(f"cell_id,cluster\nb,0\n\n{row}\n")
        with pytest.raises(DataError, match=r"row 3: expected 2 fields, got \d"):
            read_clusters_csv(source)

    def test_exact_bytes(self):
        out = io.StringIO()
        write_elbow_csv(ElbowResult(points=[(1, 12.0), (2, 3.5), (3, 0.1 + 0.2)],
                                    suggested_knee=2), out)
        assert out.getvalue() == "k,sse\n1,12\n2,3.5\n3,0.30000000000000004\n"
        out = io.StringIO()
        write_silhouette_csv([(2, 0.5), (3, 1 / 3)], out)
        assert out.getvalue() == "k,silhouette\n2,0.5\n3,0.3333333333333333\n"
        out = io.StringIO()
        write_clusters_csv(["a", "b,c"], np.array([1, 0]), out)
        assert out.getvalue() == 'cell_id,cluster\na,1\n"b,c",0\n'


class TestChildSeed:
    def test_distinct_and_stable(self):
        a = child_seed(7, 3, 0)
        b = child_seed(7, 3, 1)
        c = child_seed(7, 4, 0)
        assert len({a, b, c}) == 3
        assert child_seed(7, 3, 0) == a
