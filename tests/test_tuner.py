import math

import numpy as np
import pytest

from trxsave.errors import ConfigurationError, DataError
from trxsave.tables import KpiRecord
from trxsave.tuner import (
    HysteresisAssignment,
    HysteresisPolicy,
    profile_clusters,
    rank_and_assign,
    read_assignment_csv,
    write_assignment_csv,
    write_push_csv,
)

from test_traffic import text_file


def assignment_file(tmp_path, rows: str):
    return text_file(tmp_path, "cell_id,cluster,hysteresis\n" + rows, "assignment.csv")

# clustering sample: six cells in three clusters (labels 1,1,2,2,0,0)
SAMPLE_KPIS = [
    KpiRecord("Cell_1", 2.69845, 130.523, 0.00579, 5.08791, 24),
    KpiRecord("Cell_2", 1.62493, 136.034, 0.00596, 3.12088, 24),
    KpiRecord("Cell_3", 7.31606, 124.882, 0.11292, 41.95604, 32),
    KpiRecord("Cell_4", 5.25773, 123.006, 0.01373, 16.0, 32),
    KpiRecord("Cell_5", 4.42022, 132.727, 0.00066, 2.04396, 24),
    KpiRecord("Cell_6", 4.86402, 139.305, 0.00065, 3.91209, 24),
]
SAMPLE_LABELS = np.array([1, 1, 2, 2, 0, 0])


def sample_label_map():
    return {r.cell_id: int(l) for r, l in zip(SAMPLE_KPIS, SAMPLE_LABELS)}


class TestProfileClusters:
    def test_cluster_means_match_hand_sums(self):
        profiles = {p.cluster_id: p for p in profile_clusters(SAMPLE_LABELS, SAMPLE_KPIS)}
        # cluster 2 traffic: mean of 7.31606 and 5.25773
        expected_c2 = math.fsum([7.31606, 5.25773]) / 2
        assert profiles[2].tch_traffic_erl == pytest.approx(expected_c2, abs=1e-12)
        assert round(profiles[2].tch_traffic_erl, 2) == 6.29
        # cluster 0 traffic: mean of 4.42022 and 4.86402
        expected_c0 = math.fsum([4.42022, 4.86402]) / 2
        assert profiles[0].tch_traffic_erl == pytest.approx(expected_c0, abs=1e-12)
        assert round(profiles[0].tch_traffic_erl, 2) == 4.64

    def test_single_member_cluster_is_that_cell(self):
        profiles = profile_clusters(np.array([0, 1]), SAMPLE_KPIS[:2])
        assert profiles[0].tch_traffic_erl == SAMPLE_KPIS[0].tch_traffic_erl
        assert profiles[1].tch_traffic_erl == SAMPLE_KPIS[1].tch_traffic_erl

    def test_clusters_run_to_max_label(self):
        profiles = profile_clusters(np.array([2, 0, 1, 0]), SAMPLE_KPIS[:4])
        assert [p.cluster_id for p in profiles] == [0, 1, 2]
        with pytest.raises(DataError, match="cluster 1 has no members"):
            profile_clusters(np.array([2, 0, 2, 0]), SAMPLE_KPIS[:4])

    def test_no_labels_rejected(self):
        with pytest.raises(DataError, match="no cluster labels"):
            profile_clusters(np.array([], dtype=int), [])


class TestRankAndAssign:
    def test_dataset_sample_gets_published_values(self):
        # ascending traffic: cluster 1 (2.16) -> 4, cluster 0 (4.64) -> 6,
        # cluster 2 (6.29) -> 12
        profiles = profile_clusters(SAMPLE_LABELS, SAMPLE_KPIS)
        assignment = rank_and_assign(profiles, HysteresisPolicy(values=(4, 6, 12)),
                                     sample_label_map())
        assert assignment.hysteresis == {
            "Cell_1": 4, "Cell_2": 4, "Cell_3": 12, "Cell_4": 12,
            "Cell_5": 6, "Cell_6": 6,
        }

    def test_tie_breaks_to_smaller_cluster_id(self):
        kpis = [
            KpiRecord("a", 5.0, 100.0, 0.0, 1.0, 24),
            KpiRecord("b", 5.0, 100.0, 0.0, 1.0, 24),
        ]
        profiles = profile_clusters(np.array([1, 0]), kpis)
        assignment = rank_and_assign(profiles, HysteresisPolicy(values=(4, 6)),
                                     {"a": 1, "b": 0})
        assert assignment.hysteresis == {"b": 4, "a": 6}

    def test_policy_count_mismatch(self):
        profiles = profile_clusters(SAMPLE_LABELS, SAMPLE_KPIS)
        with pytest.raises(ConfigurationError):
            rank_and_assign(profiles, HysteresisPolicy(values=(4, 6)), sample_label_map())

    def test_relabeling_invariance(self):
        # permute cluster ids; the per-cell hysteresis must not change
        relabel = {0: 2, 1: 0, 2: 1}
        labels2 = np.array([relabel[int(l)] for l in SAMPLE_LABELS])
        map2 = {r.cell_id: int(l) for r, l in zip(SAMPLE_KPIS, labels2)}
        a1 = rank_and_assign(profile_clusters(SAMPLE_LABELS, SAMPLE_KPIS),
                             HysteresisPolicy(values=(4, 6, 12)), sample_label_map())
        a2 = rank_and_assign(profile_clusters(labels2, SAMPLE_KPIS),
                             HysteresisPolicy(values=(4, 6, 12)), map2)
        assert a1.hysteresis == a2.hysteresis

    def test_monotone_policy_respect_and_totality(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(6, 30))
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, k, size=n)
            labels[:k] = np.arange(k)  # every cluster non-empty
            kpis = [
                KpiRecord(f"c{i}", float(rng.uniform(0, 20)), float(rng.uniform(80, 150)),
                          float(rng.uniform(0, 5)), float(rng.uniform(0, 50)), 24)
                for i in range(n)
            ]
            profiles = profile_clusters(labels, kpis)
            policy = HysteresisPolicy(values=tuple(sorted(rng.integers(1, 1015, size=k))))
            label_map = {r.cell_id: int(l) for r, l in zip(kpis, labels)}
            assignment = rank_and_assign(profiles, policy, label_map)

            assert set(assignment.hysteresis) == {r.cell_id for r in kpis}
            assert all(1 <= h <= 1014 for h in assignment.hysteresis.values())
            scores = {p.cluster_id: p.tch_traffic_erl for p in profiles}
            hyst_of = {p.cluster_id: assignment.hysteresis[
                next(c for c, l in label_map.items() if l == p.cluster_id)
            ] for p in profiles}
            for a in scores:
                for b in scores:
                    if scores[a] > scores[b]:
                        assert hyst_of[a] >= hyst_of[b]


class TestPolicyValidation:
    def test_values_have_no_library_default(self):
        # the default policy is spelled once, as the default of assign --policy
        with pytest.raises(TypeError):
            HysteresisPolicy()

    def test_out_of_range_value(self):
        with pytest.raises(ConfigurationError):
            HysteresisPolicy(values=(0, 6, 12))
        with pytest.raises(ConfigurationError):
            HysteresisPolicy(values=(4, 6, 1015))

    def test_decreasing_values_rejected(self):
        with pytest.raises(ConfigurationError):
            HysteresisPolicy(values=(12, 6, 4))


class TestAssignmentCsv:
    def test_round_trip_and_push_file(self, tmp_path):
        assignment = HysteresisAssignment(
            hysteresis={"a": 4, "b": 12}, cluster={"a": 0, "b": 1}
        )
        path = tmp_path / "assignment.csv"
        write_assignment_csv(assignment, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cell_id,cluster,hysteresis"
        back = read_assignment_csv(path)
        assert back == assignment

        assert path.read_bytes() == b"cell_id,cluster,hysteresis\na,0,4\nb,1,12\n"

        push = tmp_path / "push.csv"
        write_push_csv(assignment, push)
        assert push.read_bytes() == b"cell_id,BTSPSHYST\na,4\nb,12\n"

    def test_duplicate_cell_id_names_row(self, tmp_path):
        source = assignment_file(tmp_path, "a,0,4\nb,1,12\na,1,12\n")
        with pytest.raises(DataError, match="row 3: duplicate cell_id 'a'"):
            read_assignment_csv(source)

    @pytest.mark.parametrize("row", ["a,0,4,x", "a,0"])
    def test_row_of_wrong_width_names_row(self, tmp_path, row):
        source = assignment_file(tmp_path, f"b,1,12\n{row}\n")
        with pytest.raises(DataError, match=r"row 2: expected 3 fields, got \d"):
            read_assignment_csv(source)

    @pytest.mark.parametrize("h", ["0", "1015", "-3"])
    def test_hysteresis_out_of_range_names_row(self, tmp_path, h):
        source = assignment_file(tmp_path, f"b,1,1014\na,0,{h}\n")
        with pytest.raises(DataError, match=rf"row 2: hysteresis {h} outside \[1, 1014\]"):
            read_assignment_csv(source)

    def test_hysteresis_range_ends_accepted(self, tmp_path):
        source = assignment_file(tmp_path, "a,0,1\nb,1,1014\n")
        assert read_assignment_csv(source).hysteresis == {"a": 1, "b": 1014}
