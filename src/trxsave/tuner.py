"""Cluster-to-hysteresis policy mapping.

Clusters are ranked by traffic severity (busiest last) and each rank gets a
hysteresis value from the policy, so heavy clusters keep a wide idle margin
and quiet clusters are allowed to save aggressively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .cell_model import check_cell_id
from .errors import ConfigurationError, DataError
from .traffic import KpiRecord, read_csv, write_csv

HYSTERESIS_MIN = 1
HYSTERESIS_MAX = 1014

DEFAULT_POLICY_VALUES = (4, 6, 12)


@dataclass(frozen=True)
class ClusterProfile:
    """Per-cluster KPI means in original units."""

    cluster_id: int
    tch_traffic_erl: float
    dl_edge_throughput_kbps: float
    pdch_congestion_pct: float
    preempt_pdch: float
    member_count: int


@dataclass(frozen=True)
class HysteresisPolicy:
    """Hysteresis per severity rank, least severe first."""

    values: tuple[int, ...] = DEFAULT_POLICY_VALUES
    severity: str = "traffic"  # "traffic" or "composite"

    def validate(self) -> "HysteresisPolicy":
        if not self.values:
            raise ConfigurationError("policy needs at least one hysteresis value")
        for v in self.values:
            if not HYSTERESIS_MIN <= v <= HYSTERESIS_MAX:
                raise ConfigurationError(
                    f"hysteresis {v} outside [{HYSTERESIS_MIN}, {HYSTERESIS_MAX}]"
                )
        if list(self.values) != sorted(self.values):
            raise ConfigurationError(
                "policy values must be non-decreasing (higher severity never gets a smaller margin)"
            )
        if self.severity not in ("traffic", "composite"):
            raise ConfigurationError(f"unknown severity scoring {self.severity!r}")
        return self


@dataclass(frozen=True)
class HysteresisAssignment:
    """cell_id -> hysteresis, plus the cluster each cell came from."""

    hysteresis: Mapping[str, int]
    cluster: Mapping[str, int]


def profile_clusters(labels: np.ndarray, kpis: Sequence[KpiRecord]) -> list[ClusterProfile]:
    """Per-cluster means of the original (pre-standardization) KPI values.

    ``labels[i]`` is the cluster of ``kpis[i]``; clusters are 0..max(labels).
    """
    labels = np.asarray(labels)
    if len(labels) != len(kpis):
        raise DataError(f"label/KPI mismatch: {len(labels)} labels vs {len(kpis)} records")
    if len(labels) == 0:
        raise DataError("no cluster labels")
    profiles = []
    for cluster_id in range(int(labels.max()) + 1):
        members = [kpis[i] for i in np.flatnonzero(labels == cluster_id)]
        if not members:
            raise DataError(f"cluster {cluster_id} has no members")
        n = len(members)
        profiles.append(ClusterProfile(
            cluster_id=cluster_id,
            tch_traffic_erl=math.fsum(m.tch_traffic_erl for m in members) / n,
            dl_edge_throughput_kbps=math.fsum(m.dl_edge_throughput_kbps for m in members) / n,
            pdch_congestion_pct=math.fsum(m.pdch_congestion_pct for m in members) / n,
            preempt_pdch=math.fsum(m.preempt_pdch for m in members) / n,
            member_count=n,
        ))
    return profiles


def severity_scores(
    profiles: Sequence[ClusterProfile], mode: str = "traffic"
) -> list[float]:
    """Traffic severity per cluster.

    ``traffic`` scores by mean Erlang alone. ``composite`` adds the congestion
    and preemption z-scores (across clusters) to the traffic z-score, standing
    in for an engineer reviewing all three readings together.
    """
    if mode == "traffic":
        return [p.tch_traffic_erl for p in profiles]
    if mode != "composite":
        raise ConfigurationError(f"unknown severity scoring {mode!r}")

    def zscores(values: list[float]) -> list[float]:
        arr = np.asarray(values)
        std = arr.std()
        if std == 0:
            return [0.0] * len(values)
        return list((arr - arr.mean()) / std)

    z_erl = zscores([p.tch_traffic_erl for p in profiles])
    z_cong = zscores([p.pdch_congestion_pct for p in profiles])
    z_pre = zscores([p.preempt_pdch for p in profiles])
    return [a + b + c for a, b, c in zip(z_erl, z_cong, z_pre)]


def rank_and_assign(
    profiles: Sequence[ClusterProfile],
    policy: HysteresisPolicy,
    labels: Mapping[str, int],
) -> HysteresisAssignment:
    """Give every cell its cluster's hysteresis.

    Clusters sort ascending by severity (ties toward the smaller cluster id);
    rank r gets ``policy.values[r]``.
    """
    policy.validate()
    if len(profiles) != len(policy.values):
        raise ConfigurationError(
            f"policy has {len(policy.values)} values but there are {len(profiles)} clusters"
        )
    scores = severity_scores(profiles, policy.severity)
    order = sorted(range(len(profiles)), key=lambda i: (scores[i], profiles[i].cluster_id))
    cluster_to_hyst = {
        profiles[i].cluster_id: policy.values[rank] for rank, i in enumerate(order)
    }
    known = {p.cluster_id for p in profiles}
    hysteresis = {}
    for cell_id, cluster in labels.items():
        if cluster not in known:
            raise DataError(f"cell {cell_id!r} labeled with unknown cluster {cluster}")
        hysteresis[cell_id] = cluster_to_hyst[cluster]
    return HysteresisAssignment(hysteresis=hysteresis, cluster=dict(labels))


ASSIGNMENT_CSV_HEADER = ["cell_id", "cluster", "hysteresis"]
PUSH_CSV_HEADER = ["cell_id", "BTSPSHYST"]


def write_assignment_csv(assignment: HysteresisAssignment, path: Union[str, Path]) -> None:
    """One ``cell_id,cluster,hysteresis`` row per cell; every id is checked before
    the file is opened."""
    write_csv(path, ASSIGNMENT_CSV_HEADER, [
        (check_cell_id(cell_id, str(path)), assignment.cluster[cell_id], h)
        for cell_id, h in assignment.hysteresis.items()
    ])


def write_push_csv(assignment: HysteresisAssignment, path: Union[str, Path]) -> None:
    """Operator change-request sheet: one BTSPSHYST value per cell; every id is
    checked before the file is opened."""
    write_csv(path, PUSH_CSV_HEADER,
              [(check_cell_id(cell_id, str(path)), h)
               for cell_id, h in assignment.hysteresis.items()])


def read_assignment_csv(path: Union[str, Path]) -> HysteresisAssignment:
    hyst: dict[str, int] = {}
    clusters: dict[str, int] = {}
    for row_no, (cell_id, cluster, h) in read_csv(path, ASSIGNMENT_CSV_HEADER):
        try:
            clusters[cell_id] = int(cluster)
            hyst[cell_id] = int(h)
        except ValueError:
            raise DataError(f"{path}: row {row_no}: non-integer cluster or hysteresis") from None
        if not HYSTERESIS_MIN <= hyst[cell_id] <= HYSTERESIS_MAX:
            raise DataError(f"{path}: row {row_no}: hysteresis {hyst[cell_id]} outside "
                            f"[{HYSTERESIS_MIN}, {HYSTERESIS_MAX}]")
    return HysteresisAssignment(hysteresis=hyst, cluster=clusters)
