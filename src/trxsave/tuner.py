"""Cluster-to-hysteresis policy mapping.

Clusters are ranked by mean busy-hour traffic (busiest last) and each rank
gets a hysteresis value from the policy, so heavy clusters keep a wide idle
margin and quiet clusters are allowed to save aggressively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

from .cell_model import HYSTERESIS_MAX, HYSTERESIS_MIN, check_cell_id
from .errors import ConfigurationError, DataError
from .tables import KpiRecord, read_csv, write_csv


@dataclass(frozen=True)
class ClusterProfile:
    """A cluster's mean busy-hour TCH traffic, in Erlang."""

    cluster_id: int
    tch_traffic_erl: float


@dataclass(frozen=True)
class HysteresisPolicy:
    """Hysteresis per traffic rank, quietest cluster first; checked when built."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("policy needs at least one hysteresis value")
        for v in self.values:
            if not HYSTERESIS_MIN <= v <= HYSTERESIS_MAX:
                raise ConfigurationError(
                    f"hysteresis {v} outside [{HYSTERESIS_MIN}, {HYSTERESIS_MAX}]"
                )
        if list(self.values) != sorted(self.values):
            raise ConfigurationError(
                "policy values must be non-decreasing (busier clusters never get a smaller margin)"
            )


@dataclass(frozen=True)
class HysteresisAssignment:
    """cell_id -> hysteresis, plus the cluster each cell came from."""

    hysteresis: Mapping[str, int]
    cluster: Mapping[str, int]


def profile_clusters(labels: Sequence[int], kpis: Sequence[KpiRecord]) -> list[ClusterProfile]:
    """Per-cluster mean of the original (pre-standardization) TCH traffic.

    ``labels[i]`` is the cluster of ``kpis[i]``, one label per record; clusters
    are 0..max(labels), each with a member.
    """
    if len(labels) == 0:
        raise DataError("no cluster labels")
    profiles = []
    for cluster_id in range(int(max(labels)) + 1):
        members = [kpi for kpi, label in zip(kpis, labels) if label == cluster_id]
        if not members:
            raise DataError(f"cluster {cluster_id} has no members")
        profiles.append(ClusterProfile(
            cluster_id=cluster_id,
            tch_traffic_erl=math.fsum(m.tch_traffic_erl for m in members) / len(members),
        ))
    return profiles


def rank_and_assign(
    profiles: Sequence[ClusterProfile],
    policy: HysteresisPolicy,
    labels: Mapping[str, int],
) -> HysteresisAssignment:
    """Give every cell its cluster's hysteresis.

    ``labels`` name only profiled clusters. Clusters sort ascending by mean
    traffic (ties toward the smaller cluster id); rank r gets
    ``policy.values[r]``.
    """
    if len(profiles) != len(policy.values):
        raise ConfigurationError(
            f"policy has {len(policy.values)} values but there are {len(profiles)} clusters"
        )
    order = sorted(profiles, key=lambda p: (p.tch_traffic_erl, p.cluster_id))
    cluster_to_hyst = {p.cluster_id: policy.values[rank] for rank, p in enumerate(order)}
    hysteresis = {cell_id: cluster_to_hyst[cluster] for cell_id, cluster in labels.items()}
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
