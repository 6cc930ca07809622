"""Cluster-to-hysteresis policy mapping.

Clusters are ranked by mean busy-hour traffic (busiest last) and each rank
gets a hysteresis value from the policy, so heavy clusters keep a wide idle
margin and quiet clusters are allowed to save aggressively.

The functions pass plain values: the cluster means as a list indexed by
cluster id, and the labels and hysteresis values as ``cell_id`` -> int dicts.
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
class HysteresisPolicy:
    """Hysteresis per traffic rank, quietest cluster first; each value's range
    and their order are checked when built. ``assign --policy`` gives at least
    one value."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if not HYSTERESIS_MIN <= v <= HYSTERESIS_MAX:
                raise ConfigurationError(
                    f"hysteresis {v} outside [{HYSTERESIS_MIN}, {HYSTERESIS_MAX}]"
                )
        if list(self.values) != sorted(self.values):
            raise ConfigurationError(
                "policy values must be non-decreasing (busier clusters never get a smaller margin)"
            )


def profile_clusters(labels: Sequence[int], kpis: Sequence[KpiRecord]) -> list[float]:
    """Per-cluster mean of the original (pre-standardization) TCH traffic, in
    Erlang, indexed by cluster id.

    ``labels[i]`` is the cluster of ``kpis[i]``, one label per record; clusters
    are 0..max(labels), each with a member.
    """
    if len(labels) == 0:
        raise DataError("no cluster labels")
    means = []
    for cluster_id in range(int(max(labels)) + 1):
        members = [kpi for kpi, label in zip(kpis, labels) if label == cluster_id]
        if not members:
            raise DataError(f"cluster {cluster_id} has no members")
        means.append(math.fsum(m.tch_traffic_erl for m in members) / len(members))
    return means


def rank_and_assign(
    means: Sequence[float],
    policy: HysteresisPolicy,
    labels: Mapping[str, int],
) -> dict[str, int]:
    """``cell_id`` -> its cluster's hysteresis, in the order of ``labels``.

    ``means[c]`` is cluster c's mean traffic, and ``labels`` name only those
    clusters. Clusters sort ascending by mean traffic (ties toward the smaller
    cluster id); rank r gets ``policy.values[r]``.
    """
    if len(means) != len(policy.values):
        raise ConfigurationError(
            f"policy has {len(policy.values)} values but there are {len(means)} clusters"
        )
    order = sorted(range(len(means)), key=lambda c: (means[c], c))
    cluster_to_hyst = {c: policy.values[rank] for rank, c in enumerate(order)}
    return {cell_id: cluster_to_hyst[cluster] for cell_id, cluster in labels.items()}


ASSIGNMENT_CSV_HEADER = ["cell_id", "cluster", "hysteresis"]
PUSH_CSV_HEADER = ["cell_id", "BTSPSHYST"]


def write_assignment_csv(labels: Mapping[str, int], hysteresis: Mapping[str, int],
                         path: Union[str, Path]) -> None:
    """One ``cell_id,cluster,hysteresis`` row per cell of ``hysteresis``, in its
    order, with its cluster from ``labels``; every id is checked before the file
    is opened."""
    write_csv(path, ASSIGNMENT_CSV_HEADER, [
        (check_cell_id(cell_id, str(path)), labels[cell_id], h)
        for cell_id, h in hysteresis.items()
    ])


def write_push_csv(hysteresis: Mapping[str, int], path: Union[str, Path]) -> None:
    """Operator change-request sheet: one BTSPSHYST value per cell; every id is
    checked before the file is opened."""
    write_csv(path, PUSH_CSV_HEADER,
              [(check_cell_id(cell_id, str(path)), h) for cell_id, h in hysteresis.items()])


def read_assignment_csv(path: Union[str, Path]) -> dict[str, int]:
    """``cell_id`` -> hysteresis, in row order; each row's cluster must be an
    integer too, though it is not kept."""
    hyst: dict[str, int] = {}
    for row_no, (cell_id, cluster, h) in read_csv(path, ASSIGNMENT_CSV_HEADER):
        try:
            int(cluster)
            hyst[cell_id] = int(h)
        except ValueError:
            raise DataError(f"{path}: row {row_no}: non-integer cluster or hysteresis") from None
        if not HYSTERESIS_MIN <= hyst[cell_id] <= HYSTERESIS_MAX:
            raise DataError(f"{path}: row {row_no}: hysteresis {hyst[cell_id]} outside "
                            f"[{HYSTERESIS_MIN}, {HYSTERESIS_MAX}]")
    return hyst
