"""Incremental agglomerative clustering of 3D segment vectors.

A segment joins the nearest existing cluster whose center it matches to
within a relative threshold of the center length (strict inequality),
trying both orientations of the segment vector; otherwise it seeds a new
cluster. Centers are running means of the signed member vectors and can
be recomputed exactly after the optimizer moves endpoints.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .frontend import EstimatedMap

log = logging.getLogger(__name__)

DEFAULT_REL_THRESHOLD = 0.005


class DegenerateSegmentError(ValueError):
    """Raised when a segment observation has coincident endpoints."""


@dataclass
class Cluster:
    id: int
    center: np.ndarray
    members: list[tuple[int, int]] = field(default_factory=list)  # (obs index, sign)

    @property
    def cardinality(self) -> int:
        return len(self.members)


MEMBER_COLUMNS = ("obs", "frame", "cluster", "p1", "p2", "sign")
OBS, FRAME, CLUSTER, P1, P2, SIGN = range(len(MEMBER_COLUMNS))


class ClusterStore:
    """Id-indexed clusters plus an observation -> (cluster, sign) index.

    Cluster ids are dense and allocated in creation order, so the center
    matrix row i belongs to cluster id i; the linear scan over that matrix
    is what keeps incremental assignment cheap. Every member is also a row
    of one int64 table (columns MEMBER_COLUMNS, assignment order), which the
    center recomputation and the solve-problem builder read as arrays.
    """

    def __init__(self):
        self.clusters: dict[int, Cluster] = {}
        self.membership: dict[int, tuple[int, int]] = {}  # obs index -> (cluster id, sign)
        self._centers = np.empty((0, 3))
        # one row per member in assignment order; columns are MEMBER_COLUMNS
        self._table = np.empty((0, len(MEMBER_COLUMNS)), dtype=np.int64)
        self._n_members = 0

    def __len__(self) -> int:
        return len(self.clusters)

    def signed_vector(self, obs_index: int, emap: EstimatedMap) -> np.ndarray:
        obs = emap.observations[obs_index]
        return emap.points[obs.p2_id].position - emap.points[obs.p1_id].position

    def assign(
        self,
        obs_index: int,
        emap: EstimatedMap,
        rel_threshold: float = DEFAULT_REL_THRESHOLD,
    ) -> int:
        """Place one observation into the store and return its cluster id.

        The observation joins the cluster minimizing the two-sided distance
        min(|v - c|, |-v - c|) among clusters with distance strictly below
        rel_threshold * |c| (ties by lowest cluster id); otherwise a new
        singleton cluster is created. The joining center is updated to the
        incremental mean of the signed member vectors.
        """
        if obs_index in self.membership:
            raise ValueError(f"observation {obs_index} already assigned")
        obs = emap.observations[obs_index]
        v = self.signed_vector(obs_index, emap)
        if np.linalg.norm(v) == 0.0:
            raise DegenerateSegmentError(
                f"observation {obs_index} has coincident endpoints; discarded"
            )

        cid = sign = None
        if len(self.clusters):
            centers = self._centers[: len(self.clusters)]
            d_pos = np.linalg.norm(centers - v, axis=1)
            d_neg = np.linalg.norm(centers + v, axis=1)
            signs = np.where(d_pos <= d_neg, 1, -1)
            d = np.minimum(d_pos, d_neg)
            limits = rel_threshold * np.linalg.norm(centers, axis=1)
            d = np.where(d < limits, d, np.inf)
            best = int(np.argmin(d))  # first minimum: lowest cluster id wins ties
            if np.isfinite(d[best]):
                cid, sign = best, int(signs[best])

        if cid is None:
            cid = len(self.clusters)
            sign = 1
            self.clusters[cid] = Cluster(cid, v.copy(), [(obs_index, 1)])
            if cid >= len(self._centers):
                grown = np.empty((max(8, 2 * len(self._centers)), 3))
                grown[: len(self._centers)] = self._centers
                self._centers = grown
            self._centers[cid] = v
        else:
            cluster = self.clusters[cid]
            n = cluster.cardinality
            cluster.center = (cluster.center * n + sign * v) / (n + 1)
            cluster.members.append((obs_index, sign))
            self._centers[cid] = cluster.center
        self.membership[obs_index] = (cid, sign)
        if self._n_members == len(self._table):
            grown = np.empty((max(64, 2 * len(self._table)), len(MEMBER_COLUMNS)), dtype=np.int64)
            grown[: self._n_members] = self._table
            self._table = grown
        self._table[self._n_members] = (obs_index, obs.frame, cid, obs.p1_id, obs.p2_id, sign)
        self._n_members += 1
        return cid

    @property
    def member_table(self) -> np.ndarray:
        """(members, 6) int64 rows, columns MEMBER_COLUMNS, assignment order."""
        return self._table[: self._n_members]

    @property
    def centers(self) -> np.ndarray:
        """(clusters, 3) centers; row i belongs to cluster id i."""
        return self._centers[: len(self.clusters)]

    def recompute_centers(self, emap: EstimatedMap) -> None:
        """Replace every center by the exact mean of current member vectors."""
        if not self.clusters:
            return
        pos = emap.position_array()
        table = self.member_table
        cids = table[:, CLUSTER]
        signs = table[:, SIGN].astype(float)
        vs = signs[:, None] * (pos[table[:, P2]] - pos[table[:, P1]])
        n = len(self.clusters)
        sums = np.zeros((n, 3))
        np.add.at(sums, cids, vs)
        counts = np.bincount(cids, minlength=n).astype(float)
        means = sums / counts[:, None]
        for cid, cluster in self.clusters.items():
            cluster.center = means[cid]
        self._centers[:n] = means

    def to_json(self) -> list[dict]:
        return [
            {
                "id": c.id,
                "center": list(c.center),
                "cardinality": c.cardinality,
                "members": [{"observation": i, "sign": s} for i, s in c.members],
            }
            for c in self.clusters.values()
        ]

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)
            f.write("\n")


def assign_all(
    store: ClusterStore,
    emap: EstimatedMap,
    obs_indices,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> int:
    """Assign a batch of observations, discarding degenerate ones. Returns
    the number discarded."""
    discarded = 0
    for i in obs_indices:
        try:
            store.assign(i, emap, rel_threshold)
        except DegenerateSegmentError as exc:
            log.warning("%s", exc)
            discarded += 1
    return discarded
