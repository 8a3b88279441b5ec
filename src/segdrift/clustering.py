"""Incremental agglomerative clustering of 3D segment vectors.

A segment joins the nearest existing cluster whose center it matches to
within a relative threshold of the center length (strict inequality),
trying both orientations of the segment vector; otherwise it seeds a new
cluster. Centers are running means of the signed member vectors and can
be recomputed exactly after the optimizer moves endpoints.

Observations arrive in batches (one frame at a time in the pipeline). A
batch is scanned against the centers once, as one distance matrix, and
then walked in order; the result equals assigning its observations one
at a time, bit for bit (see `ClusterStore.assign_batch`).
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np

from .frontend import OBS_FRAME, OBS_P1, OBS_P2, EstimatedMap

log = logging.getLogger(__name__)

DEFAULT_REL_THRESHOLD = 0.005

MEMBER_COLUMNS = ("obs", "frame", "cluster", "p1", "p2", "sign")
OBS, FRAME, CLUSTER, P1, P2, SIGN = range(len(MEMBER_COLUMNS))

# Skipping a moved cluster for a row outside its near set rests on norms
# carrying a few ulps of relative error. That holds while a norm's squares
# stay normal floats; outside this band a moved cluster is recomputed for
# every later row of its batch instead.
_SAFE_NORMS = (2.0**-500, 2.0**500)


class DegenerateSegmentError(ValueError):
    """Raised when a segment observation has coincident endpoints."""


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis. Every distance and limit goes
    through this one expression, so a value computed in a batch matrix and
    the same value computed for a few rows are the same float."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


class ClusterStore:
    """Clusters as three arrays: a member table, a center matrix and
    per-cluster member counts.

    Cluster ids are dense and allocated in creation order, so row i of the
    center matrix and entry i of the counts belong to cluster id i. Every
    member is one row of an int64 table (columns MEMBER_COLUMNS, assignment
    order), which center recomputation, serialization and the solve-problem
    builder read as arrays.
    """

    def __init__(self):
        self._centers = np.empty((0, 3))
        self._counts = np.empty(0, dtype=np.int64)
        self._n_clusters = 0
        # column-major: each batch scans the obs column for repeats
        self._table = np.empty((len(MEMBER_COLUMNS), 0), dtype=np.int64)
        self._n_members = 0

    def __len__(self) -> int:
        return self._n_clusters

    @property
    def member_table(self) -> np.ndarray:
        """(members, 6) int64 rows, columns MEMBER_COLUMNS, assignment order."""
        return self._table[:, : self._n_members].T

    @property
    def centers(self) -> np.ndarray:
        """(clusters, 3) centers; row i belongs to cluster id i."""
        return self._centers[: self._n_clusters]

    @property
    def counts(self) -> np.ndarray:
        """(clusters,) int64 member counts; entry i belongs to cluster id i."""
        return self._counts[: self._n_clusters]

    def assign(
        self,
        obs_index: int,
        emap: EstimatedMap,
        rel_threshold: float = DEFAULT_REL_THRESHOLD,
    ) -> int:
        """Place one observation into the store and return its cluster id.

        Raises DegenerateSegmentError if its endpoints coincide.
        """
        if self.assign_batch([obs_index], emap, rel_threshold):
            raise DegenerateSegmentError(
                f"observation {obs_index} has coincident endpoints; discarded"
            )
        return int(self._table[CLUSTER, self._n_members - 1])

    def assign_batch(
        self,
        obs_indices,
        emap: EstimatedMap,
        rel_threshold: float = DEFAULT_REL_THRESHOLD,
    ) -> list[int]:
        """Assign observations in order; return those discarded as degenerate.

        Each observation joins the cluster minimizing the two-sided distance
        min(|c - v|, |c + v|) among clusters with distance strictly below
        rel_threshold * |c| (ties by lowest cluster id; sign +1 when
        |c - v| <= |c + v|); otherwise it seeds a new singleton cluster. The
        joined center becomes the incremental mean of the signed member
        vectors. Observations with coincident endpoints are discarded.

        The batch is scanned once against the centers as they stand at its
        start; each row keeps the clusters within twice their limit (its
        near set). While walking the rows, only clusters whose center has
        changed can differ from that scan, and they are recomputed with the
        same expression: clusters created in this batch, changed clusters in
        the row's near set, and changed clusters that moved by more than
        lim0 / (2 (1 + rel_threshold)) since the batch started. A changed
        cluster outside all three had distance >= 2 lim0 and moved by at
        most delta <= lim0 / (2 (1 + rel)), so its distance is still
        >= 2 lim0 - delta and its limit at most lim0 + rel delta, which is
        smaller. Every other cluster keeps its scanned value, so the result
        equals assigning the observations one at a time.

        Raises ValueError, before changing the store, if the batch repeats
        an observation or holds one that is already assigned.
        """
        batch = [int(i) for i in obs_indices]
        if len(set(batch)) < len(batch):
            raise ValueError("batch repeats an observation")
        assigned = self._table[OBS, : self._n_members]
        if batch and len(assigned) and min(batch) <= assigned.max():
            again = np.intersect1d(batch, assigned)
            if len(again):
                raise ValueError(f"observation {again[0]} already assigned")
        if not batch:
            return []
        observations = emap.observations[batch]
        vs = emap.points[observations[:, OBS_P2]] - emap.points[observations[:, OBS_P1]]
        degenerate = (_norms(vs) == 0.0).tolist()
        discarded = [i for i, bad in zip(batch, degenerate) if bad]
        if discarded:
            keep = [j for j, bad in enumerate(degenerate) if not bad]
            batch = [batch[j] for j in keep]
            observations = observations[keep]
            vs = vs[keep]
        if batch:
            self._walk(batch, observations, vs, rel_threshold)
        return discarded

    def _walk(self, batch, observations: np.ndarray, vs: np.ndarray, rel) -> None:
        k = len(batch)
        m0 = self._n_clusters
        self._reserve(m0 + k, self._n_members + k)
        centers, counts = self._centers, self._counts

        c0 = centers[:m0]
        d_pos = _norms(c0 - vs[:, None])
        d_neg = _norms(c0 + vs[:, None])
        norm0 = _norms(c0)
        lim0 = rel * norm0
        d = np.minimum(d_pos, d_neg)
        rows, cols = np.nonzero(d < 2 * lim0)
        near = [[] for _ in range(k)]  # per row: (cluster, scanned distance, sign)
        for r, c, dc, pos in zip(
            rows.tolist(), cols.tolist(), d[rows, cols].tolist(), (d_pos <= d_neg)[rows, cols].tolist()
        ):
            near[r].append((c, dc, 1 if pos else -1))
        lo, hi = _SAFE_NORMS
        skip_ok = ((np.minimum(norm0, lim0) >= lo) & (np.maximum(norm0, lim0) <= hi)).tolist()
        lim0 = lim0.tolist()
        moved_scale = 1.0 / (2.0 * (1.0 + rel))

        start: dict[int, list[float]] = {}  # changed cluster -> its center at batch start
        recompute: set[int] = set()  # clusters recomputed for every later row
        cids, signs = [], []
        for j, v in enumerate(vs.tolist()):
            best, best_d, sign = -1, math.inf, 1
            check = set(recompute)
            for c, dc, s in near[j]:  # ascending cluster id
                if c in start:
                    check.add(c)
                elif dc < lim0[c] and dc < best_d:
                    best, best_d, sign = c, dc, s
            if check:
                ids = sorted(check)
                sub = centers[ids]
                d_pos = _norms(sub - vs[j]).tolist()
                d_neg = _norms(sub + vs[j]).tolist()
                lims = (rel * _norms(sub)).tolist()
                for c, dp, dn, lim in zip(ids, d_pos, d_neg, lims):
                    dc = min(dp, dn)
                    if dc < lim and (dc < best_d or (dc == best_d and c < best)):
                        best, best_d, sign = c, dc, 1 if dp <= dn else -1

            if best < 0:
                best, sign = self._n_clusters, 1
                self._n_clusters += 1
                centers[best] = v
                counts[best] = 1
                recompute.add(best)
            else:
                n = int(counts[best])
                old = centers[best].tolist()
                new = [(a * n + sign * b) / (n + 1) for a, b in zip(old, v)]
                centers[best] = new
                counts[best] = n + 1
                if best not in recompute:
                    first = start.setdefault(best, old)
                    if not skip_ok[best] or math.dist(new, first) > lim0[best] * moved_scale:
                        recompute.add(best)
            cids.append(best)
            signs.append(sign)

        n = self._n_members
        table = self._table[:, n : n + k]
        table[OBS] = batch
        table[FRAME] = observations[:, OBS_FRAME]
        table[CLUSTER] = cids
        table[P1] = observations[:, OBS_P1]
        table[P2] = observations[:, OBS_P2]
        table[SIGN] = signs
        self._n_members = n + k

    def _reserve(self, n_clusters: int, n_members: int) -> None:
        """Grow the buffers, doubling, to hold the given numbers of rows."""
        if n_clusters > len(self._centers):
            size = max(8, 2 * len(self._centers), n_clusters)
            centers = np.empty((size, 3))
            centers[: self._n_clusters] = self.centers
            counts = np.zeros(size, dtype=np.int64)
            counts[: self._n_clusters] = self.counts
            self._centers, self._counts = centers, counts
        if n_members > self._table.shape[1]:
            size = max(64, 2 * self._table.shape[1], n_members)
            table = np.empty((len(MEMBER_COLUMNS), size), dtype=np.int64)
            table[:, : self._n_members] = self._table[:, : self._n_members]
            self._table = table

    def recompute_centers(self, emap: EstimatedMap) -> None:
        """Replace every center by the exact mean of current member vectors."""
        n = self._n_clusters
        if not n:
            return
        pos = emap.points
        table = self.member_table
        cids = table[:, CLUSTER]
        vs = table[:, SIGN].astype(float)[:, None] * (pos[table[:, P2]] - pos[table[:, P1]])
        # bincount adds in index order, one coordinate at a time
        sums = np.column_stack([np.bincount(cids, weights=vs[:, a], minlength=n) for a in range(3)])
        self._centers[:n] = sums / self.counts[:, None]

    def to_json(self) -> list[dict]:
        table = self.member_table
        by_cluster = table[np.argsort(table[:, CLUSTER], kind="stable")][:, [OBS, SIGN]]
        members = np.split(by_cluster, np.cumsum(self.counts)[:-1])
        return [
            {
                "id": cid,
                "center": center,
                "cardinality": len(rows),
                "members": [{"observation": i, "sign": s} for i, s in rows.tolist()],
            }
            for cid, (center, rows) in enumerate(zip(self.centers.tolist(), members))
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
    """Assign a batch of observations in order, discarding (and logging)
    degenerate ones. Returns the number discarded."""
    discarded = store.assign_batch(obs_indices, emap, rel_threshold)
    for i in discarded:
        log.warning("observation %d has coincident endpoints; discarded", i)
    return len(discarded)
