"""Incremental agglomerative clustering of 3D segment vectors.

A segment joins the nearest existing cluster whose center it matches to
within a relative threshold of the center length (strict inequality),
trying both orientations of the segment vector; otherwise it seeds a new
cluster. Centers are running means of the signed member vectors and can
be recomputed exactly after the optimizer moves endpoints.

Observations arrive in batches (one solve interval at a time in the
pipeline). Each distinct (p1, p2) point pair of a batch is scanned once
against the centers at the batch start, and a cluster the batch creates
or moves too far is scanned against those pairs again. The rows are then
walked in order, rechecking a changed cluster only where a scan found it
near, and the later rows of a pair certified to keep joining its own
cluster only advance that cluster's mean; the result equals
assigning the observations one at a time, bit for bit (see
`ClusterStore.assign_batch`). Each walked row looks its (cluster, p1, p2,
sign) key up in the edge ids as soon as it is decided, a new key taking
the next id, and a certified pair's later rows take the id of its first
row, so edge ids run in order of first member without a sort.
"""

from __future__ import annotations

import logging
import math
import numbers

import numpy as np

from .frontend import OBS_FRAME, OBS_P1, OBS_P2, EstimatedMap
from .geometry import check_real, xyz_norms

log = logging.getLogger(__name__)

DEFAULT_REL_THRESHOLD = 0.005

MEMBER_COLUMNS = ("obs", "frame", "edge")
OBS, FRAME, EDGE = range(len(MEMBER_COLUMNS))
# One row per distinct (cluster, p1, p2, sign) member key; edge ids run in
# order of first member.
EDGE_COLUMNS = ("cluster", "p1", "p2", "sign")
E_CLUSTER, E_P1, E_P2, E_SIGN = range(len(EDGE_COLUMNS))

# The batch scan's prefilter, and skipping a moved cluster for a row outside
# its near set, rest on norms and squares carrying a few ulps of relative
# error. That holds while a norm's squares stay normal floats; a point pair
# or cluster outside this band is a scan candidate for every partner, and a
# changed cluster outside it enters every pair's near set.
_SAFE_NORMS = (2.0**-500, 2.0**500)
_SCAN_BLOCK = 256  # point pairs per block of the batch scan, to bound its temporaries
# Certified pair runs (see `ClusterStore.assign_batch`): a joining pair's
# scanned distance lies below lim / (2 (1 + rel)) shrunk by _CERT_SHRINK, and
# a batch of k rows certifies pairs only when k (1 + rel) <= _CERT_ROWS rel
# and rel <= _CERT_REL_MAX, the range the rounding bound is proven for.
_CERT_SHRINK = 1.0 - 2.0**-20
_CERT_ROWS = 2.0**28
_CERT_REL_MAX = 2.0**10


class DegenerateSegmentError(ValueError):
    """Raised when a segment observation has coincident endpoints."""


def _norm(x: float, y: float, z: float) -> float:
    """`geometry.xyz_norms` of one vector, on Python floats, as the per-row
    rechecks evaluate it inline: the same correctly rounded operations in
    the same order, so a distance or limit computed by a scan and the same
    one computed for a single row are the same float."""
    return math.sqrt(x * x + y * y + z * z)


def _safe(*norms):
    """Whether every given norm or limit lies in _SAFE_NORMS, elementwise."""
    lo, hi = _SAFE_NORMS
    return (np.minimum.reduce(norms) >= lo) & (np.maximum.reduce(norms) <= hi)


def _near_append(near, rows, cids, centers, vs, lim):
    """Set near[row][cluster] = (distance, sign) for each pair (row,
    cluster) of `rows` and `cids` with min(|c - v|, |c + v|) < 2 lim, and
    return those rows, clusters and distances as arrays. A near set holds
    each cluster once: a later scan of a cluster replaces its entry.

    `centers`, `vs` and `lim` broadcast against the pairs; the sign is +1
    when |c - v| <= |c + v|.
    """
    (px, py, pz), (qx, qy, qz) = centers.T, vs.T
    d_pos = xyz_norms(px - qx, py - qy, pz - qz)
    d_neg = xyz_norms(px + qx, py + qy, pz + qz)
    d = np.minimum(d_pos, d_neg)
    hit = d < 2 * lim
    rows, cids, d = rows[hit], cids[hit], d[hit]
    pos = (d_pos <= d_neg)[hit]
    for r, c, dc, p in zip(rows.tolist(), cids.tolist(), d.tolist(), pos.tolist()):
        near[r][c] = (dc, 1 if p else -1)
    return rows, cids, d


def _advance(center, n: int, v, sign: int, k: int) -> list[float]:
    """`center` of a cluster of n members after k more joins of the
    vector sign * v, one incremental mean at a time: the walk's
    (x * n + sign * vx) / (n + 1), with n held as an exact float."""
    x, y, z = center
    vx, vy, vz = sign * v[0], sign * v[1], sign * v[2]
    m = float(n)
    for _ in range(k):
        m1 = m + 1.0
        x = (x * m + vx) / m1
        y = (y * m + vy) / m1
        z = (z * m + vz) / m1
        m = m1
    return [x, y, z]


def _index_array(obs_indices, n_obs: int) -> np.ndarray:
    """A batch of observation indices as one int64 array: a 1-D integer
    array converts whole and is bounds-checked by its min and max, any other
    iterable (a range included) is checked element by element. Raises
    ValueError naming the first index that is not an integer from 0 to
    n_obs - 1 (bools are not)."""
    batch = obs_indices
    if isinstance(batch, np.ndarray) and batch.ndim == 1 and batch.dtype.kind in "iu":
        if len(batch) and not 0 <= batch.min() <= batch.max() < n_obs:
            i = batch[np.argmax((batch < 0) | (batch >= n_obs))]
            raise ValueError(f"observation index {int(i)} is not an integer from 0 to {n_obs - 1}")
        return batch.astype(np.int64, copy=False)
    batch = list(batch)
    for i in batch:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < n_obs:
            raise ValueError(f"observation index {i!r} is not an integer from 0 to {n_obs - 1}")
    return np.array(list(map(int, batch)), dtype=np.int64)


class ClusterStore:
    """Clusters as arrays: a member table, a center matrix, per-cluster
    member counts and an edge table.

    Cluster ids are dense and allocated in creation order, so row i of the
    center matrix and entry i of the counts belong to cluster id i. Every
    member is one row of an int64 table (columns MEMBER_COLUMNS, assignment
    order) naming its observation, frame and edge. Members sharing a
    (cluster, p1, p2, sign) key share one edge, the only place that key is
    stored; center recomputation and the solve-problem builder work over the
    edge table rather than every member row.
    """

    def __init__(self, rel_threshold: float = DEFAULT_REL_THRESHOLD):
        check_real("rel_threshold", rel_threshold, 0, strict=True)
        self._rel = float(rel_threshold)
        self._centers = np.empty((0, 3))
        self._counts = np.empty(0, dtype=np.int64)
        self._n_clusters = 0
        # column-major: each batch scans the obs column for repeats
        self._table = np.empty((len(MEMBER_COLUMNS), 0), dtype=np.int64)
        self._n_members = 0
        self._max_obs = -1  # largest assigned observation id
        self._edge_ids: dict[tuple[int, int, int, int], int] = {}  # key -> edge id
        self._edges = np.empty((len(EDGE_COLUMNS), 0), dtype=np.int64)  # column-major
        # members assigned before the last recompute; a later join leaves its
        # cluster with an incremental mean, whose bits can differ from the exact one
        self._n_recomputed = 0

    def __len__(self) -> int:
        return self._n_clusters

    @property
    def rel_threshold(self) -> float:
        """The relative gate of every assignment: a finite real > 0 (bools
        are not), checked when the store is built."""
        return self._rel

    @property
    def member_table(self) -> np.ndarray:
        """(members, 3) int64 rows, columns MEMBER_COLUMNS, assignment order."""
        return self._table[:, : self._n_members].T

    @property
    def edge_table(self) -> np.ndarray:
        """(edges, 4) int64 rows, columns EDGE_COLUMNS, in edge-id order."""
        return self._edges[:, : len(self._edge_ids)].T

    @property
    def centers(self) -> np.ndarray:
        """(clusters, 3) centers; row i belongs to cluster id i."""
        return self._centers[: self._n_clusters]

    @property
    def counts(self) -> np.ndarray:
        """(clusters,) int64 member counts; entry i belongs to cluster id i."""
        return self._counts[: self._n_clusters]

    def assign(self, index: int, emap: EstimatedMap) -> int:
        """Place observation `index` into the store and return its cluster id.

        Raises DegenerateSegmentError if its endpoints coincide.
        """
        if self.assign_batch([index], emap):
            raise DegenerateSegmentError(f"observation {index} has coincident endpoints; discarded")
        return int(self._edges[E_CLUSTER, self._table[EDGE, self._n_members - 1]])

    def assign_batch(self, obs_indices, emap: EstimatedMap) -> list[int]:
        """Assign observations in order; return those discarded as degenerate.

        Each observation joins the cluster minimizing the two-sided distance
        min(|c - v|, |c + v|) among clusters with distance strictly below
        rel_threshold * |c| (ties by lowest cluster id; sign +1 when
        |c - v| <= |c + v|); otherwise it seeds a new singleton cluster. The
        joined center becomes the incremental mean of the signed member
        vectors. Observations with coincident endpoints are discarded, each
        with a logged warning.

        Points do not move within a batch, so the rows sharing a (p1, p2)
        pair share one vector. Each distinct pair is scanned once against
        the centers at the batch start (`_scan`), and a cluster is scanned
        against the same pairs again when the batch creates it or a join
        moves it more than lim / (2 (1 + rel)) from its latest scan. A scan
        keeps, per pair, the clusters within twice their limit
        lim = rel_threshold * |c| (the pair's near set); a cluster whose
        norm or limit lies outside _SAFE_NORMS enters every near set when
        it is created or first changes. A row recomputes a changed cluster,
        with the same expression, only from its near set. Any other changed
        cluster had distance >= 2 lim at its latest scan and has moved by
        at most delta <= lim / (2 (1 + rel)) since, so its distance is
        still >= 2 lim - delta and its limit at most lim + rel delta, which
        is smaller. An unchanged cluster keeps its scanned distance, so the
        result equals assigning the observations one at a time, bit for bit.

        Certified pairs. Most rows repeat a pair whose first row in the batch
        already decided where they go. `_scan` certifies a pair when its
        norm lies in _SAFE_NORMS and its near set holds no cluster, or one
        cluster c, with norm and limit in _SAFE_NORMS, that no other pair's
        near set holds, at scanned distance d >= lim (the first row creates
        a cluster) or d < B (1 - 2^-20), B = lim / (2 (1 + rel)) (it joins c).
        Only a certified pair's first row is walked; its later rows join the
        same cluster with the same sign, and its center advances over them
        with the walk's incremental mean, row by row (`_advance`).

        Why this is exact. Every later row adds the same signed vector
        w = s v, so in exact arithmetic each later center is a mean of c
        and w, on the segment from c to w, of length d < B < |c| / 2. Its
        distance to w stays at most d, below its limit of at least
        rel (|c| - d) by lim / 2; |c - w| < |c + w| keeps holding with a
        margin of 2 |c| / (1 + rel); and it moves at most d < B from where
        it was scanned, so it is not scanned again. Rounding, with
        u = 2^-53: every center of the run has norm below 1.5 |c|, and
        one step rounds three operations per coordinate, so it lands within
        (3 u + 4 u^2) 1.5 |c| < 4.6 u |c| of the exact mean of the previous
        center and w. The exact step contracts toward w, so after the K < k
        steps of a batch of k rows the center lies within E = 4.6 k u |c|
        of the exact one. With k (1 + rel) <= 2^28 rel, E < 2^-21.7 B, which
        leaves more than 2^-21 B of the 2^-20 B margin. That covers the
        rounding of d, of B and of math.dist (a few ulps each) and, since
        lim >= 2^-500 and rel <= 2^10 give B >= 2^-512, the at most 2^-536
        by which squares that underflow can change a norm. So the move
        test never fires, and the limit and sign tests keep their margins
        of about lim / 2 and 2 |c| / (1 + rel), far above rounding. A
        created cluster starts at v itself, d = 0, and the same E bounds
        its drift. Below rel = k / (2^28 - k), or above 2^10, a batch
        certifies nothing.

        One guard covers what the batch-start scan cannot see: a cluster
        scanned in the walk that lands near a pair other than its row's, or
        enters every near set, decertifies the pairs it lands near. Their
        rows counted so far are applied (they come before the current row
        and touch only their own cluster), and their later rows are walked.

        Raises ValueError, before changing the store, if an index is not an
        integer from 0 to len(emap.observations) - 1 (bools are not), the
        batch repeats an observation or it holds one already assigned.
        """
        batch = _index_array(obs_indices, len(emap.observations))
        if not len(batch):
            return []
        if not (batch[1:] > batch[:-1]).all() and len(np.unique(batch)) < len(batch):
            raise ValueError("batch repeats an observation")
        if batch.min() <= self._max_obs:
            again = np.intersect1d(batch, self._table[OBS, : self._n_members])
            if len(again):
                raise ValueError(f"observation {again[0]} already assigned")
        observations = emap.observations[batch]
        vs = emap.points[observations[:, OBS_P2]] - emap.points[observations[:, OBS_P1]]
        degenerate = xyz_norms(*vs.T) == 0.0
        discarded = batch[degenerate].tolist()
        for i in discarded:
            log.warning("observation %d has coincident endpoints; discarded", i)
        if discarded:
            keep = ~degenerate
            batch, observations, vs = batch[keep], observations[keep], vs[keep]
        if len(batch):
            self._walk(batch, observations, vs)
        return discarded

    def _walk(self, batch, observations: np.ndarray, vs: np.ndarray) -> None:
        k, rel = len(batch), self._rel
        self._reserve(self._n_clusters + k, self._n_members + k, len(self._edge_ids) + k)
        p1s, p2s = observations[:, OBS_P1], observations[:, OBS_P2]
        # Rows sharing a (p1, p2) pair share a vector, so the scan runs once
        # per pair, on its first row; reversed pairs are different keys.
        _, first, pairs = np.unique(
            p1s * (p2s.max() + 1) + p2s, return_index=True, return_inverse=True
        )
        pair_vs = vs[first]
        pair_p1, pair_p2 = p1s[first].tolist(), p2s[first].tolist()
        near, lim, safe, certified = self._scan(pair_vs)
        all_pairs = np.arange(len(first))
        centers, counts = self._centers, self._counts
        moved_scale = 1.0 / (2.0 * (1.0 + rel))

        # Centers and counts this batch changed or created, as Python values;
        # written back to the arrays once, after the walk.
        current: dict[int, list[float]] = {}
        n_of: dict[int, int] = {}
        start: dict[int, list[float]] = {}  # changed cluster -> the center of its latest scan
        edge_ids, n_edges = self._edge_ids, len(self._edge_ids)
        eids, new_edges = [], []  # each row's edge id; the keys of new edges
        vecs = pair_vs.tolist()
        # A certified pair's later rows are only counted in its run,
        # [cluster, sign, rows, edge], until `flush` applies them (see assign_batch).
        if k * (1.0 + rel) <= _CERT_ROWS * rel and rel <= _CERT_REL_MAX:
            cert = certified.tolist()
        else:
            cert = [False] * len(first)
        runs = [None] * len(first)

        def flush(r):
            cert[r], run, runs[r] = False, runs[r], None
            if run is not None and run[2]:
                c, s, p, _ = run
                current[c] = _advance(current[c], n_of[c], vecs[r], s, p)
                n_of[c] += p

        def scan(c, center, u):  # `_scan` of cluster c at `center`, then the guard (assign_batch)
            start[c] = center
            norm = _norm(*center)
            lim[c] = rel * norm
            if _safe(norm, lim[c]):
                cid = np.full(len(first), c)
                hit = _near_append(near, all_pairs, cid, np.array(center), pair_vs, lim[c])[0].tolist()
                if hit == [u]:
                    return
            else:  # in every near set, and never scanned again
                lim[c] = math.inf
                hit = all_pairs.tolist()
                for r in hit:
                    near[r][c] = (math.inf, 1)
            for r in hit:
                if cert[r]:
                    flush(r)

        for u in pairs.tolist():
            run = runs[u]
            if run is not None:
                run[2] += 1
                eids.append(run[3])
                continue
            v = vecs[u]
            vx, vy, vz = v
            best, best_d, sign = -1, math.inf, 1
            check = []  # the changed clusters in the near set
            for c, (dc, s) in near[u].items():
                if c in start:
                    check.append(c)
                elif dc < lim[c] and (dc < best_d or dc == best_d and c < best):
                    best, best_d, sign = c, dc, s
            # `_norm`, inlined: sqrt((x*x + y*y) + z*z) in the scan's order
            for c in check:
                x, y, z = current[c]
                a, b, e = x - vx, y - vy, z - vz
                dp = math.sqrt(a * a + b * b + e * e)
                a, b, e = x + vx, y + vy, z + vz
                dn = math.sqrt(a * a + b * b + e * e)
                dc = dn if dn < dp else dp  # min(dp, dn)
                if (dc < best_d or dc == best_d and c < best) and dc < rel * math.sqrt(
                    x * x + y * y + z * z
                ):
                    best, best_d, sign = c, dc, 1 if dp <= dn else -1

            if best < 0:
                best, sign = self._n_clusters, 1
                self._n_clusters += 1
                current[best], n_of[best] = v, 1
                lim.append(0.0)  # set by the scan
                scan(best, v, u)
            else:
                if best not in current:  # its first change since the batch-start scan
                    current[best], n_of[best] = centers[best].tolist(), int(counts[best])
                    if safe[best]:
                        start[best] = current[best]
                    else:
                        scan(best, current[best], u)
                (x, y, z), n = current[best], n_of[best]
                new = [
                    (x * n + sign * vx) / (n + 1),
                    (y * n + sign * vy) / (n + 1),
                    (z * n + sign * vz) / (n + 1),
                ]
                current[best] = new
                n_of[best] = n + 1
                if math.dist(new, start[best]) > lim[best] * moved_scale:
                    scan(best, new, u)
            # Rows sharing a (cluster, p1, p2, sign) key share an edge. Rows
            # are walked in order, so a new key's next id keeps edge ids in
            # order of first member.
            key = (best, pair_p1[u], pair_p2[u], sign)
            e = edge_ids.get(key)
            if e is None:
                e = edge_ids[key] = len(edge_ids)
                new_edges.append(key)
            eids.append(e)
            if cert[u]:  # its first row
                runs[u] = [best, sign, 0, e]
        for r in range(len(runs)):
            flush(r)
        centers[list(current)] = list(current.values())
        counts[list(n_of)] = list(n_of.values())
        if new_edges:
            self._edges[:, n_edges : len(edge_ids)] = np.array(new_edges, dtype=np.int64).T

        n = self._n_members
        table = self._table[:, n : n + k]
        table[OBS] = batch
        table[FRAME] = observations[:, OBS_FRAME]
        table[EDGE] = eids
        self._n_members = n + k
        self._max_obs = max(self._max_obs, int(batch.max()))

    def _scan(self, vs: np.ndarray):
        """The near set of each row of vs (one per point pair of the batch)
        against the current centers, each cluster's limit and whether its
        norm and limit lie in _SAFE_NORMS, and whether each row's pair is
        certified (a bool array; the rule is in `assign_batch`).

        A near set maps cluster -> (distance, sign), in ascending cluster
        id, for the clusters with min(|c - v|, |c + v|) < 2 lim0, lim0 = rel |c|.
        Only candidate pairs get those two distances: with G = v . c, a pair
        is a candidate iff

            |v|^2 + |c|^2 - 2 |G| < 4 lim0^2 + 2^-30 (|v|^2 + |c|^2).

        The left side is min(|c - v|, |c + v|)^2 in exact arithmetic. While
        the squares stay normal floats, rounding moves either side by a few
        ulps of |v|^2 + |c|^2 + 4 lim0^2. A near pair has 4 lim0^2 at most
        about |v|^2 + |c|^2 unless it passes the test by a wide margin, so
        the 2^-30 term covers that error. Clusters and rows whose norm or
        limit lies outside _SAFE_NORMS are always candidates. So every near
        pair is a candidate, and its distances are the same floats a dense
        (rows, clusters) scan computes.
        """
        rel, centers = self._rel, self._centers[: self._n_clusters]
        cx, cy, cz = centers.T
        norm0 = xyz_norms(cx, cy, cz)
        lim0 = rel * norm0
        safe = _safe(norm0, lim0)
        vnorm = xyz_norms(*vs.T)
        safe_rows = _safe(vnorm)
        # The test as |2G| > (|v|^2 + |c|^2)(1 - 2^-30) - 4 lim0^2, a row
        # term plus a cluster term; doubling the centers is exact.
        keep = 1.0 - 2.0**-30
        row_term = keep * (vnorm * vnorm)
        col_term = keep * (norm0 * norm0) - 4.0 * (lim0 * lim0)
        twice = 2.0 * centers.T
        row_blocks, col_blocks = [], []
        for a in range(0, len(vs), _SCAN_BLOCK):
            g = np.abs(vs[a : a + _SCAN_BLOCK] @ twice)
            cand = g > row_term[a : a + _SCAN_BLOCK, None] + col_term
            cand[~safe_rows[a : a + _SCAN_BLOCK]] = True
            cand[:, ~safe] = True
            r, c = np.nonzero(cand)
            row_blocks.append(r + a)
            col_blocks.append(c)
        rows, cols = np.concatenate(row_blocks), np.concatenate(col_blocks)
        near = [{} for _ in range(len(vs))]
        rows, cols, d = _near_append(near, rows, cols, centers[cols], vs[rows], lim0[cols])
        # The certification rule of assign_batch, on the near pairs
        per_row = np.bincount(rows, minlength=len(vs))
        per_col = np.bincount(cols, minlength=len(centers))
        lim = lim0[cols]
        bound = lim * (1.0 / (2.0 * (1.0 + rel))) * _CERT_SHRINK
        private = (per_row[rows] == 1) & (per_col[cols] == 1) & safe[cols]
        certified = per_row == 0
        certified[rows] = private & ((d >= lim) | (d < bound))
        return near, lim0.tolist(), safe.tolist(), certified & safe_rows

    def _reserve(self, n_clusters: int, n_members: int, n_edges: int) -> None:
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
        if n_edges > self._edges.shape[1]:
            size = max(64, 2 * self._edges.shape[1], n_edges)
            edges = np.empty((len(EDGE_COLUMNS), size), dtype=np.int64)
            edges[:, : len(self._edge_ids)] = self._edges[:, : len(self._edge_ids)]
            self._edges = edges

    def recompute_centers(self, emap: EstimatedMap, moved) -> None:
        """Replace centers by the exact mean of current member vectors.

        `moved` names the point ids whose coordinates changed any bit since
        the last recompute (a superset does too; every point id redoes every
        cluster). Only clusters with an edge on a moved point or a member
        assigned since the last recompute are redone: every other center
        already is the exact mean of vectors that did not change.

        Members of one edge share one signed vector, computed once per edge;
        each redone cluster sums its members' vectors in table order, so its
        center has the bits of a sum over member rows.
        """
        n = self._n_clusters
        if not n:
            return
        pos = emap.points
        ecid, p1, p2, sign = self.edge_table.T
        sign, d = sign.astype(float), pos[p2] - pos[p1]
        eids = self._table[EDGE, : self._n_members]  # edge of each member row
        hit = np.zeros(len(pos), dtype=bool)
        hit[moved] = True
        dirty = np.zeros(n, dtype=bool)
        dirty[ecid[hit[p1] | hit[p2]]] = True
        dirty[ecid[eids[self._n_recomputed :]]] = True
        eids = eids[dirty[ecid][eids]]  # one gather through a per-edge mask
        redo = np.flatnonzero(dirty)
        cids = ecid[eids]
        # bincount adds in index order, one coordinate of the signed edge
        # vectors at a time, gathered into a contiguous column
        sums = np.column_stack(
            [np.bincount(cids, weights=(sign * d[:, a])[eids], minlength=n) for a in range(3)]
        )
        self._centers[redo] = sums[redo] / self.counts[redo, None]
        self._n_recomputed = self._n_members
