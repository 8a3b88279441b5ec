"""Cluster-consistency least-squares optimization of map-point positions.

Each cluster member contributes a residual between the frozen cluster
center and the member's signed segment vector; the objective is the sum
of squared residuals plus a soft anchor pulling free points toward their
initial positions. Members sharing a (cluster, endpoints, sign) key have
identical residuals, so each such key is one edge weighted by its count.
The residual is linear in the endpoint positions, so damped Gauss-Newton
(Levenberg-Marquardt) steps converge in very few iterations; damping
still guards the rank-deficient anchor-free case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import CLUSTER, FRAME, OBS, P1, P2, SIGN, ClusterStore
from .frontend import EstimatedMap

DEFAULT_ANCHOR_WEIGHT = 1e-3
DEFAULT_ITERATION_CAP = 10
INITIAL_DAMPING = 1e-4

# One row per weighted unique edge. A record array rather than a plain
# matrix: its columns differ in type and shape, and each row still reads by
# attribute (edge.cluster_id, edge.p1_id, ...) as the benchmark tracer's
# build-problem counter and the per-edge objective oracle do.
EDGE_DTYPE = np.dtype([
    ("cluster_id", np.int64),
    ("obs_index", np.int64),  # first member observation sharing the key
    ("p1_id", np.int64),
    ("p2_id", np.int64),
    ("sign", np.int64),
    ("center", np.float64, (3,)),  # frozen at build time
    ("weight", np.float64),  # number of observations sharing the key
])


def residual(center, sign, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Each edge's residual center - sign * (p2 - p1); leading axes broadcast."""
    return center - np.asarray(sign)[..., None] * (p2 - p1)


@dataclass
class OptProblem:
    point_ids: np.ndarray  # (n,) int64 free variables, in stable order
    initial: np.ndarray  # (n, 3) initial positions, also the anchor targets
    edges: np.recarray  # (m,) EDGE_DTYPE
    anchor_weight: float = DEFAULT_ANCHOR_WEIGHT
    iteration_cap: int = DEFAULT_ITERATION_CAP

    def __post_init__(self):
        if not 0 <= self.anchor_weight < math.inf:
            raise ValueError("anchor_weight must be finite and non-negative")
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=EDGE_DTYPE).view(np.recarray)
        _endpoint_rows(self.point_ids, np.asarray(self.edges))

    @property
    def n_points(self) -> int:
        return len(self.point_ids)


def _endpoint_rows(point_ids: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(2, m) rows in point_ids of the edges' p1_id and p2_id; ValueError if one is missing."""
    order = np.argsort(point_ids)
    ends = np.array((edges["p1_id"], edges["p2_id"]))
    at = np.searchsorted(point_ids, ends, sorter=order)
    found = at < len(order)
    found[found] = point_ids[order[at[found]]] == ends[found]
    if not found.all():
        raise ValueError(f"edge endpoint id {ends[~found][0]} is not in point_ids")
    return order[at]


@dataclass
class OptReport:
    initial_objective: float
    final_objective: float
    iterations: int
    objective_trace: list[float]
    diagnostics: list[str] = field(default_factory=list)
    iterate_positions: list[np.ndarray] | None = None  # (n, 3) each

    def to_json(self) -> dict:
        return {
            "initial_objective": self.initial_objective,
            "final_objective": self.final_objective,
            "iterations": self.iterations,
            "objective_trace": self.objective_trace,
            "diagnostics": self.diagnostics,
        }


def build_problem(
    store: ClusterStore,
    emap: EstimatedMap,
    frames: set[int] | None = None,
    anchor_weight: float = DEFAULT_ANCHOR_WEIGHT,
    iteration_cap: int = DEFAULT_ITERATION_CAP,
) -> OptProblem:
    """Build the optimization problem over cluster members in scope.

    frames=None takes every member (global scope); otherwise only members
    whose observation frame is in the set. Members with equal (cluster,
    p1, p2, sign) form one edge whose weight is their count and whose
    obs_index is the first of them. Edges are ordered by cluster id, then
    by first member; point ids by first appearance in that order. Centers
    are frozen at their current values; only endpoint positions are free.
    """
    table = store.member_table
    if frames is not None:
        table = table[np.isin(table[:, FRAME], np.fromiter(frames, dtype=np.int64))]
    if not len(table):
        return OptProblem([], np.zeros((0, 3)), [], anchor_weight, iteration_cap)

    cid, p1, p2 = table[:, CLUSTER], table[:, P1], table[:, P2]
    n_ids = int(max(p1.max(), p2.max())) + 1
    positive = (table[:, SIGN] > 0).astype(np.int64)
    key = np.ravel_multi_index((cid, p1, p2, positive), (len(store), n_ids, n_ids, 2))
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.lexsort((first, cid[first]))
    rows, counts = table[first[order]], counts[order]

    ends = rows[:, [P1, P2]].ravel()
    _, first_end = np.unique(ends, return_index=True)
    point_ids = ends[np.sort(first_end)]
    edges = np.rec.fromarrays(
        (*rows[:, [CLUSTER, OBS, P1, P2, SIGN]].T, store.centers[rows[:, CLUSTER]], counts.astype(float)),
        dtype=EDGE_DTYPE,
    )
    return OptProblem(point_ids, emap.points[point_ids], edges, anchor_weight, iteration_cap)


def evaluate_objective(problem: OptProblem, positions: dict[int, np.ndarray]) -> float:
    """Recompute the objective from scratch for positions keyed by point id.

    Kept as a plain per-edge loop, independent of the solver's vectorized
    path, so it can serve as an oracle for solver-reported values.
    """
    total = 0.0
    for edge in problem.edges:  # a missing position raises KeyError
        e = residual(edge.center, edge.sign, positions[edge.p1_id], positions[edge.p2_id])
        total += edge.weight * float(np.dot(e, e))
    if problem.anchor_weight > 0:
        for i, pid in enumerate(problem.point_ids.tolist()):
            d = positions[pid] - problem.initial[i]
            total += problem.anchor_weight * float(np.dot(d, d))
    return float(total)


def solve(problem: OptProblem, record_iterates: bool = False):
    """Levenberg-Marquardt minimization of the cluster objective.

    Returns (positions, report), positions the (n, 3) optimized coordinates
    in point_ids order. Steps are accepted only if the objective decreases;
    damping is raised on rejection. With record_iterates=True the report
    carries a position snapshot for every accepted iterate.
    """
    n = problem.n_points
    lam = problem.anchor_weight
    report = OptReport(0.0, 0.0, 0, [], iterate_positions=[] if record_iterates else None)
    edges = np.asarray(problem.edges)  # plain ndarray: field reads skip recarray's Python hooks
    if not len(edges):  # n > 0 whenever there are edges: every endpoint is a point id
        return problem.initial.copy(), report

    i1, i2 = _endpoint_rows(problem.point_ids, edges)
    # Contiguous float copies: the loop reads these columns every iteration.
    sign, centers, weight = (edges[c].astype(float) for c in ("sign", "center", "weight"))
    x0 = problem.initial.copy()
    x = x0.copy()

    # Residuals are linear in x, so the Gauss-Newton hessian J^T W J is
    # constant: a weighted graph-Laplacian block structure (D - A) kron I3
    # plus the anchor diagonal. Solving per coordinate with the (n, n)
    # factor keeps the dense solve cheap at desk scale.
    lap = np.zeros((n, n))
    np.add.at(lap, (i1, i1), weight)
    np.add.at(lap, (i2, i2), weight)
    np.add.at(lap, (i1, i2), -weight)
    np.add.at(lap, (i2, i1), -weight)
    signed_weight = (weight * sign)[:, None]

    def objective(xc) -> float:
        r = residual(centers, sign, xc[i1], xc[i2])
        f = float((weight[:, None] * r * r).sum())
        if lam > 0:
            d = xc - x0
            f += lam * float((d * d).sum())
        return f

    def gradient_half(xc):
        # J^T W r of the stacked residual (cluster edges + anchor rows).
        r = residual(centers, sign, xc[i1], xc[i2])
        g = np.zeros_like(xc)
        np.add.at(g, i1, signed_weight * r)
        np.add.at(g, i2, -signed_weight * r)
        if lam > 0:
            g += lam * (xc - x0)
        return g

    f = objective(x)
    report.initial_objective = f
    report.objective_trace.append(f)
    if record_iterates:
        report.iterate_positions.append(x.copy())

    mu = INITIAL_DAMPING
    accepted = 0
    rejects = 0
    while accepted < problem.iteration_cap:
        g = gradient_half(x)
        try:
            delta = -np.linalg.solve(lap + (lam + mu) * np.eye(n), g)
        except np.linalg.LinAlgError:
            report.diagnostics.append(f"singular normal equations at damping {mu}")
            break
        x_new = x + delta
        f_new = objective(x_new)
        if f_new < f:
            x = x_new
            f = f_new
            accepted += 1
            mu *= 0.5
            report.objective_trace.append(f)
            if record_iterates:
                report.iterate_positions.append(x.copy())
            if float(np.abs(delta).max()) < 1e-14:
                break
        else:
            mu *= 10.0
            rejects += 1
            if rejects > 50:
                report.diagnostics.append("damping limit reached; stopping")
                break

    report.final_objective = f
    report.iterations = accepted
    return x, report
