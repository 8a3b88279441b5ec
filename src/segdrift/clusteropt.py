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

from .clustering import CLUSTER, FRAME, P1, P2, SIGN, ClusterStore
from .frontend import EstimatedMap

DEFAULT_ANCHOR_WEIGHT = 1e-3
DEFAULT_ITERATION_CAP = 10
DEFAULT_INITIAL_DAMPING = 1e-4


@dataclass(frozen=True)
class ClusterEdge:
    cluster_id: int
    obs_index: int
    p1_id: int
    p2_id: int
    sign: int
    center: np.ndarray  # frozen at build time
    weight: float = 1.0  # number of observations sharing this edge's key

    def residual(self, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        return self.center - self.sign * (p2 - p1)


@dataclass
class OptProblem:
    point_ids: list[int]  # free variables, in stable order
    initial: np.ndarray  # (n, 3) initial positions, also the anchor targets
    edges: list[ClusterEdge]
    anchor_weight: float = DEFAULT_ANCHOR_WEIGHT
    iteration_cap: int = DEFAULT_ITERATION_CAP
    initial_damping: float = DEFAULT_INITIAL_DAMPING

    def __post_init__(self):
        if not 0 <= self.anchor_weight < math.inf:
            raise ValueError("anchor_weight must be finite and non-negative")
        self.index = {pid: i for i, pid in enumerate(self.point_ids)}

    @property
    def n_points(self) -> int:
        return len(self.point_ids)


@dataclass
class OptReport:
    initial_objective: float
    final_objective: float
    iterations: int
    objective_trace: list[float]
    diagnostics: list[str] = field(default_factory=list)
    iterate_positions: list[dict[int, np.ndarray]] | None = None

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
    point_ids = ends[np.sort(first_end)].tolist()
    centers = store.centers[rows[:, CLUSTER]]
    edges = [
        ClusterEdge(c, o, a, b, s, centers[k], float(n))
        for k, ((o, _, c, a, b, s), n) in enumerate(zip(rows.tolist(), counts.tolist()))
    ]
    initial = np.array([emap.points[pid].position for pid in point_ids]).reshape(-1, 3)
    return OptProblem(point_ids, initial, edges, anchor_weight, iteration_cap)


def evaluate_objective(problem: OptProblem, positions: dict[int, np.ndarray]) -> float:
    """Recompute the objective from scratch for the given positions.

    Kept as a plain per-edge loop, independent of the solver's vectorized
    path, so it can serve as an oracle for solver-reported values.
    """
    total = 0.0
    for edge in problem.edges:
        for pid in (edge.p1_id, edge.p2_id):
            if pid not in positions:
                raise KeyError(f"no position supplied for endpoint id {pid}")
        e = edge.residual(positions[edge.p1_id], positions[edge.p2_id])
        total += edge.weight * float(np.dot(e, e))
    if problem.anchor_weight > 0:
        for i, pid in enumerate(problem.point_ids):
            d = positions[pid] - problem.initial[i]
            total += problem.anchor_weight * float(np.dot(d, d))
    return total


def _vectorized(problem: OptProblem):
    i1 = np.array([problem.index[e.p1_id] for e in problem.edges], dtype=int)
    i2 = np.array([problem.index[e.p2_id] for e in problem.edges], dtype=int)
    sign = np.array([e.sign for e in problem.edges], dtype=float)
    centers = np.array([e.center for e in problem.edges]).reshape(-1, 3)
    weight = np.array([e.weight for e in problem.edges], dtype=float)
    return i1, i2, sign, centers, weight


def _objective(x, x0, i1, i2, sign, centers, weight, lam) -> float:
    r = centers - sign[:, None] * (x[i2] - x[i1])
    f = float((weight[:, None] * r * r).sum())
    if lam > 0:
        d = x - x0
        f += lam * float((d * d).sum())
    return f


def solve(problem: OptProblem, record_iterates: bool = False):
    """Levenberg-Marquardt minimization of the cluster objective.

    Returns (positions, report) where positions maps point id to its
    optimized coordinates. Steps are accepted only if the objective
    decreases; damping is raised on rejection. With record_iterates=True
    the report carries a position snapshot for every accepted iterate.
    """
    n = problem.n_points
    lam = problem.anchor_weight
    report = OptReport(0.0, 0.0, 0, [], iterate_positions=[] if record_iterates else None)
    if n == 0 or not problem.edges:
        return {}, report

    i1, i2, sign, centers, weight = _vectorized(problem)
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

    def gradient_half(xc):
        # J^T W r of the stacked residual (cluster edges + anchor rows).
        r = centers - sign[:, None] * (xc[i2] - xc[i1])
        g = np.zeros_like(xc)
        np.add.at(g, i1, signed_weight * r)
        np.add.at(g, i2, -signed_weight * r)
        if lam > 0:
            g += lam * (xc - x0)
        return g

    f = _objective(x, x0, i1, i2, sign, centers, weight, lam)
    report.initial_objective = f
    report.objective_trace.append(f)
    if record_iterates:
        report.iterate_positions.append(
            {pid: x[i].copy() for i, pid in enumerate(problem.point_ids)}
        )

    mu = problem.initial_damping
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
        f_new = _objective(x_new, x0, i1, i2, sign, centers, weight, lam)
        if f_new < f:
            x = x_new
            f = f_new
            accepted += 1
            mu *= 0.5
            report.objective_trace.append(f)
            if record_iterates:
                report.iterate_positions.append(
                    {pid: x[i].copy() for i, pid in enumerate(problem.point_ids)}
                )
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
    positions = {pid: x[i].copy() for i, pid in enumerate(problem.point_ids)}
    return positions, report
