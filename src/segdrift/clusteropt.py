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

from .clustering import E_CLUSTER, E_P1, E_P2, EDGE, FRAME, ClusterStore
from .frontend import EstimatedMap
from .geometry import check_int, check_real, refuse_first

DEFAULT_ANCHOR_WEIGHT = 1e-3
DEFAULT_ITERATION_CAP = 10
INITIAL_DAMPING = 1e-4

# One row per weighted unique edge. A record array rather than a plain
# matrix: its columns differ in type and shape, and each row still reads by
# attribute (edge.cluster_id, edge.p1_id, ...) as the benchmark tracer's
# build-problem counter and the per-edge objective oracle do.
EDGE_DTYPE = np.dtype([
    ("cluster_id", np.int64),
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
    # (2, m) rows in point_ids of each edge's p1_id and p2_id
    endpoint_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_real("anchor_weight", self.anchor_weight, 0)
        check_int("iteration_cap", self.iteration_cap, 1)
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64)
        edges = np.asarray(self.edges, dtype=EDGE_DTYPE)  # field reads skip recarray's hooks
        self.edges = edges.view(np.recarray)
        # solve's early exit needs a positive semi-definite Laplacian
        weight, sign = edges["weight"], edges["sign"]
        bad_weight = ~((weight >= 0) & (weight < math.inf))
        refuse_first(
            bad_weight, lambda i: f"edge {i} weight must be finite and non-negative, got {weight[i]}"
        )
        bad_sign = (sign != 1) & (sign != -1)
        refuse_first(bad_sign, lambda i: f"edge {i} sign must be 1 or -1, got {sign[i]}")
        self.endpoint_rows = _endpoint_rows(self.point_ids, edges)

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

    def to_json(self) -> dict:
        return {
            "initial_objective": self.initial_objective,
            "final_objective": self.final_objective,
            "iterations": self.iterations,
            "objective_trace": self.objective_trace,
            "diagnostics": self.diagnostics,
        }


def build_problem(store: ClusterStore, emap: EstimatedMap, frames: range) -> OptProblem:
    """Build the optimization problem over the cluster members in a window.

    The window range(lo, hi) takes the members observed in frames lo to
    hi - 1; range(n_frames) takes every member. Any other value (None, a
    set, or a range whose step is not 1) is a ValueError. The in-scope
    members of one store edge (equal cluster, p1, p2, sign) form one
    problem edge whose weight is their count. Edges are ordered by cluster
    id, then by first in-scope member; point ids by first appearance in
    that order. Centers are frozen at their current values; only endpoint
    positions are free.

    Nothing sorts member rows: counts are a bincount over edge ids, and
    each edge's first in-scope row comes from np.minimum.at, so only the
    edges in scope are sorted.
    """
    if not isinstance(frames, range) or frames.step != 1:
        raise ValueError(f"frames must be a range with step 1, got {frames!r}")
    store_edges, members = store.edge_table, store.member_table
    frame_col = members[:, FRAME]
    rows = np.flatnonzero((frame_col >= frames.start) & (frame_col < frames.stop))
    scope_edges = members[rows, EDGE]
    counts = np.bincount(scope_edges, minlength=len(store_edges))
    first = np.full(len(store_edges), len(members))
    np.minimum.at(first, scope_edges, rows)
    scoped = np.flatnonzero(counts)
    picked = scoped[np.lexsort((first[scoped], store_edges[scoped, E_CLUSTER]))]
    keys = store_edges[picked]
    ends = keys[:, [E_P1, E_P2]].ravel()
    _, first_end = np.unique(ends, return_index=True)
    point_ids = ends[np.sort(first_end)]
    edges = np.empty(len(keys), dtype=EDGE_DTYPE)
    edges["cluster_id"], edges["p1_id"], edges["p2_id"], edges["sign"] = keys.T
    edges["center"] = store.centers[edges["cluster_id"]]
    edges["weight"] = counts[picked]
    return OptProblem(point_ids, emap.points[point_ids], edges)


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


def solve(problem: OptProblem):
    """Levenberg-Marquardt minimization of the cluster objective.

    Returns (positions, report), positions the (n, 3) optimized coordinates
    in point_ids order. Steps are accepted only if the objective decreases;
    damping is raised on rejection. The loop is deterministic and the
    iteration cap ends it right after the cap-th accepted step, so solving
    the same problem with iteration_cap=k returns its iterate k.
    """
    n = problem.n_points
    lam = problem.anchor_weight
    report = OptReport(0.0, 0.0, 0, [])
    edges = np.asarray(problem.edges)  # plain ndarray: field reads skip recarray's Python hooks
    if not len(edges):  # n > 0 whenever there are edges: every endpoint is a point id
        return problem.initial.copy(), report

    i1, i2 = problem.endpoint_rows
    # Contiguous float copies: the loop reads these columns every iteration.
    sign, centers, weight = (edges[c].astype(float) for c in ("sign", "center", "weight"))
    x0 = problem.initial.copy()
    x = x0.copy()

    # Residuals are linear in x, so the Gauss-Newton hessian J^T W J is
    # constant: a weighted graph-Laplacian block structure (D - A) kron I3
    # plus the anchor diagonal. Solving per coordinate with the (n, n)
    # factor keeps the dense solve cheap at desk scale. bincount adds in
    # index order, so each entry sums its terms in the order of four
    # successive np.add.at passes: (i1, i1), (i2, i2), (i1, i2), (i2, i1).
    cells = np.concatenate((i1 * n + i1, i2 * n + i2, i1 * n + i2, i2 * n + i1))
    lap = np.bincount(cells, np.concatenate((weight, weight, -weight, -weight)), n * n)
    lap = lap.reshape(n, n)
    diagonal = lap.diagonal().copy()  # each step sets lap's diagonal to this plus lam + mu
    signed_weight = (weight * sign)[:, None]
    # gradient terms go to point i1 then i2, three coordinates per point
    grad_cells = (np.concatenate((i1, i2))[:, None] * 3 + np.arange(3)).ravel()

    def objective(xc):
        """The objective at xc and the edge residuals it summed."""
        r = residual(centers, sign, xc[i1], xc[i2])
        f = float((weight[:, None] * r * r).sum())
        if lam > 0:
            d = xc - x0
            f += lam * float((d * d).sum())
        return f, r

    def gradient_half(xc, r):
        # J^T W r of the stacked residual (cluster edges + anchor rows), with
        # r the edge residuals at xc.
        # negation is exact: -terms has the bits of (-signed_weight) * r
        terms = signed_weight * r
        g = np.bincount(grad_cells, np.concatenate((terms, -terms)).ravel(), 3 * n)
        g = g.reshape(n, 3)
        if lam > 0:
            g += lam * (xc - x0)
        return g

    f, r = objective(x)
    report.initial_objective = f
    report.objective_trace.append(f)

    # Exact early exit. The normal matrix L + (lam + mu) I, L a Laplacian of
    # non-negative weights, has every row exceed its off-diagonal sum by
    # lam + mu, so |delta|_inf <= |g|_inf / (lam + mu) (Varah's bound).
    # Rounding in assembling and factoring it moves a row sum by a few
    # (n + m) eps times the summed weight; above rounding_floor that is under
    # a quarter of lam + mu, which the factor 2 below covers. A step smaller
    # than a quarter of spacing(|x_i|) rounds back to x_i, powers of two
    # included. So once 2 |g|_inf < (lam + mu) min_i spacing(|x_i|) / 4, the
    # step leaves x bit-unchanged and is rejected, and so is every later one,
    # since only mu changes and it grows: stop as the 51st rejection would.
    # A NaN, an inf or a zero coordinate keeps the test false.
    rounding_floor = 1024 * (n + len(edges)) * np.finfo(float).eps * float(weight.sum())

    mu = INITIAL_DAMPING
    accepted = 0
    rejects = 0
    g = None  # the gradient at x; a rejected step leaves both unchanged
    while accepted < problem.iteration_cap:
        if g is None:
            g = gradient_half(x, r)
            g_max = float(np.abs(g).max())
            quarter_ulp = float(np.spacing(np.abs(x)).min()) / 4
        damping = lam + mu
        if damping > rounding_floor and 2 * g_max < damping * quarter_ulp:
            report.diagnostics.append("damping limit reached; stopping")
            break
        lap.flat[:: n + 1] = diagonal + damping  # np.fill_diagonal's write, unchecked
        try:
            delta = -np.linalg.solve(lap, g)
        except np.linalg.LinAlgError:
            report.diagnostics.append(f"singular normal equations at damping {mu}")
            break
        x_new = x + delta
        f_new, r_new = objective(x_new)
        if f_new < f:
            x, f, r = x_new, f_new, r_new
            accepted += 1
            mu *= 0.5
            report.objective_trace.append(f)
            if float(np.abs(delta).max()) < 1e-14:
                break
            g = None
        else:
            mu *= 10.0
            rejects += 1
            if rejects > 50:
                report.diagnostics.append("damping limit reached; stopping")
                break

    report.final_objective = f
    report.iterations = accepted
    return x, report
