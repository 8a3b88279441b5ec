"""Scale-drift reduction for simulated indoor monocular SLAM via
incremental 3D line-segment clustering and cluster-consistency
optimization."""

from .geometry import PoseSE3, Sim3, Trajectory, umeyama_alignment
from .worldgen import World, WorldSpec, generate_corridor
from .frontend import DriftConfig, EstimatedMap, ObservationConfig, drift_walk, simulate
from .clustering import ClusterStore, DegenerateSegmentError
from .clusteropt import OptProblem, OptReport, build_problem, evaluate_objective, solve
from .pipeline import RunResult, ScheduleConfig, propagate_to_poses, run
from .metrics import MetricsConfig, MetricsReport, ate, rpe, spline_interpolate

__all__ = [
    "PoseSE3",
    "Sim3",
    "umeyama_alignment",
    "World",
    "WorldSpec",
    "generate_corridor",
    "DriftConfig",
    "EstimatedMap",
    "ObservationConfig",
    "drift_walk",
    "simulate",
    "ClusterStore",
    "DegenerateSegmentError",
    "OptProblem",
    "OptReport",
    "build_problem",
    "evaluate_objective",
    "solve",
    "RunResult",
    "ScheduleConfig",
    "propagate_to_poses",
    "run",
    "MetricsConfig",
    "MetricsReport",
    "Trajectory",
    "ate",
    "rpe",
    "spline_interpolate",
]
