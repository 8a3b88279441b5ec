"""Scale-drift reduction for simulated indoor monocular SLAM via
incremental 3D line-segment clustering and cluster-consistency
optimization."""
