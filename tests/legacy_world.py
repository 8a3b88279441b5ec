"""The row layout of world files written before the columnar one: a JSON
object per segment and per pose. `world_from_json` still reads it."""

import json


def legacy_json(world) -> dict:
    segments = zip(world.endpoints.tolist(), world.archetypes.tolist())
    traj = world.trajectory
    poses = zip(traj.timestamps.tolist(), traj.quaternions.tolist(), traj.positions.tolist())
    return {
        "segments": [{"a": a, "b": b, "archetype": k} for (a, b), k in segments],
        "trajectory": [{"t": t, "q": q, "p": p} for t, q, p in poses],
        "seed": world.rng_seed,
    }


def legacy_text(world) -> str:
    """A legacy world file's text as `gen-world` wrote it."""
    return json.dumps(legacy_json(world), indent=1) + "\n"
