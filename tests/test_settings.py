"""Every settings class checks itself when built: a config that exists is valid."""

from dataclasses import fields, replace

import numpy as np
import pytest

from segdrift.clusteropt import OptProblem
from segdrift.frontend import DriftConfig, ObservationConfig
from segdrift.metrics import MetricsConfig
from segdrift.pipeline import ScheduleConfig
from segdrift.worldgen import WorldSpec

SETTINGS = (WorldSpec, DriftConfig, ObservationConfig, ScheduleConfig, MetricsConfig)
# Bad for every field: not a finite real, a bool, a numeric string, and a
# string that is no mode or alignment mode.
BAD_VALUES = (float("nan"), True, "1", "unknown")


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in SETTINGS for f in fields(cls)],
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
def test_bad_value_named_at_construction_and_replace(cls, name, bad):
    message = f"^{name} must be"
    with pytest.raises(ValueError, match=message):
        cls(**{name: bad})
    with pytest.raises(ValueError, match=message):
        replace(cls(), **{name: bad})



# The local solve's settings live on OptProblem alone; an empty problem
# carries them as any other does.
@pytest.mark.parametrize("name", ["anchor_weight", "iteration_cap"])
@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
def test_bad_solver_setting_named_at_construction_and_replace(name, bad):
    message = f"^{name} must be"
    with pytest.raises(ValueError, match=message):
        OptProblem([], np.zeros((0, 3)), [], **{name: bad})
    with pytest.raises(ValueError, match=message):
        replace(OptProblem([], np.zeros((0, 3)), []), **{name: bad})
