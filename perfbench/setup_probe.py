"""One set-up sample for run.py, in a fresh process.

    python3 perfbench/setup_probe.py <workload> <empty directory>

Imports segdrift.cli from the checkout, generates the workload's world and
writes it with the cell configs, all under the speed probe. Prints a JSON
object: `done`, CLOCK_MONOTONIC at the end (the parent read the same clock
before starting this process), and the probe's total and mean slice time.
"""

import json
import sys
from pathlib import Path
from time import monotonic

import speed

probe = speed.SpeedProbe()
with probe.sampling():
    import workloads as wl

    wl.import_cli()
    wl.prepare(wl.WORKLOADS[sys.argv[1]], Path(sys.argv[2]))
    done = monotonic()
slices_s, mean_slice_s = probe.summary()
print(json.dumps({"done": done, "slices_s": slices_s, "mean_slice_s": mean_slice_s}))
