"""Memory probe for the per-machine generation unit.

Every ``generate`` worker pays for one :class:`SynthContext` plus one
machine's transient columns at a time, so their peak resident set is the
floor of a worker's footprint.  The probe runs in a fresh interpreter,
where ``VmHWM`` (the peak resident set the kernel reports) starts from a
clean import, and measures how far building the context and generating
two 92-day student-lab machines raise it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: Peak-RSS growth allowed for the context plus two 92-day machines, MiB.
#: The layout that kept the intensity grid and per-machine temporaries
#: grew ~101 MiB here (context ~53, machines ~48); the in-place layout
#: grows ~54 MiB (context ~31, machines ~23).  The bound sits between the
#: two, so allocator and NumPy-version noise passes while a return of the
#: whole-grid temporaries fails.
MAX_GROWTH_MB = 80.0

PROBE = """
import json


def hwm():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0


from repro.traces.generate import _generate_machine_columns
from repro.workloads.loadmodel import synth_context
from repro.workloads.profiles import PROFILES

config = PROFILES["student-lab"](n_machines=2, days=92, seed=3)
before = hwm()
synth_context(config)
after_context = hwm()
for mid in range(2):
    _generate_machine_columns((config, mid, mid, True, False))
print(json.dumps([after_context - before, hwm() - after_context]))
"""


@pytest.mark.skipif(
    not Path("/proc/self/status").is_file(), reason="needs /proc VmHWM"
)
def test_context_and_two_machines_peak_rss():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=120,
    )
    context_mb, machines_mb = json.loads(out.stdout.strip().splitlines()[-1])
    assert context_mb + machines_mb < MAX_GROWTH_MB, (
        f"context +{context_mb:.1f} MiB, two machines +{machines_mb:.1f} MiB"
    )
