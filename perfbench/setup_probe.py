"""Set-up probe: one fresh interpreter imports sphglass and loads one config.

    python3 perfbench/setup_probe.py '<config JSON>'

Prints the seconds from the first ``sphglass`` import to the loaded config,
raw and rescaled to the reference host speed of a ``"mixed"`` probe.
The span is under a second, so the host is sampled right after it, not
during it: sampling from a signal handler would interrupt the imports.
``run.py`` starts it several times per run and reports the median of the
rescaled times as ``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from sphglass import cli  # noqa: E402  (the import is what is timed)

cli.load_config(sys.argv[1])
seconds = time.perf_counter() - start

from hostspeed import SpeedProbe  # noqa: E402  (numpy is loaded by now)

probe = SpeedProbe("mixed")
for _ in range(20):
    probe.sample()
print(repr(seconds), repr(probe.scaled(seconds)))
