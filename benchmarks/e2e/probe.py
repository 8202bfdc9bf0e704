"""Fixed calibration workload for the end-to-end benchmark.

The harness runs this script as a child process before every timed
command and after the last one, and divides each command's wall time by
the mean of the two probes around it.  The mix mirrors what the CLI
spends its time on — interpreter start-up, a large import, numpy array
work, pure-Python dictionary churn and zlib — so a machine that is
slower for a while slows both by about the same factor.

It must never import ``repro``: a change to the code under test would
otherwise move the yardstick along with the thing it measures.
"""

import zlib

import numpy as np

values = np.random.default_rng(12345).random(1_000_000)
np.sort(values)

table: dict[int, int] = {}
for i in range(400_000):
    key = i % 4099
    table[key] = table.get(key, 0) + i

blob = values[:200_000].tobytes()
if zlib.decompress(zlib.compress(blob, 6)) != blob:
    raise SystemExit("zlib round trip changed the data")
