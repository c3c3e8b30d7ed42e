"""Calibration child: a fixed job that uses no dhq code, timed beside each command.

The host this benchmark runs on shares its cores, and its speed drifts by tens
of percent over minutes for every program alike.  `run.py` starts this script
as a child right after each dhq command and reports command times in units of
its wall time, so the drift cancels.  The job mixes what dhq commands spend
their time on: interpreter start-up and the numpy import, `eigh` and matrix
products, JSON encoding and decoding, and plain Python loops.  It prints one
checksum so that the work cannot be skipped.
"""

import json

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48))
    a = a + a.T
    total = 0.0
    for _ in range(4):
        w, v = np.linalg.eigh(a)
        total += float(w[-1]) + float(np.abs(v @ v.T).sum())
    doc = {"rows": [[float(i), float(j)] for i in range(100) for j in range(40)]}
    for _ in range(2):
        total += len(json.loads(json.dumps(doc))["rows"])
    count = 0
    for i in range(30000):
        count += i * i % 7
    print(total + count)


if __name__ == "__main__":
    main()
