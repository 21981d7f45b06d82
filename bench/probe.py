"""A fixed piece of work that does not touch the program, timed on request.

    python3 bench/probe.py

reads one line per probe from standard input and answers each with the
probe's duration in seconds, until standard input closes.  ``run.py``
keeps one such process and asks it for a probe after every op, so that
op times can be scaled to a reference machine speed (see
``run.ScaledClock``).  The probe runs in its own process so that
nothing the program does to the benchmark's process (a thread left
running, a large heap, changed numpy state) slows the probe too and
cancels out of the scaled figures.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def probe() -> float:
    """Time about 15 ms of small numpy calls.

    Of the probes tried (interpreted loops, bulk array work, small array
    calls), a loop of small numpy calls tracked this machine's speed
    drift best; the README gives the comparison.
    """
    t0 = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 16)
    shifts = np.arange(8, dtype=np.uint64)
    ones = np.ones((1, 4, 4))
    acc = 0.0
    for i in range(300):
        y = np.clip(x * 1.01 + i * 1e-3, -0.5, 0.5)
        levels = np.round((y + 0.5) * 255.0).astype(np.uint64)
        bits = ((levels[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        back = (bits.astype(np.uint64) * (np.uint64(1) << shifts)).sum(axis=1)
        w = np.tensordot(ones, back[:4].astype(np.float64), axes=([1], [0]))
        acc += float(w[0, 0]) + float(np.concatenate([bits[0], bits[1]])[0])
    return time.perf_counter() - t0


if __name__ == "__main__":
    probe()  # the first call pays numpy's lazy set-up
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
