"""Fixed calibration loops that measure how fast the host runs right now.

On a shared host, the same code can run 1.5 to 2 times slower for minutes
at a time. ``run.py`` divides each stage's wall time by a reading of the
host's speed taken just before and just after the stage, and scales it by
the loop's reference time. That gives the stage in seconds on a host as fast
as the reference one.

Two loops, because a busy host slows kinds of work by different amounts:

- ``interp``: many small numpy calls on (400, 3) arrays, the kind of work
  the design stage, simulation and the import do. Interpreter overhead
  dominates.
- ``dense``: a 300 x 300 SVD, the kind of work the identify and tune stages
  do. LAPACK and BLAS dominate.

Neither uses armid code, so no change to armid can move them.
"""

from __future__ import annotations

import time

import numpy as np

# About each loop's time on the baseline host when that host was not busy.
# Corrected times are seconds on a host this fast; the values set only the
# scale, and must stay fixed for runs to be comparable.
REFERENCE_S = {"interp": 0.0105, "dense": 0.0200}

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((400, 3))
_Y = _rng.standard_normal((400, 3))
_R = _rng.standard_normal((3, 3))
_M = _rng.standard_normal((300, 300))


def _interp() -> None:
    for _ in range(150):
        a = np.cross(_X, _Y)
        b = _X @ _R
        c = np.einsum("ij,ij->i", a, b)
        d = np.sin(_X) * np.cos(_Y)
        e = np.concatenate([a, b, d], axis=1)
        np.dot(e.T, e * c[:, None])


def _dense() -> None:
    np.linalg.svd(_M)


LOOPS = {"interp": _interp, "dense": _dense}
RUNS = {"interp": 12, "dense": 8}  # about 0.2 s of either on the baseline host


def sample(kind: str) -> float:
    """One reading: the mean time of a run of the loop, over about 0.2 s.

    The host's speed flickers within a fraction of a second, so a reading
    spans many runs of the loop to stand for the seconds around it. One
    untimed run comes first: without it, the first ``dense`` reading after
    interpreter-bound work read about 20% slow.
    """
    loop = LOOPS[kind]
    runs = RUNS[kind]
    loop()
    start = time.perf_counter()
    for _ in range(runs):
        loop()
    return (time.perf_counter() - start) / runs

