"""A fixed reference computation that gauges the host's current speed.

The benchmark runs on a shared host whose speed drifts: identical work ran
up to 2x slower for spells of seconds to minutes, with no steal time and
the process on CPU throughout, so neither CPU time nor a longer run removes
the drift.  The harness times this probe just before and after each timed
command, and reports each time as ``measured x REFERENCE_S / probe``: the
seconds the command would take on a host where the probe takes
``REFERENCE_S``.  The probe lives in the benchmark and uses no ``tailaug``
code, so a change to the program moves the scaled figures and never the
probe.

The probe mixes the three kinds of work the pipeline does: interpreted
Python over dicts and lists, many small numpy operations (a GRU-sized
recurrence) and one dense BLAS solve.
"""

from __future__ import annotations

import time

import numpy as np

# about the probe's median time on a shared 2-vCPU KVM guest (Intel Xeon,
# Sapphire Rapids); scaled figures read in seconds on that host at that speed
REFERENCE_S = 0.08

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((256, 32))
_W = _rng.standard_normal((64, 96)) * 0.1
_M = _rng.standard_normal((300, 300)) + 40.0 * np.eye(300)
_D = {i: (i * 7919) % 10007 for i in range(6000)}


def _python() -> int:
    odd = sum(k for k, v in _D.items() if v & 1)
    ranked = sorted(_D, key=_D.__getitem__)
    return odd + ranked[0] + len(",".join(map(str, ranked[:2000])))


def _small_numpy() -> float:
    h = np.zeros((256, 32))
    for _ in range(120):
        g = np.concatenate([_X, h], axis=1) @ _W
        z = 1.0 / (1.0 + np.exp(-g[:, :32]))
        h = z * h + (1.0 - z) * np.tanh(g[:, 64:])
    return float(h[0, 0])


def _dense() -> float:
    return float(np.linalg.solve(_M, _M[:, :100])[0, 0])


def probe() -> float:
    """Seconds the fixed reference computation takes now."""
    start = time.perf_counter()
    for _ in range(20):
        _python()
    _small_numpy()
    for _ in range(5):
        _dense()
    return time.perf_counter() - start
