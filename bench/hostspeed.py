"""A fixed reference computation whose time tracks how fast the host runs
at the moment.

On a shared host the same computation takes up to twice as long while
neighbours load the machine, in spells that last from seconds to minutes
(CPU time equals wall time: contention, not waiting). Within one such spell
the toolkit and this probe slow down together, so the ratio of their times
holds steady where each alone does not. The benchmark times the probe
between its operations and scales its gated times by
REFERENCE_S / (the run's fastest probe): a time at the reference host
speed.

The probe is the benchmark's own code and never changes with the toolkit,
so a change to the toolkit moves a scaled time by the same share as the raw
one. It does the same kinds of work as the toolkit: feature strings counted
in a dict, small-matrix log-sum-exp recursions and a scatter-add.
"""

import time

import numpy as np

# The probe's fastest time on the machine where the benchmark was defined
# (2 vCPUs of an Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.0075

_rng = np.random.default_rng(0)
_TRANSITIONS = _rng.standard_normal((40, 6, 6))
_INDEX = _rng.integers(0, 50_000, 20_000)
_VALUES = _rng.standard_normal(20_000)
_WORDS = [f"tok{i % 997}" for i in range(3000)]


def probe() -> float:
    """Seconds taken by one run of the reference computation."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for i, word in enumerate(_WORDS):
        for feature in (f"w={word}", f"p3={word[:3]}", f"s2={word[-2:]}", f"prev={_WORDS[i - 1]}"):
            counts[feature] = counts.get(feature, 0) + 1
    weights = np.zeros(50_000)
    for _ in range(20):
        alpha = np.zeros(6)
        for t in range(len(_TRANSITIONS)):
            m = alpha[:, None] + _TRANSITIONS[t]
            top = m.max(axis=0)
            alpha = top + np.log(np.exp(m - top).sum(axis=0))
        np.add.at(weights, _INDEX, _VALUES)
    return time.perf_counter() - t0
