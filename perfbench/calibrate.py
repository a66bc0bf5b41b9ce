"""A fixed reference kernel that tells how fast the machine runs right now.

The benchmark may share its cores, caches and memory bandwidth with other
tenants, and their load changes the speed of the same code by up to 2x over
seconds to minutes. The reference kernel is timed between passes and its
time scales the pass between, so a pass reads as it would on a machine where
the kernel takes ``NOMINAL_S``. The kernel never calls ofanet, so a change to
the program moves the scaled times exactly as it moves the raw ones.

Its mix follows the pretrain step: a 3,584-wide head with an MSE loss and
its backward on arrays of 15 MB each, which lean on the shared cache as
enmap's head does, and small d=64 transformer-block ops whose cost is mostly
interpreter and call overhead, as the other modalities' steps are.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's time, in seconds, on a quiet 2-vCPU Intel Xeon VM with
# OpenBLAS at 1 thread; it sets the unit of the scaled times
NOMINAL_S = 0.08

_rng = np.random.default_rng(0)
_TOKENS = _rng.standard_normal((512, 64))
_HEAD = _rng.standard_normal((64, 3584)) * 0.1
_TARGET = _rng.standard_normal((512, 3584))
_X = _rng.standard_normal((16 * 17, 64))
_W1 = _rng.standard_normal((64, 256)) * 0.1
_W2 = _rng.standard_normal((256, 64)) * 0.1
_Q = _rng.standard_normal((16, 17, 64))


def _head() -> None:
    diff = _TOKENS @ _HEAD - _TARGET
    grad = diff * (2.0 / diff.size)
    _TOKENS.T @ grad
    grad @ _HEAD.T


def _blocks() -> None:
    x = _X
    for _ in range(4):
        h = x @ _W1
        h = 0.5 * h * (1.0 + np.tanh(0.79788456 * (h + 0.044715 * h**3)))
        y = h @ _W2
        x = (y - y.mean(-1, keepdims=True)) / np.sqrt(y.var(-1, keepdims=True) + 1e-5)
        a = _Q @ _Q.transpose(0, 2, 1)
        a = np.exp(a - a.max(-1, keepdims=True))
        a /= a.sum(-1, keepdims=True)


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = perf_counter()
    _head()
    _blocks()
    _blocks()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor turning the raw time of an interval, with the reference
    timed just before and just after it, into the scaled time."""
    return 2.0 * NOMINAL_S / (before + after)
