"""Test-local tape nodes: the op chains that fused kernel ops replaced, and
the scalar projection the gradient tests take of an op's output.

``masked_mse`` is the MIM loss as it was composed before ``ndtensor.mse``
took the masked rows itself: ``gather_rows_batch`` over the prediction, a
gather of the target's rows, then an unmasked MSE node whose forward and
backward are the former ``ndtensor.mse``, verbatim.

``dot(y, c)`` is sum(y * c) for a constant c, with gradient g * c: the model
never reduces a tensor on the tape, so the kernel has no such op.
"""

from __future__ import annotations

import numpy as np

from ofanet import ndtensor as ndt
from ofanet.ndtensor import Tensor


def unmasked_mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements, float64 loss, gradient in
    ``pred``'s dtype; the target is a constant."""
    diff = pred.data - target.data
    count = diff.size
    flat = diff.reshape(-1)
    loss = np.einsum("i,i->", flat, flat, dtype=np.float64) / count

    def grad_fn(g):
        return (diff * (2.0 * float(g) / count),)

    return ndt._result(loss, (pred,), grad_fn)


def masked_mse(pred: Tensor, target: np.ndarray, rows) -> Tensor:
    rows = np.asarray(rows, dtype=np.intp)
    target_rows = target[np.arange(rows.shape[0])[:, None], rows]
    return unmasked_mse(ndt.gather_rows_batch(pred, rows), Tensor(target_rows))


def dot(y: Tensor, c) -> Tensor:
    """sum(y * c) as a scalar node; c is a constant that broadcasts to y."""
    c = np.broadcast_to(np.asarray(c, dtype=y.data.dtype), y.shape)
    return ndt._result(np.sum(y.data * c), (y,), lambda g: (g * c,))
