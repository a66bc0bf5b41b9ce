"""Test-local tape nodes and chains: the op chains that fused kernel ops and
the model's row-sparse training step replaced, and the scalar projection the
gradient tests take of an op's output.

``masked_mse`` is the MIM loss as it was composed before ``ndtensor.mse``
took the masked rows itself: ``gather_rows_batch`` over the prediction, a
gather of the target's rows, then an unmasked MSE node whose forward and
backward are the former ``ndtensor.mse``, verbatim.

``full_row_mim_loss`` is the training loss as ``model.mim_forward_batch``
composed it before it embedded only the visible rows and reconstructed only
the masked ones: every row embedded, then the visible tokens gathered;
every row through the reconstruction head, then the masked rows gathered
into ``masked_mse``.

``dot(y, c)`` is sum(y * c) for a constant c, with gradient g * c: the model
never reduces a tensor on the tape, so the kernel has no such op.
"""

from __future__ import annotations

import numpy as np

from ofanet import model as m
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


def full_row_mim_loss(
    net: m.OfaNet, stream: np.ndarray, modality: str, batch, ratio: float, rng_keys
) -> Tensor:
    """``mim_forward_batch``'s loss over all n rows of each image."""
    patches = stream[np.asarray(batch, dtype=np.intp)]
    weight, bias = (net.params[f"embedder.{modality}.{k}"] for k in ("weight", "bias"))
    tokens = ndt.add(ndt.linear(Tensor(patches), weight, bias), net.backbone_pos)
    masked, visible = m.draw_masks(net.dims.tokens, ratio, rng_keys)
    latent = m.encode_tokens(net, ndt.gather_rows_batch(tokens, visible))

    prefix = f"decoder.{modality}."
    decoder = [t for name, t in net.params.items() if name.startswith(prefix)]
    proj_w, proj_b, mask_token, *blocks, norm_g, norm_b, head_w, head_b = decoder
    b, k = masked.shape
    restore = np.argsort(np.concatenate([visible, masked], axis=1), axis=1)
    tile = ndt.add(Tensor(np.zeros((b, k, mask_token.shape[0]))), mask_token)
    full = ndt.gather_rows_batch(ndt.concat([ndt.linear(latent, proj_w, proj_b), tile], axis=1), restore)
    x = m._stack_forward(ndt.add(full, net.decoder_pos), blocks, net.dims.heads)
    pred = ndt.linear(ndt.layernorm(x, norm_g, norm_b), head_w, head_b)
    return masked_mse(pred, patches, masked)


def dot(y: Tensor, c) -> Tensor:
    """sum(y * c) as a scalar node; c is a constant that broadcasts to y."""
    c = np.broadcast_to(np.asarray(c, dtype=y.data.dtype), y.shape)
    return ndt._result(np.sum(y.data * c), (y,), lambda g: (g * c,))
