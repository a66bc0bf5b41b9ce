"""Test-local tape nodes and chains: the op chains that fused kernel ops and
the model's row-sparse training step replaced, and the scalar projection the
gradient tests take of an op's output.

``masked_mse`` is the MIM loss as it was composed before
``ndtensor.linear_mse`` fused it into the reconstruction head: over the
head's output, a gather of the target rows from the table, then an unmasked
MSE node whose forward and backward are the former ``ndtensor.mse``'s, out
of place.

``full_row_mim_loss`` is the training loss with every row computed: every
row embedded, then the visible tokens gathered for the backbone; a decoder
query at every row, every row through the reconstruction head, then the
masked rows gathered into ``masked_mse``. Its decoder is spelled out block
by block, independently of ``model``, around ``head_attention``: a plain
numpy loop over heads, softmax(q·kᵀ/√dh)·v with n query rows against the k
visible context rows, and its textbook backward.

``dot(y, c)`` is sum(y * c) for a constant c, with gradient g * c: the model
never reduces a tensor on the tape, so the kernel has no such op.
"""

from __future__ import annotations

import math

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


def masked_mse(pred: Tensor, table: np.ndarray, samples, rows) -> Tensor:
    """pred [b, m, w] against ``table[samples[i], rows[i]]``."""
    rows = np.asarray(rows, dtype=np.intp)
    return unmasked_mse(pred, Tensor(table[np.asarray(samples, dtype=np.intp)[:, None], rows]))


def head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """[..., nq, d] queries over [..., nk, d] keys and values, one head
    slice of width dh = d / heads at a time."""
    dh = q.shape[-1] // heads
    cols = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    weights, out = [], np.empty_like(q.data)
    for c in cols:
        scores = q.data[..., c] @ np.swapaxes(k.data[..., c], -1, -2) / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights.append(e / e.sum(axis=-1, keepdims=True))
        out[..., c] = weights[-1] @ v.data[..., c]

    def grad_fn(g):
        gq, gk, gv = (np.empty_like(t.data) for t in (q, k, v))
        for c, w in zip(cols, weights):
            gw = g[..., c] @ np.swapaxes(v.data[..., c], -1, -2)
            gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) / math.sqrt(dh)
            gq[..., c] = gs @ k.data[..., c]
            gk[..., c] = np.swapaxes(gs, -1, -2) @ q.data[..., c]
            gv[..., c] = np.swapaxes(w, -1, -2) @ g[..., c]
        return gq, gk, gv

    return ndt._result(out, (q, k, v), grad_fn)


def full_row_mim_loss(
    net: m.OfaNet, stream: np.ndarray, modality: str, batch, ratio: float, rng_keys
) -> Tensor:
    """``mim_forward_batch``'s loss over all n rows of each image."""
    patches = stream[np.asarray(batch, dtype=np.intp)]
    weight, bias = (net.params[f"embedder.{modality}.{k}"] for k in ("weight", "bias"))
    tokens = ndt.add(ndt.linear(Tensor(patches), weight, bias), net.backbone_pos)
    masked, visible = m.draw_masks(net.dims.tokens, ratio, rng_keys)
    latent = m.encode_tokens(net, ndt.gather_rows_batch(tokens, visible))

    p = {name.split(".", 2)[2]: t for name, t in net.params.items() if name.startswith(f"decoder.{modality}.")}
    pos = net.decoder_pos.data
    context = ndt.add(ndt.linear(latent, p["proj.weight"], p["proj.bias"]), pos[visible])
    x = ndt.add(p["mask_token"], np.repeat(pos[None], len(batch), axis=0))
    for i in range(net.dims.decoder_depth):
        b = {name.split(".", 1)[1]: t for name, t in p.items() if name.startswith(f"block{i}.")}
        h = ndt.layernorm(x, b["ln1.gamma"], b["ln1.beta"])
        c = ndt.layernorm(context, b["ln1.gamma"], b["ln1.beta"])
        a = head_attention(ndt.linear(h, b["attn.wq"], b["attn.bq"]), ndt.matmul(c, b["attn.wk"]),
                           ndt.linear(c, b["attn.wv"], b["attn.bv"]), net.dims.heads)
        x = ndt.add(x, ndt.linear(a, b["attn.wo"], b["attn.bo"]))
        h = ndt.layernorm(x, b["ln2.gamma"], b["ln2.beta"])
        x = ndt.add(x, ndt.linear(ndt.gelu(ndt.linear(h, b["mlp.w1"], b["mlp.b1"])), b["mlp.w2"], b["mlp.b2"]))
    x = ndt.layernorm(x, p["norm.gamma"], p["norm.beta"])
    pred = ndt.linear(x, p["head.weight"], p["head.bias"])
    return masked_mse(ndt.gather_rows_batch(pred, masked), stream, batch, masked)


def dot(y: Tensor, c) -> Tensor:
    """sum(y * c) as a scalar node; c is a constant that broadcasts to y."""
    c = np.broadcast_to(np.asarray(c, dtype=y.data.dtype), y.shape)
    return ndt._result(np.sum(y.data * c), (y,), lambda g: (g * c,))
