"""Dense float tensor kernel with reverse-mode automatic differentiation.

Just enough surface for a small Vision Transformer, and no op it does not
call: ``add``, ``matmul``, ``linear``, ``attention``, the row gather of a
mask split, layer norm, GELU and ``linear_mse``. ``matmul`` is
``[..., k] @ [k, m]`` with the leading dims folded into one gemm, and
computes no gradient for an input that does not require one.
``linear(a, w, b)`` adds the bias into the matmul's own fresh array: the two
tape nodes and bytes of ``add(matmul(a, w), b)``, one array fewer.
``attention`` is one tape node for head split, scaled scores, softmax,
weighted sum and head merge, over keys and values of any length (the
decoder's masked queries attend to the visible latents). Its softmax takes
the row max over keys from a key-major contiguous copy of the scores: numpy
reduces a short contiguous last axis one row at a time, but the leading axis
of a contiguous array element by element, whole rows at once. A max returns
one of its inputs and NaN propagates either way; only the sign of a zero max
can differ, and ``exp(y - max)`` erases it, so the bytes are the same. The
softmax and layer-norm sums and means keep numpy's row-by-row order.
``gather_rows_batch`` takes its rows as a mask split (``[b, m]``, m >= 1, in
range, no row repeated within a sample), so its backward scatters by plain
assignment. ``linear_mse`` is the reconstruction head and the masked loss
in one node: the head's product becomes the difference from the target rows,
which it reads from the table one sample at a time.

Ops and their grad_fns never write into their inputs or into a gradient
they receive (``add`` hands one gradient array to both parents). They may
write into arrays they allocated themselves, which is how ``gelu``,
``attention`` and ``layernorm`` chain their steps with ``out=`` and how
``linear_mse``'s backward reuses its forward's difference (so, like every node,
its grad_fn runs once); each such chain keeps the textbook expression's
operations and their order, so the bytes are the same. Outputs are fresh
contiguous arrays. Every op whose result requires grad is recorded on a
module-level tape; calling ``backward(loss)`` walks the tape once in
reverse, accumulates ``.grad`` on the leaves that require grad (tensors no
recorded op produced, such as parameters), and clears the tape. A leaf's
``.grad`` is the array backward computed for it, not a copy (``add`` may give
two leaves one array), and nothing writes into it. Intermediate results never
get a ``.grad``. ``no_grad`` switches recording off for the calling thread only.

Training runs in float32, except that ``linear_mse`` accumulates and returns
its scalar loss in float64 (its gradients are in the working dtype).
Gradient-check tests switch the whole kernel to float64 through
``dtype_mode("float64")``; tensors always carry the active default dtype.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

_DEFAULT_DTYPE = np.dtype(np.float32)

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def default_dtype() -> np.dtype:
    return _DEFAULT_DTYPE


@contextmanager
def dtype_mode(name: str | np.dtype) -> Iterator[None]:
    """Temporarily switch the kernel's float width: the gradient oracle's
    float64 switch, and the only way to change it."""
    global _DEFAULT_DTYPE
    dt = np.dtype(name)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype {dt}; use float32 or float64")
    prev, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dt
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


class _GradMode(threading.local):
    # per thread: probe workers run no_grad blocks concurrently, and a shared
    # flag saved and restored by overlapping blocks can end up left off
    enabled = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording in the calling thread; results inside report
    requires_grad=False."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


class Tensor:
    """N-dimensional float array, contiguous row-major, optionally on tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        # ascontiguousarray would promote 0-d scalars to 1-d; guard on the flag
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "parents", "grad_fn")

    def __init__(self, out: Tensor, parents: tuple[Tensor, ...], grad_fn: Callable):
        self.out = out
        self.parents = parents
        self.grad_fn = grad_fn


# Ordered record of executed ops; inputs always precede their outputs.
_TAPE: list[_Node] = []


def active_tape() -> list[_Node]:
    return _TAPE


def _result(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn: Callable) -> Tensor:
    req = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
    data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data = data if data.flags.c_contiguous else np.ascontiguousarray(data)
    out.requires_grad = req
    out.grad = None
    if req:
        _TAPE.append(_Node(out, parents, grad_fn))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data
    ash, bsh = a.shape, b.shape
    return _result(data, (a, b), lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


# ---------------------------------------------------------------------------
# matmul, linear, attention


def _gemm(a: Tensor, b: Tensor) -> tuple[np.ndarray, tuple[Tensor, Tensor], Callable]:
    """``matmul``'s product, parents and backward (no gradient for a constant input)."""
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul expects [..., k] @ [k, m], got {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    ash, bsh = a.shape, b.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad
    a2 = ad.reshape(-1, ash[-1])
    data = (a2 @ bd).reshape(*ash[:-1], bsh[-1])

    def grad_fn(g):
        g2 = g.reshape(-1, bsh[-1])
        ga = (g2 @ bd.T).reshape(ash) if a_grad else None
        gb = a2.T @ g2 if b_grad else None
        return ga, gb

    return data, (a, b), grad_fn


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., k] @ [k, m] -> [..., m]: the leading dims of ``a`` fold into one
    gemm instead of numpy looping a small gemm per batch row."""
    return _result(*_gemm(_as_tensor(a), _as_tensor(b)))


def linear(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """a @ w + b, with the bias added into the product's own fresh array.

    Records the same two tape nodes as ``add(matmul(a, w), b)``, with the
    same bytes. The product tensor never leaves this function, so writing
    into its array is safe."""
    prod = matmul(a, w)
    b = _as_tensor(b)
    np.add(prod.data, b.data, out=prod.data)
    bsh = b.shape
    return _result(prod.data, (prod, b), lambda g: (g, _unbroadcast(g, bsh)))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head attention core: [..., nq, d] queries attend to [..., nk, d]
    keys and values (nk = nq for self-attention): split d into ``heads``
    slices of width dh, take softmax(q @ kᵀ · 1/√dh) @ v per head, merge the
    heads back into [..., nq, d].

    The forward keeps q and v per head and kᵀ as contiguous copies, and the
    backward multiplies by transposed views of them and of the incoming
    gradient: the float operations and array layouts of the composed
    reshape, permute, transpose, matmul, scale and softmax chain, so the
    bytes are that chain's."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim < 2 or k.ndim != q.ndim or k.shape != v.shape or q.shape[:-2] != k.shape[:-2] \
            or q.shape[-1] != k.shape[-1] or heads < 1 or q.shape[-1] % heads:
        raise ValueError(
            f"attention expects [..., nq, d] queries and [..., nk, d] keys and values with d "
            f"divisible by {heads} heads, got queries {q.shape}, keys {k.shape}, values {v.shape}"
        )
    *lead, _, d = q.shape
    split = (*lead, -1, heads, d // heads)  # any row count: nq or nk
    s = 1.0 / math.sqrt(d // heads)

    def to_heads(x: np.ndarray) -> np.ndarray:  # [..., n, d] -> [..., H, n, dh]
        return np.ascontiguousarray(np.swapaxes(x.reshape(split), -3, -2))

    def merge(x: np.ndarray) -> np.ndarray:  # [..., H, n, dh] -> [..., n, d]
        return np.swapaxes(x, -3, -2).reshape(*lead, -1, d)

    qh, vh = to_heads(q.data), to_heads(v.data)
    kt = np.ascontiguousarray(np.moveaxis(k.data.reshape(split), -3, -1))  # [..., H, dh, nk]
    y = qh @ kt
    y *= s
    # the row max over keys, from a key-major copy (see the module docstring)
    y -= np.ascontiguousarray(np.swapaxes(y, -1, -2)).max(axis=-2)[..., None]
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        gh = np.swapaxes(g.reshape(split), -3, -2)
        gv = np.swapaxes(y, -1, -2) @ gh
        gs = gh @ np.swapaxes(vh, -1, -2)  # d(weights), then d(scores)
        dot = np.multiply(gs, y).sum(axis=-1, keepdims=True)
        gs -= dot
        gs *= y
        gs *= s
        gq = gs @ np.swapaxes(kt, -1, -2)
        gkt = np.swapaxes(qh, -1, -2) @ gs
        return merge(gq), merge(np.swapaxes(gkt, -1, -2)), merge(gv)

    return _result(merge(y @ vh), (q, k, v), grad_fn)


# ---------------------------------------------------------------------------
# movement


def gather_rows_batch(a: Tensor, idx) -> Tensor:
    """Per-sample row gather: a [b, n, d], idx [b, k] -> [b, k, d], where
    idx is a mask split: k >= 1, each row in range, none repeated within a
    sample (the masked rows of MIM, or the permutation that puts every row
    back in place). The rows being distinct, the backward scatters the
    gradient by plain assignment."""
    if a.ndim != 3:
        raise ValueError(f"gather_rows_batch expects [b, n, d] rows, got {a.shape}")
    ash = b, n, _ = a.shape
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[0] != b or idx.shape[1] == 0:
        raise ValueError(
            f"gather_rows_batch rows must be [{b}, m] with m >= 1 (the masked or visible "
            f"rows of each sample), got shape {idx.shape}"
        )
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError(f"gather_rows_batch rows out of range for {n} rows")
    ordered = np.sort(idx, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError("gather_rows_batch rows repeat within a sample; they must be a mask split")
    rows = np.arange(b)[:, None]

    def grad_fn(g):
        ga = np.zeros(ash, dtype=g.dtype)
        ga[rows, idx] = g
        return (ga,)

    return _result(a.data[rows, idx], (a,), grad_fn)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize the last axis, then scale and shift."""
    if eps <= 0:
        raise ValueError("layernorm eps must be positive")
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"layernorm gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = np.subtract(a.data, mu)
    xhat = np.multiply(xc, xc)
    var = xhat.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    np.multiply(xc, inv, out=xhat)
    y = np.multiply(xhat, gamma.data, out=xc)
    y += beta.data
    gdata = gamma.data
    lead = tuple(range(a.ndim - 1))

    def grad_fn(g):
        dx = np.multiply(g, gdata)  # dxhat until it becomes dx
        tmp = np.multiply(dx, xhat)
        m2 = tmp.mean(axis=-1, keepdims=True)
        m1 = dx.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=tmp)
        dx -= m1
        dx -= tmp
        dx *= inv
        np.multiply(g, xhat, out=tmp)
        dgamma = tmp.sum(axis=lead) if lead else tmp
        dbeta = g.sum(axis=lead) if lead else g
        return dx, dgamma, dbeta

    return _result(y, (a, gamma, beta), grad_fn)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    x = a.data
    # out= needs an array, and a ufunc on a 0-d input returns a scalar
    x2 = np.multiply(x, x, out=np.empty_like(x))
    t = np.multiply(x2, _GELU_A, out=np.empty_like(x))
    t += 1.0
    y = np.multiply(x, _GELU_C, out=np.empty_like(x))
    t *= y
    np.tanh(t, out=t)
    np.multiply(x, 0.5, out=y)
    y *= t + 1.0

    def grad_fn(g):
        du = np.multiply(x2, 3.0 * _GELU_A, out=np.empty_like(x))
        du += 1.0
        du *= _GELU_C
        h = np.multiply(x, 0.5, out=np.empty_like(x))
        s = np.multiply(t, t, out=np.empty_like(x))
        np.subtract(1.0, s, out=s)
        h *= s
        h *= du
        np.add(t, 1.0, out=s)
        s *= 0.5
        s += h
        s *= g
        return (s,)

    return _result(y, (a,), grad_fn)


# ---------------------------------------------------------------------------
# loss


def linear_mse(x: Tensor, w: Tensor, b: Tensor, table: np.ndarray, samples, rows) -> Tensor:
    """Mean squared error of ``x @ w + b`` (x [b, m, k]) against the rows
    ``table[samples[i], rows[i]]`` of a constant table, as a float64 scalar.
    The bias is added into the gemm's fresh array and each sample's target
    rows, cast to its dtype, are subtracted from it in place; its squares are
    summed in float64, as a float32 loss near 1 resolves steps of 1.2e-7 only.
    The backward scales it in place and feeds it to the gemm's backward: the
    float operations of ``linear`` then an MSE over gathered rows, same bytes."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    samples, rows = np.asarray(samples, dtype=np.intp), np.asarray(rows, dtype=np.intp)
    if x.ndim != 3 or 0 in x.shape[:2] or samples.shape != x.shape[:1] or rows.shape != x.shape[:2] \
            or table.ndim != 3 or table.shape[2] != w.shape[-1] or min(samples.min(), rows.min()) < 0 \
            or samples.max() >= len(table) or rows.max() >= table.shape[1]:
        raise ValueError(
            f"linear_mse expects [b, m, k] inputs (b, m >= 1), [b] samples and [b, m] rows in range of "
            f"its target table, got {x.shape}, {samples.shape}, {rows.shape} and table {table.shape}")
    diff, parents, gemm_grad = _gemm(x, w)
    np.add(diff, b.data, out=diff)
    for d, i, r in zip(diff, samples, rows):
        d -= np.asarray(table[i, r], dtype=diff.dtype)
    count, flat, bsh = diff.size, diff.reshape(-1), b.shape
    loss = np.einsum("i,i->", flat, flat, dtype=np.float64) / count

    def grad_fn(g):
        # a python float keeps diff's dtype; a float64 0-d array would widen it
        np.multiply(diff, 2.0 * float(g) / count, out=diff)
        return (*gemm_grad(diff), _unbroadcast(diff, bsh))

    return _result(loss, (*parents, b), grad_fn)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor) -> None:
    """Reverse-propagate from a scalar loss; accumulates .grad on the leaves
    that require grad, and on nothing else, then clears the tape."""
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    nodes = _TAPE
    if not any(node.out is loss for node in nodes):
        raise ValueError("loss is not on the active tape")

    # only nodes the loss depends on ever receive a gradient, so one reverse
    # sweep skips the rest without a reachability pass
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    holders: dict[int, Tensor] = {}
    for node in reversed(nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
                holders[pid] = parent

    # whatever is left has no producing node: the leaves
    for pid, g in grads.items():
        _accumulate(holders[pid], g)
    _TAPE.clear()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # every grad_fn returns its parent's shape
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad = t.grad + g
