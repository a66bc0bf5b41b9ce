"""The one-for-all network: per-modality patch embedders, one shared
Transformer backbone, per-modality masked-autoencoder decoders.

The net is one parameter table, ``OfaNet.params``: name -> Tensor in
canonical order, which is also the checkpoint order. Embedders come first
(``embedder.<m>.*``, modality ids sorted), then the shared backbone
(``backbone.*``), then the decoders (``decoder.<m>.*``, ids sorted). Each
tensor's array is a view of its slice of one flat buffer, ``OfaNet.flat``, in
that order; a checkpoint load fills it and an optimizer step updates it in
place. ``_layout`` spells every name once; the forward stages take a
section of the table by name prefix and unpack it in layout order. Anything
per-modality lives strictly under an embedder or decoder name; the two
sin-cos tables are fixed and shared.

There is one forward path, and it is batched: every stage takes [b, ...]
arrays, and a single image is a batch of 1. Training works on patch rows:
``mim_forward_batch`` takes a stream already in ``patchify`` layout (the
trainer patchifies each stream once, at load) and a mini-batch's indices in
it. It draws the masks first, embeds only the visible rows at their
positions and decodes only the masked ones; ``ndtensor.linear_mse`` runs the
reconstruction head on those straight into the loss against the same rows of
the stream. ``forward_tokens`` and ``forward_features`` take [b, h, w, c]
images, patchify them, and reuse the embed (at every position) and encode
stages off-tape for frozen feature extraction; ``forward_features``
mean-pools the tokens in numpy. A block's attention is its q/k/v projections
(``linear``, ``matmul``), one ``ndtensor.attention`` node and the output
``linear``; every ``matmul`` multiplies a stacked input by a weight matrix.
The decoder cross-attends (CrossMAE, arXiv 2401.14391): one query per masked
row, the mask token plus that row's decoder position, attends to the
projected visible latents plus theirs, which each block normalizes with the
queries' ``ln1``; the MLP and the final norm see the query rows alone. The
decoder hands ``ndtensor.gather_rows_batch`` two mask splits, the visible
rows then the masked ones, as one index into the positional table, so a
repeated row raises; so does a split of another size than n.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from . import ndtensor as ndt
from .modalities import ModalitySpec
from .ndtensor import Tensor
from .seeds import generator

MASK_TOKEN_STD = 0.02


@dataclass
class ModelDims:
    """Architecture hyperparameters shared by build, checkpoint, and tests."""

    input_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    decoder_embed_dim: int = 32
    decoder_depth: int = 2

    def validate(self) -> None:
        small = [f.name for f in fields(self) if getattr(self, f.name) < 1]
        if small:
            raise ValueError(f"{', '.join(small)} must be >= 1")
        if self.input_size % self.patch_size:
            raise ValueError(
                f"input_size {self.input_size} not divisible by patch_size {self.patch_size}"
            )
        for name in ("embed_dim", "decoder_embed_dim"):
            dim = getattr(self, name)
            if dim % self.heads:
                raise ValueError(f"{name} {dim} not divisible by heads {self.heads}")
            if dim % 4:
                raise ValueError(f"{name} {dim} must be divisible by 4 for 2-D sin-cos tables")

    @property
    def grid(self) -> tuple[int, int]:
        g = self.input_size // self.patch_size
        return (g, g)

    @property
    def tokens(self) -> int:
        g = self.input_size // self.patch_size
        return g * g


# ---------------------------------------------------------------------------
# fixed positional tables


def sincos_pos_table(rows: int, cols: int, dim: int) -> np.ndarray:
    """2-D sine-cosine positional table [rows*cols, dim]; not learnable."""
    if dim % 4:
        raise ValueError(f"sin-cos table dim must be divisible by 4, got {dim}")
    half = dim // 2
    omega = 1.0 / 10000.0 ** (np.arange(half // 2, dtype=np.float64) / (half / 2.0))
    ys, xs = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")

    def axis_embed(pos: np.ndarray) -> np.ndarray:
        angles = pos.reshape(-1, 1) * omega
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    table = np.concatenate([axis_embed(ys.ravel()), axis_embed(xs.ravel())], axis=1)
    return table.astype(ndt.default_dtype())


# ---------------------------------------------------------------------------
# patch geometry


def patchify(arr: np.ndarray, patch_size: int) -> np.ndarray:
    """[h, w, c] -> [n, p*p*c]; row i*cols+j is patch (i, j), channel fastest.

    A leading batch axis is kept: [b, h, w, c] -> [b, n, p*p*c].
    """
    if arr.ndim not in (3, 4):
        raise ValueError(f"patchify expects [h, w, c] or [b, h, w, c], got shape {arr.shape}")
    *lead, h, w, c = arr.shape
    p = patch_size
    if h % p or w % p:
        raise ValueError(f"image size {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    k = len(lead)
    out = arr.reshape(*lead, gh, p, gw, p, c).transpose(*range(k), k, k + 2, k + 1, k + 3, k + 4)
    return np.ascontiguousarray(out.reshape(*lead, gh * gw, p * p * c))


# ---------------------------------------------------------------------------
# the parameter table

# One Transformer block: (name, shape in units of the block width, init
# kind), in canonical order; backbone and decoder blocks share it. No key
# bias: a constant added to every key cancels inside softmax, so its
# gradient is identically zero and the parameter is dead weight.
_BLOCK = (
    ("ln1.gamma", (1,), "ones"),
    ("ln1.beta", (1,), "zeros"),
    ("attn.wq", (1, 1), "weight"),
    ("attn.bq", (1,), "zeros"),
    ("attn.wk", (1, 1), "weight"),
    ("attn.wv", (1, 1), "weight"),
    ("attn.bv", (1,), "zeros"),
    ("attn.wo", (1, 1), "weight"),
    ("attn.bo", (1,), "zeros"),
    ("ln2.gamma", (1,), "ones"),
    ("ln2.beta", (1,), "zeros"),
    ("mlp.w1", (1, 4), "weight"),
    ("mlp.b1", (4,), "zeros"),
    ("mlp.w2", (4, 1), "weight"),
    ("mlp.b2", (1,), "zeros"),
)


def _stack_layout(prefix: str, depth: int, width: int):
    """Blocks, then the final norm, of one Transformer stack."""
    for i in range(depth):
        for name, units, kind in _BLOCK:
            yield f"{prefix}.block{i}.{name}", tuple(u * width for u in units), kind
    yield f"{prefix}.norm.gamma", (width,), "ones"
    yield f"{prefix}.norm.beta", (width,), "zeros"


def _layout(dims: ModelDims, channels: dict[str, int]):
    """(name, shape, init kind) of every parameter, in canonical order."""
    d, dd, p2 = dims.embed_dim, dims.decoder_embed_dim, dims.patch_size**2
    for mid in sorted(channels):
        yield f"embedder.{mid}.weight", (p2 * channels[mid], d), "weight"
        yield f"embedder.{mid}.bias", (d,), "zeros"
    yield from _stack_layout("backbone", dims.depth, d)
    for mid in sorted(channels):
        yield f"decoder.{mid}.proj.weight", (d, dd), "weight"
        yield f"decoder.{mid}.proj.bias", (dd,), "zeros"
        yield f"decoder.{mid}.mask_token", (dd,), "token"
        yield from _stack_layout(f"decoder.{mid}", dims.decoder_depth, dd)
        yield f"decoder.{mid}.head.weight", (dd, p2 * channels[mid]), "weight"
        yield f"decoder.{mid}.head.bias", (p2 * channels[mid],), "zeros"


@dataclass
class OfaNet:
    dims: ModelDims
    channels: dict[str, int]  # modality id -> bands
    params: dict[str, Tensor]  # canonical order, see _layout
    flat: np.ndarray  # every parameter, in params order; each one's data is its slice
    backbone_pos: Tensor  # fixed [n, d], requires_grad False
    decoder_pos: Tensor  # fixed [n, d_dec], shared by every decoder


def _section(net: OfaNet, prefix: str) -> list[Tensor]:
    """The tensors named ``prefix.*``, in canonical order."""
    head = prefix + "."
    return [t for name, t in net.params.items() if name.startswith(head)]


# ---------------------------------------------------------------------------
# construction


def _weight_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    # U(+-1/sqrt(fan_in)), capped at Glorot's sqrt(6/(fan_in+fan_out)) (MAE's
    # init). The cap binds only where fan_out > 5 fan_in: at desk dims, the
    # 32 -> 3,584 enmap reconstruction head alone. Uncapped, that head's
    # backward gain sum_k w_jk^2 is about 37, so the quickest way to cut its
    # init noise is to collapse the decoder's last hidden state to a
    # constant; the backbone then gets almost no gradient and the enmap loss
    # stalls at its zero predictor.
    fan_in, fan_out = shape
    limit = min(1.0 / math.sqrt(fan_in), math.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, shape)


def _init_values(seed: int, name: str, shape, kind: str) -> np.ndarray | float:
    # a generator depends on (seed, name) alone, so only the kinds that draw make one
    if kind == "weight":
        return _weight_uniform(generator("init", seed, name), shape)
    if kind == "zeros":
        return 0.0
    if kind == "ones":
        return 1.0
    if kind == "token":
        return generator("init", seed, name).normal(0.0, MASK_TOKEN_STD, shape)
    raise ValueError(f"unknown init kind {kind!r}")


def build_ofanet(dims: ModelDims, specs: list[ModalitySpec], seed: int) -> OfaNet:
    """Fresh net for the given modalities; init depends only on (seed, name),
    never on registration order or on which other modalities are present."""
    dims.validate()
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate modalities in build list: {ids}")
    channels = {s.id: s.channels for s in sorted(specs, key=lambda s: s.id)}
    layout = list(_layout(dims, channels))
    flat = np.empty(sum(math.prod(shape) for _, shape, _ in layout), dtype=ndt.default_dtype())
    params, off = {}, 0
    for name, shape, kind in layout:
        view = flat[off : off + math.prod(shape)].reshape(shape)
        view[...] = _init_values(seed, name, shape, kind)
        params[name] = Tensor(view, requires_grad=True)
        off += view.size
    gh, gw = dims.grid
    return OfaNet(
        dims=dims,
        channels=channels,
        params=params,
        flat=flat,
        backbone_pos=Tensor(sincos_pos_table(gh, gw, dims.embed_dim)),
        decoder_pos=Tensor(sincos_pos_table(gh, gw, dims.decoder_embed_dim)),
    )


# ---------------------------------------------------------------------------
# parameter traversal


def named_parameters(net: OfaNet) -> list[tuple[str, Tensor]]:
    return list(net.params.items())


def parameter_count(net: OfaNet) -> int:
    return sum(t.size for t in net.params.values())


def expected_parameter_count(dims: ModelDims, channel_counts: list[int]) -> int:
    """Closed form the implementation must reproduce exactly."""

    def block(width: int) -> int:
        # 2 layernorms (2w each) + attn (4 w^2 projections, q/v/o biases)
        # + mlp (w*4w + 4w + 4w*w + w)
        return 12 * width * width + 12 * width

    p2 = dims.patch_size * dims.patch_size
    d, dd = dims.embed_dim, dims.decoder_embed_dim
    total = 0
    for c in channel_counts:
        total += p2 * c * d + d  # embedder
        total += d * dd + dd  # decoder projection
        total += dd  # mask token
        total += dims.decoder_depth * block(dd) + 2 * dd  # decoder blocks + final norm
        total += dd * (p2 * c) + p2 * c  # reconstruction head
    total += dims.depth * block(d) + 2 * d  # shared backbone + final norm
    return total


def param_hash(net: OfaNet, prefix: str = "") -> str:
    """sha256 over (name, bytes) of parameters matching prefix, sorted order."""
    h = hashlib.sha256()
    for name, tensor in net.params.items():
        if name.startswith(prefix):
            h.update(name.encode())
            h.update(np.ascontiguousarray(tensor.data).tobytes())
    return h.hexdigest()


def backbone_hash(net: OfaNet) -> str:
    return param_hash(net, "backbone.")


# ---------------------------------------------------------------------------
# forward pieces


def _attention(x: Tensor, context: Tensor, attn: list[Tensor], heads: int) -> Tensor:
    """Multi-head attention of (..., nq, d) rows over (..., nk, d) context."""
    wq, bq, wk, wv, bv, wo, bo = attn
    q = ndt.linear(x, wq, bq)
    k = ndt.matmul(context, wk)
    v = ndt.linear(context, wv, bv)
    return ndt.linear(ndt.attention(q, k, v, heads), wo, bo)


def _stack_forward(x: Tensor, stack: list[Tensor], heads: int, context: Tensor | None = None) -> Tensor:
    """The blocks of one Transformer stack, given their tensors in _BLOCK
    order; returns the hidden state before the final norm. The rows attend
    to themselves, or to a context that each block normalizes with its ln1."""
    for i in range(0, len(stack), len(_BLOCK)):
        ln1_g, ln1_b, *attn, ln2_g, ln2_b, w1, b1, w2, b2 = stack[i : i + len(_BLOCK)]
        h = ndt.layernorm(x, ln1_g, ln1_b)
        c = h if context is None else ndt.layernorm(context, ln1_g, ln1_b)
        x = ndt.add(x, _attention(h, c, attn, heads))
        h = ndt.layernorm(x, ln2_g, ln2_b)
        h = ndt.linear(ndt.gelu(ndt.linear(h, w1, b1)), w2, b2)
        x = ndt.add(x, h)
    return x


def embed_patches(net: OfaNet, patches: np.ndarray, positions: np.ndarray, modality: str) -> Tensor:
    """Project [b, k, p*p*c] patch rows with the modality's embedder and add
    the positional rows of their token positions, [b, k] or [k] shared by
    every sample: tokens [b, k, d]."""
    if modality not in net.channels:
        raise KeyError(f"no embedder for modality {modality!r}; have {sorted(net.channels)}")
    channels = net.channels[modality]
    width = net.dims.patch_size**2 * channels
    rows = patches.shape[:2]
    if patches.ndim != 3 or patches.shape[2] != width or np.shape(positions) not in (rows, rows[1:]):
        raise ValueError(
            f"{modality} has {channels} bands: expects [b, k, {width}] patch rows and their "
            f"[b, k] or [k] token positions, got shapes {patches.shape} and {np.shape(positions)}"
        )
    weight, bias = _section(net, f"embedder.{modality}")
    return ndt.add(ndt.linear(Tensor(patches), weight, bias), net.backbone_pos.data[positions])


def draw_masks(n: int, ratio: float, rng_keys) -> tuple[np.ndarray, np.ndarray]:
    """One uniform random split of n tokens per key: (masked [b, m], visible
    [b, n - m]) with m = round(ratio * n); the same key gives the same split."""
    m = int(round(ratio * n))
    if not 0.0 < ratio < 1.0 or m == 0 or m == n:
        raise ValueError(f"mask ratio {ratio} degenerate for n={n}")
    perms = np.stack(
        [np.random.Generator(np.random.PCG64(key)).permutation(n) for key in rng_keys]
    ).astype(np.intp)
    return perms[:, :m], perms[:, m:]


def encode_tokens(net: OfaNet, tokens: Tensor) -> Tensor:
    """Shared backbone over [b, k, d] tokens: latents [b, k, d]."""
    *blocks, norm_g, norm_b = _section(net, "backbone")
    return ndt.layernorm(_stack_forward(tokens, blocks, net.dims.heads), norm_g, norm_b)


def decode_tokens(
    net: OfaNet, latent: Tensor, masked: np.ndarray, visible: np.ndarray, modality: str
) -> Tensor:
    """Normed decoder states [b, m, d_dec] of the masked rows, the head's
    input, from visible latents [b, k, d]: one query per masked row, the mask
    token at that row's position, attends to the projected latents at theirs."""
    decoder = _section(net, f"decoder.{modality}")
    if not decoder:
        raise KeyError(f"no decoder for modality {modality!r}")
    proj_w, proj_b, mask_token, *blocks, norm_g, norm_b, _, _ = decoder
    n, (b, k) = net.dims.tokens, visible.shape
    if k + masked.shape[1] != n:
        raise ValueError(f"{k} visible and {masked.shape[1]} masked rows are not a split of {n} positions")
    table = Tensor(np.broadcast_to(net.decoder_pos.data, (b, n, mask_token.shape[0])))
    pos = ndt.gather_rows_batch(table, np.concatenate([visible, masked], axis=1)).data
    context = ndt.add(ndt.linear(latent, proj_w, proj_b), pos[:, :k])
    x = _stack_forward(ndt.add(mask_token, pos[:, k:]), blocks, net.dims.heads, context)
    return ndt.layernorm(x, norm_g, norm_b)


def mim_forward_batch(net: OfaNet, stream: np.ndarray, modality: str, batch, ratio: float, rng_keys) -> Tensor:
    """Mean masked-reconstruction loss of a mini-batch as one graph.

    stream [N, n, p*p*c] holds images as patch rows (``patchify``), which
    are also the reconstruction targets, and batch names the mini-batch's
    images in it. rng_keys gives one mask key per sample, so sample i draws
    the same split in any batch. Only the visible rows are embedded and
    only the masked rows reconstructed. A single image is a batch of 1.
    """
    n = net.dims.tokens
    if stream.ndim != 3 or stream.shape[1] != n:
        raise ValueError(f"{modality}: expects a [N, {n}, p*p*c] stream of patch rows, got {stream.shape}")
    if len(rng_keys) != len(batch):
        raise ValueError(f"need one rng key per sample: {len(rng_keys)} keys, batch {len(batch)}")
    masked, visible = draw_masks(n, ratio, rng_keys)
    images = np.asarray(batch, dtype=np.intp)
    tokens = embed_patches(net, stream[images[:, None], visible], visible, modality)
    hidden = decode_tokens(net, encode_tokens(net, tokens), masked, visible, modality)
    return ndt.linear_mse(hidden, *_section(net, f"decoder.{modality}.head"), stream, images, masked)


def forward_tokens(net: OfaNet, images, modality: str) -> Tensor:
    """Frozen per-token features [b, n, d] of [b, h, w, c] images; decoders
    unused, nothing on tape."""
    arr = np.asarray(images)
    size = net.dims.input_size
    if arr.ndim != 4 or arr.shape[1:3] != (size, size):
        raise ValueError(
            f"{modality} expects [b, {size}, {size}, c] images, resized to {size}px first; "
            f"got shape {arr.shape}"
        )
    patches = patchify(arr, net.dims.patch_size)
    with ndt.no_grad():
        return encode_tokens(net, embed_patches(net, patches, np.arange(net.dims.tokens), modality))


def forward_features(net: OfaNet, images, modality: str) -> Tensor:
    """Frozen pooled features [b, d]: token features averaged over positions,
    in numpy, since nothing here goes on the tape."""
    tokens = forward_tokens(net, images, modality).data
    return Tensor(tokens.sum(axis=1) * (1.0 / tokens.shape[1]))
