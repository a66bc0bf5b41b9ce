"""The one-for-all network: per-modality patch embedders, one shared
Transformer backbone, per-modality masked-autoencoder decoders.

All modalities meet the same backbone parameters; anything per-modality
lives strictly in its embedder or decoder. There is one forward path, and it
is batched: every stage takes [b, ...] arrays, and a single image is a batch
of 1. ``mim_forward_batch`` composes ``embed_patches``, ``draw_masks``,
``encode_tokens``, ``decode_tokens`` and ``masked_loss`` into one training
graph per mini-batch; ``forward_tokens`` and ``forward_features`` reuse the
embed and encode stages off-tape for frozen feature extraction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

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
        if min(self.depth, self.decoder_depth) < 1:
            raise ValueError("depth and decoder_depth must be >= 1")

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


def patchify(image, patch_size: int) -> np.ndarray:
    """[h, w, c] -> [n, p*p*c]; row i*cols+j is patch (i, j), channel fastest.

    A leading batch axis is kept: [b, h, w, c] -> [b, n, p*p*c].
    """
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
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


def unpatchify(patches, grid: tuple[int, int], patch_size: int, channels: int) -> np.ndarray:
    """Inverse of patchify for a [n, p*p*c] array."""
    arr = patches.data if isinstance(patches, Tensor) else np.asarray(patches)
    gh, gw = grid
    p = patch_size
    out = arr.reshape(gh, gw, p, p, channels).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(out.reshape(gh * p, gw * p, channels))


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class AttentionParams:
    # no key bias: a constant added to every key cancels inside softmax,
    # so its gradient is identically zero and the parameter is dead weight
    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class BlockParams:
    ln1_g: Tensor
    ln1_b: Tensor
    attn: AttentionParams
    ln2_g: Tensor
    ln2_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


@dataclass
class PatchEmbedder:
    modality: str
    patch_size: int
    channels: int
    weight: Tensor  # [p*p*c, d]
    bias: Tensor  # [d]


@dataclass
class TransformerBackbone:
    embed_dim: int
    heads: int
    blocks: list[BlockParams]
    norm_g: Tensor
    norm_b: Tensor
    pos: Tensor  # fixed [n, d], requires_grad False


@dataclass
class ModalityDecoder:
    modality: str
    proj_w: Tensor  # [d, d_dec]
    proj_b: Tensor
    mask_token: Tensor  # [d_dec]
    blocks: list[BlockParams]
    norm_g: Tensor
    norm_b: Tensor
    head_w: Tensor  # [d_dec, p*p*c]
    head_b: Tensor
    pos: Tensor  # fixed [n, d_dec]


@dataclass
class OfaNet:
    dims: ModelDims
    embedders: dict[str, PatchEmbedder]
    backbone: TransformerBackbone
    decoders: dict[str, ModalityDecoder] = field(default_factory=dict)

    @property
    def modalities(self) -> list[str]:
        return sorted(self.embedders)


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


def _init_param(seed: int, name: str, shape, kind: str) -> Tensor:
    rng = generator("init", seed, name)
    if kind == "weight":
        data = _weight_uniform(rng, shape)
    elif kind == "zeros":
        data = np.zeros(shape)
    elif kind == "ones":
        data = np.ones(shape)
    elif kind == "token":
        data = rng.normal(0.0, MASK_TOKEN_STD, shape)
    else:
        raise ValueError(f"unknown init kind {kind!r}")
    return Tensor(np.asarray(data, dtype=ndt.default_dtype()), requires_grad=True)


def _init_block(seed: int, prefix: str, width: int) -> BlockParams:
    def w(name, shape):
        return _init_param(seed, f"{prefix}.{name}", shape, "weight")

    def z(name, shape):
        return _init_param(seed, f"{prefix}.{name}", shape, "zeros")

    attn = AttentionParams(
        wq=w("attn.wq", (width, width)),
        bq=z("attn.bq", (width,)),
        wk=w("attn.wk", (width, width)),
        wv=w("attn.wv", (width, width)),
        bv=z("attn.bv", (width,)),
        wo=w("attn.wo", (width, width)),
        bo=z("attn.bo", (width,)),
    )
    return BlockParams(
        ln1_g=_init_param(seed, f"{prefix}.ln1.gamma", (width,), "ones"),
        ln1_b=z("ln1.beta", (width,)),
        attn=attn,
        ln2_g=_init_param(seed, f"{prefix}.ln2.gamma", (width,), "ones"),
        ln2_b=z("ln2.beta", (width,)),
        mlp_w1=w("mlp.w1", (width, 4 * width)),
        mlp_b1=z("mlp.b1", (4 * width,)),
        mlp_w2=w("mlp.w2", (4 * width, width)),
        mlp_b2=z("mlp.b2", (width,)),
    )


def build_ofanet(dims: ModelDims, specs: list[ModalitySpec], seed: int) -> OfaNet:
    """Fresh net for the given modalities; init depends only on (seed, name),
    never on registration order or on which other modalities are present."""
    dims.validate()
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate modalities in build list: {ids}")
    gh, gw = dims.grid
    ppc = dims.patch_size * dims.patch_size

    embedders = {}
    decoders = {}
    for spec in specs:
        d_in = ppc * spec.channels
        embedders[spec.id] = PatchEmbedder(
            modality=spec.id,
            patch_size=dims.patch_size,
            channels=spec.channels,
            weight=_init_param(seed, f"embedder.{spec.id}.weight", (d_in, dims.embed_dim), "weight"),
            bias=_init_param(seed, f"embedder.{spec.id}.bias", (dims.embed_dim,), "zeros"),
        )
        dd = dims.decoder_embed_dim
        decoders[spec.id] = ModalityDecoder(
            modality=spec.id,
            proj_w=_init_param(seed, f"decoder.{spec.id}.proj.weight", (dims.embed_dim, dd), "weight"),
            proj_b=_init_param(seed, f"decoder.{spec.id}.proj.bias", (dd,), "zeros"),
            mask_token=_init_param(seed, f"decoder.{spec.id}.mask_token", (dd,), "token"),
            blocks=[
                _init_block(seed, f"decoder.{spec.id}.block{i}", dd)
                for i in range(dims.decoder_depth)
            ],
            norm_g=_init_param(seed, f"decoder.{spec.id}.norm.gamma", (dd,), "ones"),
            norm_b=_init_param(seed, f"decoder.{spec.id}.norm.beta", (dd,), "zeros"),
            head_w=_init_param(seed, f"decoder.{spec.id}.head.weight", (dd, d_in), "weight"),
            head_b=_init_param(seed, f"decoder.{spec.id}.head.bias", (d_in,), "zeros"),
            pos=Tensor(sincos_pos_table(gh, gw, dd)),
        )

    backbone = TransformerBackbone(
        embed_dim=dims.embed_dim,
        heads=dims.heads,
        blocks=[
            _init_block(seed, f"backbone.block{i}", dims.embed_dim) for i in range(dims.depth)
        ],
        norm_g=_init_param(seed, "backbone.norm.gamma", (dims.embed_dim,), "ones"),
        norm_b=_init_param(seed, "backbone.norm.beta", (dims.embed_dim,), "zeros"),
        pos=Tensor(sincos_pos_table(gh, gw, dims.embed_dim)),
    )
    return OfaNet(dims=dims, embedders=embedders, backbone=backbone, decoders=decoders)


# ---------------------------------------------------------------------------
# parameter traversal


def _block_slots(prefix: str, bp: BlockParams):
    a = bp.attn
    yield f"{prefix}.ln1.gamma", bp, "ln1_g"
    yield f"{prefix}.ln1.beta", bp, "ln1_b"
    for key in ("q", "k", "v", "o"):
        yield f"{prefix}.attn.w{key}", a, f"w{key}"
        if key != "k":
            yield f"{prefix}.attn.b{key}", a, f"b{key}"
    yield f"{prefix}.ln2.gamma", bp, "ln2_g"
    yield f"{prefix}.ln2.beta", bp, "ln2_b"
    yield f"{prefix}.mlp.w1", bp, "mlp_w1"
    yield f"{prefix}.mlp.b1", bp, "mlp_b1"
    yield f"{prefix}.mlp.w2", bp, "mlp_w2"
    yield f"{prefix}.mlp.b2", bp, "mlp_b2"


def _param_slots(net: OfaNet):
    """(name, holder, attr) for every learnable tensor, in canonical order."""
    for mid in sorted(net.embedders):
        emb = net.embedders[mid]
        yield f"embedder.{mid}.weight", emb, "weight"
        yield f"embedder.{mid}.bias", emb, "bias"
    for i, bp in enumerate(net.backbone.blocks):
        yield from _block_slots(f"backbone.block{i}", bp)
    yield "backbone.norm.gamma", net.backbone, "norm_g"
    yield "backbone.norm.beta", net.backbone, "norm_b"
    for mid in sorted(net.decoders):
        dec = net.decoders[mid]
        yield f"decoder.{mid}.proj.weight", dec, "proj_w"
        yield f"decoder.{mid}.proj.bias", dec, "proj_b"
        yield f"decoder.{mid}.mask_token", dec, "mask_token"
        for i, bp in enumerate(dec.blocks):
            yield from _block_slots(f"decoder.{mid}.block{i}", bp)
        yield f"decoder.{mid}.norm.gamma", dec, "norm_g"
        yield f"decoder.{mid}.norm.beta", dec, "norm_b"
        yield f"decoder.{mid}.head.weight", dec, "head_w"
        yield f"decoder.{mid}.head.bias", dec, "head_b"


def named_parameters(net: OfaNet) -> list[tuple[str, Tensor]]:
    return [(name, getattr(holder, attr)) for name, holder, attr in _param_slots(net)]


def rebind_parameters(net: OfaNet, arrays: dict[str, np.ndarray]) -> None:
    """Replace every parameter with a fresh tensor over the given arrays
    (checkpoint load). The names must cover the net exactly and each shape
    must match; training steps update parameters in place instead."""
    slots = {name: (holder, attr) for name, holder, attr in _param_slots(net)}
    if set(slots) != set(arrays):
        missing = sorted(set(slots) ^ set(arrays))
        raise ValueError(f"parameter set mismatch, offending names: {missing[:5]}")
    for name, arr in arrays.items():
        holder, attr = slots[name]
        current = getattr(holder, attr)
        if current.shape != tuple(arr.shape):
            raise ValueError(f"parameter {name} has shape {current.shape}, got {arr.shape}")
        setattr(holder, attr, Tensor(arr, requires_grad=True))


def parameter_count(net: OfaNet) -> int:
    return sum(t.size for _, t in named_parameters(net))


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
    for name, tensor in named_parameters(net):
        if name.startswith(prefix):
            h.update(name.encode())
            h.update(np.ascontiguousarray(tensor.data).tobytes())
    return h.hexdigest()


def backbone_hash(net: OfaNet) -> str:
    return param_hash(net, "backbone.")


# ---------------------------------------------------------------------------
# forward pieces


def _attention(x: Tensor, ap: AttentionParams, heads: int) -> Tensor:
    """Multi-head self-attention over (..., n, d); heads split the last axis."""
    *lead, n, d = x.shape
    dh = d // heads
    split = (*lead, n, heads, dh)
    # (..., n, H, dh) -> (..., H, n, dh)
    nd = len(split)
    to_heads = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)

    def heads_of(t: Tensor) -> Tensor:
        return ndt.permute(ndt.reshape(t, split), to_heads)

    q = heads_of(ndt.add(ndt.matmul(x, ap.wq), ap.bq))
    k = heads_of(ndt.matmul(x, ap.wk))
    v = heads_of(ndt.add(ndt.matmul(x, ap.wv), ap.bv))
    att = ndt.mul(ndt.matmul(q, ndt.transpose(k)), 1.0 / math.sqrt(dh))
    weights = ndt.softmax(att, axis=-1)
    merged = ndt.reshape(ndt.permute(ndt.matmul(weights, v), to_heads), (*lead, n, d))
    return ndt.add(ndt.matmul(merged, ap.wo), ap.bo)


def _block_forward(x: Tensor, bp: BlockParams, heads: int) -> Tensor:
    h = ndt.layernorm(x, bp.ln1_g, bp.ln1_b)
    x = ndt.add(x, _attention(h, bp.attn, heads))
    h = ndt.layernorm(x, bp.ln2_g, bp.ln2_b)
    h = ndt.add(ndt.matmul(ndt.gelu(ndt.add(ndt.matmul(h, bp.mlp_w1), bp.mlp_b1)), bp.mlp_w2), bp.mlp_b2)
    return ndt.add(x, h)


def embed_patches(net: OfaNet, images, modality: str) -> tuple[np.ndarray, Tensor]:
    """Patchify [b, h, w, c] images, project with the modality's embedder, add
    positions: (patches [b, n, p*p*c], tokens [b, n, d])."""
    if modality not in net.embedders:
        raise KeyError(f"no embedder for modality {modality!r}; have {net.modalities}")
    emb = net.embedders[modality]
    arr = np.asarray(images)
    if arr.ndim != 4 or arr.shape[3] != emb.channels:
        raise ValueError(
            f"{modality} expects [b, h, w, {emb.channels}] input, got shape {arr.shape}"
        )
    if arr.shape[1] != net.dims.input_size or arr.shape[2] != net.dims.input_size:
        raise ValueError(
            f"input must be resized to {net.dims.input_size}px first, got {arr.shape[1:3]}"
        )
    patches = patchify(arr, emb.patch_size)
    tokens = ndt.add(ndt.add(ndt.matmul(Tensor(patches), emb.weight), emb.bias), net.backbone.pos)
    return patches, tokens


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


def encode_tokens(net: OfaNet, tokens: Tensor, visible: np.ndarray | None = None) -> Tensor:
    """Shared backbone over the visible rows of [b, n, d] tokens (all rows
    when visible is None): [b, k, d]."""
    x = tokens if visible is None else ndt.gather_rows_batch(tokens, visible)
    for bp in net.backbone.blocks:
        x = _block_forward(x, bp, net.backbone.heads)
    return ndt.layernorm(x, net.backbone.norm_g, net.backbone.norm_b)


def decode_tokens(
    net: OfaNet, latent: Tensor, masked: np.ndarray, visible: np.ndarray, modality: str
) -> Tensor:
    """Full-length reconstruction [b, n, p*p*c] from visible latents [b, k, d]:
    mask tokens fill the masked rows, then every row is put back in place."""
    if modality not in net.decoders:
        raise KeyError(f"no decoder for modality {modality!r}; have {sorted(net.decoders)}")
    dec = net.decoders[modality]
    b, m = masked.shape
    dd = dec.mask_token.shape[0]
    restore = np.argsort(np.concatenate([visible, masked], axis=1), axis=1).astype(np.intp)
    lat = ndt.add(ndt.matmul(latent, dec.proj_w), dec.proj_b)
    tile = ndt.add(Tensor(np.zeros((b, m, dd))), ndt.reshape(dec.mask_token, (1, 1, dd)))
    full = ndt.gather_rows_batch(ndt.concat([lat, tile], axis=1), restore)
    x = ndt.add(full, dec.pos)
    for bp in dec.blocks:
        x = _block_forward(x, bp, net.backbone.heads)
    x = ndt.layernorm(x, dec.norm_g, dec.norm_b)
    return ndt.add(ndt.matmul(x, dec.head_w), dec.head_b)


def masked_loss(pred: Tensor, targets: np.ndarray, masked: np.ndarray) -> Tensor:
    """MSE over the masked rows of [b, n, p*p*c] only; visible rows get
    exactly zero gradient."""
    masked = np.asarray(masked, dtype=np.intp)
    if masked.ndim != 2 or masked.shape[1] == 0:
        raise ValueError(f"masked loss needs [b, m] masked rows with m >= 1, got shape {masked.shape}")
    if pred.shape != targets.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {targets.shape}")
    target_rows = targets[np.arange(masked.shape[0])[:, None], masked]
    return ndt.mse(ndt.gather_rows_batch(pred, masked), Tensor(target_rows))


def mim_forward_batch(net: OfaNet, images: np.ndarray, modality: str, ratio: float, rng_keys) -> Tensor:
    """Mean masked-reconstruction loss of a mini-batch as one graph.

    images [b, h, w, c]; rng_keys gives one mask key per sample, so sample i
    draws the same split in any batch. A single image is a batch of 1.
    """
    if len(rng_keys) != len(images):
        raise ValueError(f"need one rng key per sample: {len(rng_keys)} keys, batch {len(images)}")
    targets, tokens = embed_patches(net, images, modality)
    masked, visible = draw_masks(net.dims.tokens, ratio, rng_keys)
    latent = encode_tokens(net, tokens, visible)
    pred = decode_tokens(net, latent, masked, visible, modality)
    return masked_loss(pred, targets, masked)


def forward_tokens(net: OfaNet, images, modality: str) -> Tensor:
    """Frozen per-token features [b, n, d] of [b, h, w, c] images; decoders
    unused, nothing on tape."""
    with ndt.no_grad():
        return encode_tokens(net, embed_patches(net, images, modality)[1])


def forward_features(net: OfaNet, images, modality: str) -> Tensor:
    """Frozen pooled features [b, d]: token features averaged over positions."""
    with ndt.no_grad():
        return ndt.tmean(forward_tokens(net, images, modality), axis=1)
