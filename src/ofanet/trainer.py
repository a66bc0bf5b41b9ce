"""Masked-image-modeling pretraining over interleaved modality streams.

The loop never mixes modalities in a step: each step draws one mini-batch
from one modality, round-robin over the config's modality list, so the five
streams stay spatially unaligned end to end. The last partial batch per
modality per epoch is dropped, keeping the per-epoch step count exact.

Each stream is held as patch rows [n, tokens, p*p*c], patchified once when
it is loaded; a step hands ``mim_forward_batch`` the stream and its
mini-batch's image indices, and only the rows the step uses are gathered:
the visible rows to embed and the masked rows as targets.

Each step updates the parameters that received a gradient in place: the
same Tensor objects get the optimizer's new arrays, and their gradients are
cleared for the next step. Parameters of the other modalities stay as they
are. The optimizer's moment buffers are updated in place.

Every source of randomness (data, shuffles, masks, init) is a derived
counter seed, so identical config+seed reproduces the loss log and the
checkpoints bit for bit regardless of OFA_THREADS. A step whose loss is
not finite stops the run with a FloatingPointError naming the step and the
modality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import ndtensor as ndt
from . import synthdata
from .binread import atomic_write
from .model import OfaNet, mim_forward_batch, named_parameters, patchify
from .modalities import ModalityRegistry, ModalitySpec, builtin_modalities, default_registry
from .runconfig import RunConfig, TrainConfig, serialize_config
from .seeds import derive_seed, generator

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# optimizer: decoupled weight decay + adaptive moments


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    weight_decay: float,
) -> dict[str, np.ndarray]:
    """One decoupled update over the given parameters; returns new arrays.

    Moment buffers are created on first touch and then updated in place,
    with one scratch array per parameter; `params` and `grads` are only
    read. Only the names present in `params` move this step (round-robin
    leaves other modalities' embedders and decoders untouched).
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        # the textbook expressions, operand for operand:
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        #   new = p - lr * ((m / bc1) / (sqrt(v / bc2) + eps)) - (lr * wd) * p
        scratch = np.multiply(g, 1.0 - ADAM_BETA1, out=np.empty_like(p))
        m *= ADAM_BETA1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += scratch
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        new = np.divide(m, bc1, out=np.empty_like(p))
        new /= scratch
        new *= lr
        np.subtract(p, new, out=new)
        np.multiply(p, lr * weight_decay, out=scratch)
        new -= scratch
        out[name] = new
    return out


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup from 0 to base_lr, then cosine decay to 0."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    warmup = int(round(config.warmup_fraction * total_steps))
    if step < warmup:
        return config.base_lr * step / warmup
    t = (step - warmup) / max(1, total_steps - warmup)
    return config.base_lr * 0.5 * (1.0 + math.cos(math.pi * t))


# ---------------------------------------------------------------------------
# pretraining


@dataclass
class PretrainResult:
    net: OfaNet
    log_lines: list[str]
    final_checkpoint: Path | None = None


def _load_streams(
    config: TrainConfig, specs: list[ModalitySpec]
) -> dict[str, np.ndarray]:
    """[n, tokens, p*p*c] patch rows per modality, synthesized or file-backed.

    Each image is resized to the input size and patchified once, here, one
    image at a time into its stream, so no second full-size copy of a
    stream is held; steps gather the rows they use straight from it."""
    dims = config.model_dims()
    streams: dict[str, np.ndarray] = {}
    for spec in specs:
        mid = spec.id
        if config.data_dir:
            path = Path(config.data_dir) / f"pretrain_{mid}.ofad"
            if not path.exists():
                raise FileNotFoundError(f"file-backed pretraining: missing {path}")
            loaded = synthdata.load_dataset(path)
            if loaded.modality_id != mid:
                raise ValueError(f"{path}: holds modality {loaded.modality_id!r}, expected {mid!r}")
            if loaded.images.shape[3] != spec.channels:
                raise ValueError(
                    f"{path}: {loaded.images.shape[3]} channels, spec says {spec.channels}"
                )
            images = loaded.images[: config.samples_per_modality]
            if images.shape[0] < config.samples_per_modality:
                raise ValueError(
                    f"{path}: has {images.shape[0]} samples, need {config.samples_per_modality}"
                )
        else:
            samples = synthdata.gen_pretrain_stream(
                spec, config.seed, config.samples_per_modality, size=config.input_size
            )
            images = [s.image for s in samples]
        stream = np.empty(
            (config.samples_per_modality, dims.tokens, dims.patch_size**2 * spec.channels),
            dtype=np.float32,
        )
        for i, image in enumerate(images):
            resized = synthdata.resize_nearest(image[None], config.input_size)
            stream[i] = patchify(resized, dims.patch_size)[0]
        streams[mid] = stream
    return streams


def pretrain(
    config: TrainConfig,
    registry: ModalityRegistry | None = None,
    out_dir: str | Path | None = None,
) -> PretrainResult:
    """Run the full loop; writes per-epoch and final checkpoints when out_dir
    is given and returns the loss log (one tab-separated line per step).

    The net is built from a RunConfig of `config` plus every trained spec
    that is not a builtin as-is, and each checkpoint embeds that RunConfig's
    serialization, so `load_net` rebuilds exactly this net."""
    config.validate()
    registry = registry if registry is not None else default_registry()
    specs = [registry.lookup(mid) for mid in config.modalities]  # raises for unregistered ids
    builtins = builtin_modalities()
    run = RunConfig(train=config, modality_overrides=tuple(s for s in specs if s not in builtins))
    config_text = serialize_config(run)

    streams = _load_streams(config, specs)
    net = run.build_net()

    steps_per_mod = config.samples_per_modality // config.batch_size
    total_steps = config.epochs * steps_per_mod * len(config.modalities)
    state = OptimizerState()
    log_lines: list[str] = []
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    global_step = 0
    for epoch in range(config.epochs):
        orders = {
            mid: generator("order", config.seed, epoch, mid).permutation(
                config.samples_per_modality
            )
            for mid in config.modalities
        }
        for batch_index in range(steps_per_mod):
            for mid in config.modalities:
                batch = orders[mid][
                    batch_index * config.batch_size : (batch_index + 1) * config.batch_size
                ]
                lr = lr_at(global_step, total_steps, config)
                loss = _train_step(net, streams[mid], batch, mid, config, state, lr, global_step)
                log_lines.append(
                    f"{global_step}\t{epoch}\t{mid}\t{loss:.9g}\t{lr:.9g}"
                )
                global_step += 1
        if out_path is not None:
            ckpt.save_net(out_path / f"checkpoint-epoch{epoch:03d}.ofac", net, config_text)

    final_path = None
    if out_path is not None:
        final_path = out_path / "checkpoint-final.ofac"
        ckpt.save_net(final_path, net, config_text)
        text = "".join(line + "\n" for line in log_lines).encode("utf-8")
        atomic_write(out_path / "loss.log", lambda fh: fh.write(text))
    return PretrainResult(net=net, log_lines=log_lines, final_checkpoint=final_path)


def _train_step(
    net: OfaNet,
    stream: np.ndarray,
    batch: np.ndarray,
    modality: str,
    config: TrainConfig,
    state: OptimizerState,
    lr: float,
    global_step: int,
) -> float:
    keys = [derive_seed("mask", config.seed, global_step, slot) for slot in range(len(batch))]
    total = mim_forward_batch(net, stream, modality, batch, config.mask_ratio, keys)
    ndt.backward(total)
    loss = total.item()
    if not math.isfinite(loss):
        # stop before the optimizer spreads NaN/Inf into every parameter
        raise FloatingPointError(
            f"non-finite loss {loss} at global step {global_step} (modality {modality})"
        )

    touched = {
        name: t for name, t in named_parameters(net) if t.grad is not None
    }
    params = {name: t.data for name, t in touched.items()}
    grads = {name: t.grad for name, t in touched.items()}
    updated = optimizer_step(params, grads, state, lr, config.weight_decay)
    for name, t in touched.items():
        t.data, t.grad = updated[name], None
    return loss
