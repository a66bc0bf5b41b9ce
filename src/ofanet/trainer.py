"""Masked-image-modeling pretraining over interleaved modality streams.

The loop never mixes modalities in a step: each step draws one mini-batch
from one modality, round-robin over the config's modality list, so the five
streams stay spatially unaligned end to end. The last partial batch per
modality per epoch is dropped, keeping the per-epoch step count exact.

Each stream is held as patch rows [n, tokens, p*p*c], patchified once when
it is loaded; a step hands ``mim_forward_batch`` the stream and its
mini-batch's image indices, and only the rows the step uses are read: the
visible rows, gathered to embed, and the masked rows, as the loss's targets.

A step trains three blocks of the parameter table: the modality's
embedder, the shared backbone and the modality's decoder. The optimizer
adopts the net's own flat parameter buffer, in the table's (checkpoint) order
where each block is one contiguous span, and keeps the gradients and both
moments in flat buffers of that order. So a step copies each trained
gradient once, into the gradient buffer, and updates three spans in place;
the other modalities' blocks, and their moments, stay as they are.

Every source of randomness (data, shuffles, masks, init) is a derived
counter seed, so identical config+seed reproduces the loss log and the
checkpoints bit for bit regardless of OFA_THREADS. A step whose loss is
not finite stops the run with a FloatingPointError naming the step and the
modality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import ndtensor as ndt
from . import synthdata
from .binread import atomic_write
from .model import OfaNet, mim_forward_batch, patchify
from .modalities import ModalityRegistry, ModalitySpec, builtin_modalities, default_registry
from .ndtensor import Tensor
from .runconfig import RunConfig, TrainConfig, serialize_config
from .seeds import derive_seed, generator

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# optimizer: decoupled weight decay + adaptive moments over flat buffers


def _section_key(name: str) -> str:
    """The block a parameter trains with: ``embedder.<m>``, ``decoder.<m>``,
    or the name's first component (``backbone``)."""
    head, _, rest = name.partition(".")
    return f"{head}.{rest.partition('.')[0]}" if head in ("embedder", "decoder") else head


@dataclass
class _Section:
    key: str
    span: slice  # of the flat buffers
    members: list[tuple[str, Tensor, np.ndarray]]  # name, parameter, its view of `grads`


class OptimizerState:
    """Adam moments, a gradient buffer and the parameters themselves, each one
    flat array in the order of the parameter table.

    ``params`` is the net's own buffer, ``net.flat``, not a copy: the net's
    arrays are views of it, so a step updates them in place. A parameter
    whose array is not its slice (its ``data`` reassigned, say) raises, as a
    step would train an array the forward no longer reads. A section is a run
    of adjacent parameters that train together (the backbone, or one
    modality's embedder or decoder; see ``_section_key``), so in canonical
    order each is one contiguous span of every buffer.
    """

    def __init__(self, net: OfaNet):
        self.params = net.flat
        self.grads = np.empty_like(net.flat)
        self.m = np.zeros(net.flat.shape, dtype=net.flat.dtype)
        self.v = np.zeros(net.flat.shape, dtype=net.flat.dtype)
        self.step = 0
        self.sections: list[_Section] = []
        off = 0
        for key, group in groupby(net.params.items(), key=lambda item: _section_key(item[0])):
            start, members = off, []
            for name, t in group:
                end = off + t.size
                if t.data.base is not net.flat or t.data.ctypes.data != net.flat[off:end].ctypes.data:
                    raise ValueError(f"{name}: its array is not its slice of the net's flat buffer")
                members.append((name, t, self.grads[off:end].reshape(t.shape)))
                off = end
            self.sections.append(_Section(key, slice(start, off), members))
        widest = max(s.span.stop - s.span.start for s in self.sections)
        self.scratch = (np.empty(widest, net.flat.dtype), np.empty(widest, net.flat.dtype))


def optimizer_step(state: OptimizerState, lr: float, weight_decay: float) -> None:
    """One decoupled update, in place, of every section that received a gradient.

    A section updates as a whole: its gradients are copied into the flat
    gradient buffer and cleared from their parameters, then the textbook
    update runs once over the section's span, writing only into the two
    scratch buffers the state keeps. A parameter without a gradient in a
    section that has one raises before anything moves; updating it would
    decay it and move it by its stale moments. Sections without any gradient
    (round robin leaves the other modalities' embedders and decoders alone)
    keep their parameters and moments.
    """
    touched = [s for s in state.sections if any(t.grad is not None for _, t, _ in s.members)]
    for section in touched:
        for name, t, _ in section.members:
            if t.grad is None:
                raise ValueError(f"{name}: no gradient, yet section {section.key} is updated")
            if t.grad.shape != t.shape:
                raise ValueError(f"{name}: grad shape {t.grad.shape} != param shape {t.shape}")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for section in touched:
        for _, t, grad in section.members:
            np.copyto(grad, t.grad)
            t.grad = None
        span = section.span
        p, g, m, v = state.params[span], state.grads[span], state.m[span], state.v[span]
        a, b = (buf[: p.size] for buf in state.scratch)
        # the textbook expressions, operand for operand:
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        #   p = p - lr * ((m / bc1) / (sqrt(v / bc2) + eps)) - (lr * wd) * p
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m *= ADAM_BETA1
        m += a
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, bc1, out=b)
        b /= a
        b *= lr
        np.multiply(p, lr * weight_decay, out=a)
        p -= b
        p -= a


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
    state = OptimizerState(net)
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

    optimizer_step(state, lr, config.weight_decay)
    return loss
