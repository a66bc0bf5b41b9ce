"""Deterministic synthetic imagery per modality.

Every sample is a pure function of (global_seed, modality id, index), seeded
through sha-256 counters, so generation is random-access, reproducible
bit-for-bit, and safe to parallelize. Images combine three ingredients with
fixed amplitudes: a spectral vector broadcast over all pixels (1.0), a
per-channel spatially correlated field (0.5), and white noise (0.1), clamped
to [-3, 3].

Spectra and textures are drawn on at most ``SPECTRAL_KNOTS`` knots spread
evenly over the bands and interpolated linearly in between. A modality with
no more bands than knots gets one independent value per band; a
hyperspectral one (enmap, 224 bands) gets spectra that are smooth in
wavelength and textures that are correlated across neighbouring bands, as
real reflectance spectra and scenes are. With 224 independent bands the
masked-reconstruction task is unlearnable at desk scale: a 32-wide decoder
token can only express a rank-32 slice of a 3,584-value patch.

Labeled variants draw every image of a set from one palette: a base spectrum
shared by all classes plus one offset per class, the offsets spaced evenly
on a circle of radius ``CLASS_RADIUS`` in a random plane of knot space. Each
scene adds its own spectral shift (uniform, amplitude ``SCENE_JITTER``), as
illumination and background vary between real scenes. Classification images
carry one class's spectrum and texture; segmentation images carry a class
per pixel (argmax over k smooth fields) on top of one scene texture. The
class signal is thus a fixed-size spectral difference against per-scene and
texture variation of the same scale; unlike independent per-band class
spectra, it does not grow with the band count. The raw-pixel oracles in
``tests/test_synthdata.py`` show that both tasks stay solvable from the
pixels alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binread import BinaryReader, atomic_write
from .modalities import ModalitySpec
from .seeds import generator, parallel_map

DESK_IMAGE_SIZE = 32
IMAGE_CLAMP = 3.0
SPECTRAL_AMP = 1.0
FIELD_AMP = 0.5
NOISE_AMP = 0.1
SPECTRAL_KNOTS = 16
CLASS_RADIUS = 0.5
SCENE_JITTER = 0.4
SEG_FIELD_PASSES = 8

_DATASET_MAGIC = b"OFAD"
_DATASET_VERSION = 1
LABEL_NONE, LABEL_CLASS, LABEL_MASK = 0, 1, 2


@dataclass
class SynthSample:
    image: np.ndarray  # [h, w, c] float32 in [-3, 3]
    label: int | None = None
    mask: np.ndarray | None = None  # [h, w] uint8 class indices


@dataclass(frozen=True)
class ClassSignature:
    spectral: np.ndarray  # [knots] knot values; base + this class's offset
    texture_passes: int


def _smooth_once(fields: np.ndarray) -> np.ndarray:
    """One 3x3 binomial pass over the trailing two axes, edge-clamped."""
    h, w = fields.shape[-2:]
    p = np.empty(fields.shape[:-2] + (h + 2, w + 2), dtype=fields.dtype)
    p[..., 1:-1, 1:-1] = fields
    p[..., 0, 1:-1] = fields[..., 0, :]
    p[..., -1, 1:-1] = fields[..., -1, :]
    p[..., :, 0] = p[..., :, 1]
    p[..., :, -1] = p[..., :, -2]
    # the taps are added in one fixed order, so the data stay reproducible
    # bit for bit
    out = p[..., 0:h, 0:w].copy()
    for dy, dx, weight in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 4), (1, 2, 2), (2, 0, 1), (2, 1, 2), (2, 2, 1)):
        tap = p[..., dy : dy + h, dx : dx + w]
        out += tap if weight == 1 else weight * tap
    return out / 16.0


def _smooth(fields: np.ndarray, passes: int) -> np.ndarray:
    for _ in range(passes):
        fields = _smooth_once(fields)
    return fields


def _standardize(fields: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance over the trailing two axes."""
    mu = fields.mean(axis=(-2, -1), keepdims=True)
    sd = fields.std(axis=(-2, -1), keepdims=True)
    return (fields - mu) / np.maximum(sd, 1e-12)


def spectral_knots(channels: int) -> int:
    """Independent spectral values per image: one per band, at most SPECTRAL_KNOTS."""
    return min(channels, SPECTRAL_KNOTS)


def _to_bands(knot_values: np.ndarray, channels: int, axis: int = -1) -> np.ndarray:
    """Interpolate knot values linearly to `channels` bands along `axis`."""
    k = knot_values.shape[axis]
    if k == channels:
        return knot_values
    pos = np.linspace(0.0, k - 1, channels)
    lo = np.minimum(pos.astype(int), k - 2)
    shape = [1] * knot_values.ndim
    shape[axis] = channels
    frac = (pos - lo).reshape(shape)
    return (1.0 - frac) * np.take(knot_values, lo, axis=axis) + frac * np.take(knot_values, lo + 1, axis=axis)


def _texture_fields(rng: np.random.Generator, c: int, h: int, w: int, passes: int) -> np.ndarray:
    """[c, h, w] standardized fields from one stream, one per spectral knot
    and interpolated to the bands like the spectra."""
    fields = _standardize(_smooth(rng.standard_normal((spectral_knots(c), h, w)), passes))
    if fields.shape[0] == c:
        return fields
    return _standardize(_to_bands(fields, c, axis=0))


def _assemble(spectral: np.ndarray, fields: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Spectral + texture + noise mix in [h, w, c], clamped.

    ``spectral`` holds knot values, [knots] broadcast over all pixels or
    [h, w, knots] per pixel.
    """
    spectral = _to_bands(spectral, noise.shape[-1])
    img = SPECTRAL_AMP * spectral + FIELD_AMP * np.moveaxis(fields, 0, -1) + NOISE_AMP * noise
    return np.clip(img, -IMAGE_CLAMP, IMAGE_CLAMP).astype(np.float32)


def gen_pretrain_sample(
    spec: ModalitySpec, global_seed: int, index: int, size: int = DESK_IMAGE_SIZE
) -> SynthSample:
    """Unlabeled sample: a fresh random signature per index."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    rng = generator("pretrain", global_seed, spec.id, index)
    spectral = rng.uniform(-1.0, 1.0, spectral_knots(spec.channels))
    passes = int(rng.integers(2, 7))
    fields = _texture_fields(rng, spec.channels, size, size, passes)
    noise = rng.standard_normal((size, size, spec.channels))
    return SynthSample(image=_assemble(spectral, fields, noise))


def gen_pretrain_stream(
    spec: ModalitySpec, global_seed: int, count: int, size: int = DESK_IMAGE_SIZE
) -> list[SynthSample]:
    """count pretrain samples, indices 0..count-1, generated in parallel."""
    return parallel_map(lambda i: gen_pretrain_sample(spec, global_seed, i, size), range(count))


def class_palette(spec: ModalitySpec, k_classes: int, global_seed: int) -> list[ClassSignature]:
    """k signatures: one shared base spectrum plus offsets spaced evenly on a
    circle of radius CLASS_RADIUS (on a line for a single knot)."""
    _check_classes(k_classes)
    rng = generator("palette", global_seed, spec.id, k_classes)
    knots = spectral_knots(spec.channels)
    base = rng.uniform(-1.0, 1.0, knots)
    if knots == 1:
        offsets = CLASS_RADIUS * np.linspace(-1.0, 1.0, k_classes)[:, None]
    else:
        plane, _ = np.linalg.qr(rng.standard_normal((knots, 2)))  # orthonormal columns
        angles = 2.0 * math.pi * np.arange(k_classes) / k_classes
        offsets = CLASS_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1) @ plane.T
    passes = rng.integers(2, 7, k_classes)
    return [ClassSignature(base + offsets[i], int(passes[i])) for i in range(k_classes)]


def _check_classes(k_classes: int) -> None:
    if k_classes < 2:
        raise ValueError(f"k_classes must be >= 2, got {k_classes}")
    if k_classes > 255:
        raise ValueError(f"k_classes must be <= 255, got {k_classes}")


def _scene_shift(rng: np.random.Generator, knots: int) -> np.ndarray:
    return SCENE_JITTER * rng.uniform(-1.0, 1.0, knots)


def gen_cls_dataset(
    spec: ModalitySpec,
    n: int,
    k_classes: int,
    global_seed: int,
    size: int = DESK_IMAGE_SIZE,
) -> list[SynthSample]:
    """Labeled classification set; class counts balanced within one."""
    _check_classes(k_classes)
    if n < k_classes:
        raise ValueError(f"need n >= k_classes, got n={n}, k={k_classes}")
    palette = class_palette(spec, k_classes, global_seed)
    knots = spectral_knots(spec.channels)
    labels = np.array([i % k_classes for i in range(n)])
    generator("cls-labels", global_seed, spec.id, n, k_classes).shuffle(labels)

    def build(index: int) -> SynthSample:
        sig = palette[labels[index]]
        rng = generator("cls", global_seed, spec.id, index)
        spectral = sig.spectral + _scene_shift(rng, knots)
        fields = _texture_fields(rng, spec.channels, size, size, sig.texture_passes)
        noise = rng.standard_normal((size, size, spec.channels))
        return SynthSample(image=_assemble(spectral, fields, noise), label=int(labels[index]))

    return parallel_map(build, range(n))


def gen_seg_dataset(
    spec: ModalitySpec,
    n: int,
    k_classes: int,
    global_seed: int,
    size: int = DESK_IMAGE_SIZE,
) -> list[SynthSample]:
    """Labeled segmentation set; mask = per-pixel argmax over k smooth fields."""
    _check_classes(k_classes)
    if n < k_classes:
        raise ValueError(f"need n >= k_classes, got n={n}, k={k_classes}")
    palette = class_palette(spec, k_classes, global_seed)
    spectra = np.stack([sig.spectral for sig in palette])  # [k, knots]
    knots = spectral_knots(spec.channels)

    def build(index: int) -> SynthSample:
        rng = generator("seg", global_seed, spec.id, index)
        class_fields = _standardize(_smooth(rng.standard_normal((k_classes, size, size)), SEG_FIELD_PASSES))
        mask = class_fields.argmax(axis=0).astype(np.uint8)
        spectral = spectra[mask] + _scene_shift(rng, knots)
        fields = _texture_fields(rng, spec.channels, size, size, int(rng.integers(2, 7)))
        noise = rng.standard_normal((size, size, spec.channels))
        return SynthSample(image=_assemble(spectral, fields, noise), mask=mask)

    return parallel_map(build, range(n))


def resize_nearest(images: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbor resize of a stack [n, h, w] or [n, h, w, c] to
    [n, size, size, ...].

    Pure index arithmetic: label-safe for masks, bit-exact across runs.
    """
    h, w = images.shape[1:3]
    rows = (np.arange(size) * h) // size
    cols = (np.arange(size) * w) // size
    return np.ascontiguousarray(images[:, rows[:, None], cols])


# ---------------------------------------------------------------------------
# OFAD dataset files


@dataclass
class LoadedDataset:
    modality_id: str
    images: np.ndarray  # [n, h, w, c] float32
    labels: np.ndarray | None = None  # [n] int
    masks: np.ndarray | None = None  # [n, h, w] uint8

    @property
    def label_kind(self) -> int:
        if self.labels is not None:
            return LABEL_CLASS
        if self.masks is not None:
            return LABEL_MASK
        return LABEL_NONE


def stack_samples(modality_id: str, samples: list[SynthSample]) -> LoadedDataset:
    images = np.stack([s.image for s in samples], dtype=np.float32)
    labels = masks = None
    if samples and samples[0].label is not None:
        labels = np.array([s.label for s in samples], dtype=np.int64)
    if samples and samples[0].mask is not None:
        masks = np.stack([s.mask for s in samples]).astype(np.uint8)
    return LoadedDataset(modality_id, images, labels, masks)


def save_dataset(path: str | Path, dataset: LoadedDataset) -> None:
    """Write an OFAD file atomically (temp file + rename; no partials)."""
    n, h, w, c = dataset.images.shape
    kind = dataset.label_kind

    def write(fh) -> None:
        fh.write(_DATASET_MAGIC)
        fh.write(struct.pack("<H", _DATASET_VERSION))
        ident = dataset.modality_id.encode("ascii")
        fh.write(struct.pack("<I", len(ident)))
        fh.write(ident)
        fh.write(struct.pack("<IHHHB", n, h, w, c, kind))
        for i in range(n):
            fh.write(np.ascontiguousarray(dataset.images[i], dtype="<f4").tobytes())
            if kind == LABEL_CLASS:
                fh.write(struct.pack("<H", int(dataset.labels[i])))
            elif kind == LABEL_MASK:
                fh.write(np.ascontiguousarray(dataset.masks[i], dtype=np.uint8).tobytes())

    atomic_write(path, write)


def load_dataset(path: str | Path) -> LoadedDataset:
    rd = BinaryReader(path, "OFAD")
    if rd.read(4, "magic") != _DATASET_MAGIC:
        raise ValueError(f"{path}: not an OFAD dataset file")
    (version,) = rd.unpack("<H", "version")
    if version != _DATASET_VERSION:
        raise ValueError(f"{path}: unsupported OFAD version {version}")
    (id_len,) = rd.unpack("<I", "modality id length")
    modality_id = rd.text(id_len, "ascii", "modality id")
    n, h, w, c, kind = rd.unpack("<IHHHB", "header")
    if kind not in (LABEL_NONE, LABEL_CLASS, LABEL_MASK):
        rd.fail(f"unknown label kind {kind}", rd.off - 1)
    if 0 in (h, w, c):
        rd.fail(f"empty image shape {h}x{w}x{c}")
    # samples are fixed-size records (image, then label or mask), so the
    # whole block is one structured array; its size is checked before the
    # record type is built
    record = 4 * h * w * c + (2 if kind == LABEL_CLASS else h * w if kind == LABEL_MASK else 0)
    start = rd.take(n * record, f"{n} samples of {record} bytes")
    fields = [("image", "<f4", (h, w, c))]
    if kind == LABEL_CLASS:
        fields.append(("label", "<u2"))
    elif kind == LABEL_MASK:
        fields.append(("mask", "u1", (h, w)))
    samples = np.frombuffer(rd.raw, dtype=np.dtype(fields), count=n, offset=start)
    rd.finish("sample data")
    # copies: the arrays own their memory and stay writable
    images = np.array(samples["image"], dtype=np.float32, order="C")
    # a NaN or Inf pixel would flow silently into features, losses and metrics
    if not np.isfinite(images).all():
        bad = int(np.flatnonzero(~np.isfinite(images).all(axis=(1, 2, 3)))[0])
        rd.fail(f"sample {bad} has non-finite pixels", start + bad * record)
    labels = samples["label"].astype(np.int64) if kind == LABEL_CLASS else None
    masks = np.array(samples["mask"], order="C") if kind == LABEL_MASK else None
    return LoadedDataset(modality_id, images, labels, masks)
