"""OFAC checkpoint files: named float32 tensors plus the run config text.

Layout, all little-endian: magic "OFAC", u16 version, u32 config length +
utf-8 config text, u32 tensor count, then per tensor: u32 name length +
name, u8 rank, one u32 extent per axis, raw f32 data. Fixed sin-cos tables
are rebuilt from the config at load time and never stored.

A checkpoint describes itself: its config text is the canonical
serialization of the config its net was built from, and `load_net` rebuilds
the net, `[modality.*]` overrides included, from that text alone, then
reads each tensor from the file straight into its slice of the net's flat
parameter buffer. `read_checkpoint` reads each tensor into its own array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import runconfig
from .binread import BinaryReader, atomic_write
from .model import OfaNet

_MAGIC = b"OFAC"
_VERSION = 1


@dataclass
class Checkpoint:
    config_text: str
    tensors: dict[str, np.ndarray]  # insertion order == file order

    @property
    def total_parameters(self) -> int:
        return sum(int(t.size) for t in self.tensors.values())


def write_checkpoint(path: str | Path, config_text: str, tensors) -> None:
    """Write atomically (temp + rename); tensors is an iterable of (name, array)."""
    items = [(name, np.ascontiguousarray(arr, dtype="<f4")) for name, arr in tensors]

    def write(fh) -> None:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        blob = config_text.encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(items)))
        for name, arr in items:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(arr)

    atomic_write(path, write)


def save_net(path: str | Path, net: OfaNet, config_text: str) -> None:
    write_checkpoint(path, config_text, ((n, t.data) for n, t in net.params.items()))


def _read_config_text(rd: BinaryReader) -> str:
    if rd.read(4, "magic") != _MAGIC:
        raise ValueError(f"{rd.path}: not an OFAC checkpoint file")
    (version,) = rd.unpack("<H", "version")
    if version != _VERSION:
        raise ValueError(f"{rd.path}: unsupported OFAC version {version}")
    (cfg_len,) = rd.unpack("<I", "config length")
    return rd.text(cfg_len, "utf-8", "config text")


def _tensor_heads(rd: BinaryReader):
    """Yield each tensor's name and shape with the cursor at its data, which
    the caller reads before asking for the next; a repeated name is rejected."""
    (count,) = rd.unpack("<I", "tensor count")
    seen: set[str] = set()
    for _ in range(count):
        (name_len,) = rd.unpack("<I", "tensor name length")
        at = rd.off
        name = rd.text(name_len, "utf-8", "tensor name")
        if name in seen:
            rd.fail(f"tensor name {name!r} repeated", at)
        seen.add(name)
        (rank,) = rd.unpack("<B", f"{name} rank")
        yield name, rd.unpack(f"<{rank}I", f"{name} shape")
    rd.finish("tensor data")


def read_checkpoint(path: str | Path) -> Checkpoint:
    with BinaryReader(path, "OFAC") as rd:
        config_text = _read_config_text(rd)
        tensors = {name: rd.array("<f4", shape, f"{name} data") for name, shape in _tensor_heads(rd)}
    return Checkpoint(config_text=config_text, tensors=tensors)


def load_net(path: str | Path) -> tuple[OfaNet, runconfig.RunConfig]:
    """Rebuild the net described by the embedded config and read its weights
    straight into their slices of ``net.flat``.

    A config, modality id, tensor name or shape that does not fit, or a
    NaN or Inf weight, raises a ValueError naming the path; `read_checkpoint`
    (and so `ofanet inspect`) reads such weights as they are."""
    with BinaryReader(path, "OFAC") as rd:
        config_text = _read_config_text(rd)
        try:
            cfg = runconfig.parse_config(config_text)
            net = cfg.build_net()
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}: {exc.args[0]}") from exc
        names: set[str] = set()
        misfit = None
        for name, shape in _tensor_heads(rd):
            names.add(name)
            t = net.params.get(name)
            if t is not None and t.shape == shape:
                rd.readinto(t.data, f"{name} data")
                continue
            # read past a tensor that does not fit; the checks below name it
            rd.array("<f4", shape, f"{name} data")
            if t is not None and misfit is None:
                misfit = f"parameter {name} has shape {t.shape}, got {shape}"
    if offending := sorted(set(net.params) ^ names):
        raise ValueError(f"{path}: parameter set mismatch, offending names: {offending[:5]}")
    if misfit:
        raise ValueError(f"{path}: {misfit}")
    # a NaN or Inf weight would flow silently into every probe metric. A
    # float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every weight is: one pass, and no temporary array.
    with np.errstate(invalid="ignore"):  # inf + -inf
        finite = np.isfinite(net.flat.sum(dtype=np.float64))
    if not finite:
        name, bad = next((n, t.size - np.count_nonzero(np.isfinite(t.data)))
                         for n, t in net.params.items() if not np.isfinite(t.data).all())
        raise ValueError(f"{path}: parameter {name} has {bad} non-finite values")
    return net, cfg
