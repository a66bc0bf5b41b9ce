"""OFAC checkpoint files: named float32 tensors plus the run config text.

Layout, all little-endian: magic "OFAC", u16 version, u32 config length +
utf-8 config text, u32 tensor count, then per tensor: u32 name length +
name, u8 rank, one u32 extent per axis, raw f32 data. Fixed sin-cos tables
are rebuilt from the config at load time and never stored.

A checkpoint describes itself: its config text is the canonical
serialization of the config its net was built from, and `load_net` rebuilds
the net, `[modality.*]` overrides included, from that text alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import runconfig
from .binread import BinaryReader, atomic_write
from .model import OfaNet, named_parameters, rebind_parameters

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
            fh.write(arr.tobytes())

    atomic_write(path, write)


def save_net(path: str | Path, net: OfaNet, config_text: str) -> None:
    write_checkpoint(path, config_text, ((n, t.data) for n, t in named_parameters(net)))


def read_checkpoint(path: str | Path) -> Checkpoint:
    rd = BinaryReader(path, "OFAC")
    if rd.read(4, "magic") != _MAGIC:
        raise ValueError(f"{path}: not an OFAC checkpoint file")
    (version,) = rd.unpack("<H", "version")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported OFAC version {version}")
    (cfg_len,) = rd.unpack("<I", "config length")
    config_text = rd.text(cfg_len, "utf-8", "config text")
    (count,) = rd.unpack("<I", "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = rd.unpack("<I", "tensor name length")
        name = rd.text(name_len, "utf-8", "tensor name")
        (rank,) = rd.unpack("<B", f"{name} rank")
        shape = rd.unpack(f"<{rank}I", f"{name} shape")
        tensors[name] = np.array(rd.array("<f4", shape, f"{name} data"))  # own the memory
    rd.finish("tensor data")
    return Checkpoint(config_text=config_text, tensors=tensors)


def load_net(path: str | Path) -> tuple[OfaNet, runconfig.RunConfig]:
    """Rebuild the net described by the embedded config and load its weights.

    A config, modality id, tensor name or shape that does not fit raises a
    ValueError naming the path."""
    ckpt = read_checkpoint(path)
    try:
        cfg = runconfig.parse_config(ckpt.config_text)
        net = cfg.build_net()
        rebind_parameters(net, ckpt.tensors)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from exc
    return net, cfg
