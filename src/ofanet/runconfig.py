"""Flat key = value run-config documents with section headers.

A document describes one pretraining run: a `[train]` section and any
`[modality.<id>]` sections, each with the one key `channels`.
`RunConfig.build_net` is the one recipe from a run config to its net. A
checkpoint carries the canonical serialization of the config its net was
built from: comments and key order of a hand-written file are not kept, and
every default is spelled out, so a later change to a TrainConfig default
cannot change what `load_net` rebuilds. Unknown sections or keys are
rejected; the first offending line is reported by number. Blank lines and
lines starting with '#' are ignored. A linear probe's ProbeConfig comes from
`ofanet probe`'s flags and its data, never from a document.

Reference setting from the source experiments, for the record: 10,000
samples per modality (50,000 total), 100 pretraining epochs. The desk-scale
defaults below are the scaled-down stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from .modalities import BUILTIN_IDS, ModalityRegistry, ModalitySpec, builtin_modalities
from .model import ModelDims, OfaNet, build_ofanet

CLS_TASK = "classification"
SEG_TASK = "segmentation"
RANDOM_INIT = "random-init"
DEFAULT_CLS_LR = 1e-2
DEFAULT_SEG_LR = 1e-4


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class TrainConfig:
    seed: int = 42
    input_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    decoder_embed_dim: int = 32
    decoder_depth: int = 2
    mask_ratio: float = 0.75
    samples_per_modality: int = 512
    batch_size: int = 16
    epochs: int = 30
    base_lr: float = 1.5e-4
    weight_decay: float = 0.05
    warmup_fraction: float = 0.05
    modalities: tuple[str, ...] = BUILTIN_IDS
    data_dir: str = ""

    def model_dims(self) -> ModelDims:
        return ModelDims(**{f.name: getattr(self, f.name) for f in fields(ModelDims)})

    def validate(self) -> None:
        self.model_dims().validate()
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in (0, 1), got {self.mask_ratio}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.samples_per_modality < self.batch_size:
            raise ValueError(
                f"samples_per_modality {self.samples_per_modality} smaller than "
                f"batch_size {self.batch_size}: zero steps per epoch"
            )
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not self.modalities:
            raise ValueError("modalities list must not be empty")
        if len(set(self.modalities)) != len(self.modalities):
            raise ValueError(f"duplicate modality ids: {list(self.modalities)}")


@dataclass
class ProbeConfig:
    task: str = CLS_TASK
    lr: float | None = None  # None -> task default (1e-2 cls, 1e-4 seg)
    epochs: int = 100
    k_classes: int = 4

    @property
    def resolved_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return DEFAULT_CLS_LR if self.task == CLS_TASK else DEFAULT_SEG_LR

    def validate(self) -> None:
        if self.task not in (CLS_TASK, SEG_TASK):
            raise ValueError(f"task must be {CLS_TASK!r} or {SEG_TASK!r}, got {self.task!r}")
        if self.lr is not None and self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.k_classes < 2:
            raise ValueError(f"k_classes must be >= 2, got {self.k_classes}")


@dataclass
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    modality_overrides: tuple[ModalitySpec, ...] = ()

    def build_registry(self) -> ModalityRegistry:
        """Builtins, with override sections replacing or extending them."""
        overridden = {spec.id: spec for spec in self.modality_overrides}
        specs = [overridden.pop(s.id, s) for s in builtin_modalities()]
        specs.extend(overridden.values())
        return ModalityRegistry(specs)

    def build_net(self) -> OfaNet:
        """The freshly initialized net this run trains; raises KeyError for
        a modality id neither builtin nor overridden."""
        registry = self.build_registry()
        specs = [registry.lookup(mid) for mid in self.train.modalities]
        return build_ofanet(self.train.model_dims(), specs, self.train.seed)


# parse type per field annotation; a section's keys are its dataclass fields
_PARSE_TYPES: dict[str, type] = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[str, ...]": tuple,
}


def _schema(cls) -> dict[str, type]:
    # a modality's id is its section name, not a key
    return {f.name: _PARSE_TYPES[f.type] for f in fields(cls) if f.name != "id"}


_TRAIN_SCHEMA = _schema(TrainConfig)
_MODALITY_SCHEMA = _schema(ModalitySpec)


def _convert(raw: str, typ: type, key: str, line: int) -> Any:
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        if typ is tuple:
            items = tuple(p.strip() for p in raw.split(",") if p.strip())
            if not items:
                raise ValueError("empty list")
            return items
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {typ.__name__}", line) from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate; raises ConfigError at the first bad line."""
    if not text.strip():
        raise ConfigError("config text is empty")
    section: str | None = None
    train_vals: dict[str, Any] = {}
    modality_vals: dict[str, dict[str, Any]] = {}
    key_lines: dict[tuple[str, str], int] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section == "train":
                continue
            if section.startswith("modality.") and len(section) > len("modality."):
                modality_vals.setdefault(section[len("modality."):], {})
                continue
            raise ConfigError(f"unknown section [{section}]", lineno)
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if section == "train":
            schema, target = _TRAIN_SCHEMA, train_vals
        else:
            schema, target = _MODALITY_SCHEMA, modality_vals[section[len("modality."):]]
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if key in target:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        target[key] = _convert(value, schema[key], key, lineno)
        key_lines[(section, key)] = lineno

    train = replace(TrainConfig(), **train_vals)
    overrides = []
    for mid, vals in modality_vals.items():
        if "channels" not in vals:
            raise ConfigError(f"[modality.{mid}] needs channels")
        overrides.append(ModalitySpec(id=mid, **vals))

    cfg = RunConfig(train=train, modality_overrides=tuple(overrides))
    _validate(cfg, key_lines)
    return cfg


def _validate(cfg: RunConfig, key_lines: dict[tuple[str, str], int]) -> None:
    def run(section: str, validate) -> None:
        try:
            validate()
        except ValueError as exc:
            # best effort: point at the line that set the offending key
            line = None
            for (sec, key), lineno in key_lines.items():
                if sec == section and key in str(exc):
                    line = lineno
                    break
            raise ConfigError(str(exc), line) from None

    run("train", cfg.train.validate)
    for spec in cfg.modality_overrides:
        run(f"modality.{spec.id}", spec.validate)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    sections = [("train", cfg.train, _TRAIN_SCHEMA)]
    sections += [(f"modality.{spec.id}", spec, _MODALITY_SCHEMA) for spec in cfg.modality_overrides]
    blocks = []
    for name, values, schema in sections:
        lines = [f"[{name}]"]
        for key in schema:
            lines.append(f"{key} = {_format(getattr(values, key))}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _format(value: Any) -> str:
    if isinstance(value, tuple):
        return ", ".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)
