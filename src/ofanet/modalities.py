"""Registry of sensor modalities: the single source of truth for the channel
counts used by embedders, decoders, and the data generator.

Five modalities ship builtin; anything else can be registered at runtime or
through the run config. Every image is resized to the run's input_size, so a
spec carries no native size (the README records the paper's sensor scales).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModalitySpec:
    id: str
    channels: int

    def validate(self) -> None:
        if not self.id or "." in self.id:
            # the id is one segment of dotted parameter names
            raise ValueError(f"modality id must be non-empty and dot-free, got {self.id!r}")
        if self.channels < 1:
            raise ValueError(f"modality {self.id!r}: channels must be >= 1, got {self.channels}")


def builtin_modalities() -> list[ModalitySpec]:
    """The five builtin sensors, in canonical order."""
    return [
        ModalitySpec("sentinel1", channels=2),
        ModalitySpec("sentinel2", channels=9),
        ModalitySpec("gaofen", channels=4),
        ModalitySpec("naip", channels=3),
        ModalitySpec("enmap", channels=224),
    ]


BUILTIN_IDS = tuple(spec.id for spec in builtin_modalities())


class ModalityRegistry:
    """Id-keyed ModalitySpec store; built once, then read-only."""

    def __init__(self, specs: list[ModalitySpec] | None = None):
        self._specs: dict[str, ModalitySpec] = {}
        for spec in specs if specs is not None else builtin_modalities():
            self.register(spec)

    def register(self, spec: ModalitySpec) -> None:
        spec.validate()
        if spec.id in self._specs:
            raise ValueError(f"modality {spec.id!r} already registered")
        self._specs[spec.id] = spec

    def lookup(self, modality_id: str) -> ModalitySpec:
        try:
            return self._specs[modality_id]
        except KeyError:
            raise KeyError(
                f"unknown modality {modality_id!r}; registered: {sorted(self._specs)}"
            ) from None


def default_registry() -> ModalityRegistry:
    return ModalityRegistry()
