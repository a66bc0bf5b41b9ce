"""Counter-based seed derivation and bounded parallel mapping.

Every random draw in the package flows through `generator(...)` with a
descriptive key tuple, so any sample, mask, or parameter can be regenerated
in isolation, in any order, on any number of threads, with identical bits.
Python's builtin hash() is salted per process and is never used here.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")


def derive_seed(*parts: int | str) -> int:
    """Collapse a key tuple into a stable uint64 seed via SHA-256."""
    text = "\x1f".join(_canonical(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _canonical(part: int | str) -> str:
    if isinstance(part, bool):
        raise TypeError("bool seed parts are ambiguous; pass int or str")
    if isinstance(part, (int, str)):
        return f"{type(part).__name__}:{part}"
    raise TypeError(f"unsupported seed part type: {type(part).__name__}")


def generator(*parts: int | str) -> np.random.Generator:
    """Independent PCG64 stream keyed by the given parts."""
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))


def thread_count() -> int:
    """Worker cap from OFA_THREADS; unset or invalid means single-threaded."""
    raw = os.environ.get("OFA_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn: Callable[[T], U], items: Sequence[T] | Iterable[T]) -> list[U]:
    """Map fn over items, in order, on up to thread_count() workers.

    Results are identical to a sequential map for any worker count: fn must be
    pure, and outputs are collected by input position.
    """
    items = list(items)
    workers = min(thread_count(), len(items)) or 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
