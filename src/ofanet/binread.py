"""File I/O: bounds-checked reads for the OFAD and OFAC binary formats, and
the atomic write every file the program writes goes through.

A reader keeps one file open, takes its size from ``fstat`` and keeps a
cursor. Every read first checks that the bytes it needs are there, so a
truncated or corrupt file raises a ``ValueError`` that names the path and
the byte offset, never a raw ``struct.error`` or a numpy "buffer is smaller
than requested size". Arrays are read straight into a destination: one the
caller owns (``readinto``) or one allocated once its size has been checked
(``array``). No buffer holds the whole file, so a loaded array is the data's
only copy.

``atomic_write`` writes to a temp file beside the target and renames it into
place, so a failed write leaves the old file (or no file) and no partial one.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, NoReturn

import numpy as np


class BinaryReader:
    """An open file of format ``name`` (``"OFAD"`` or ``"OFAC"``) and a cursor;
    use it as a context manager, which closes the file."""

    def __init__(self, path: str | Path, name: str):
        self.path = path
        self.name = name
        self.fh = open(path, "rb")
        self.size = os.fstat(self.fh.fileno()).st_size
        self.off = 0

    def __enter__(self) -> BinaryReader:
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def fail(self, what: str, at: int | None = None) -> NoReturn:
        offset = self.off if at is None else at
        raise ValueError(f"{self.path}: {what} at byte offset {offset}")

    def need(self, nbytes: int, what: str) -> int:
        """Check that ``nbytes`` are left, without reading them; returns where they start."""
        left = self.size - self.off
        if nbytes > left:
            self.fail(f"truncated {self.name} file: {what} needs {nbytes} bytes, {left} left")
        return self.off

    def _advance(self, got: int, nbytes: int, what: str) -> None:
        if got != nbytes:  # the file shrank since it was opened
            self.fail(f"truncated {self.name} file: {what} needs {nbytes} bytes, {got} read")
        self.off += nbytes

    def read(self, nbytes: int, what: str) -> bytes:
        self.need(nbytes, what)
        data = self.fh.read(nbytes)
        self._advance(len(data), nbytes, what)
        return data

    def readinto(self, dest: np.ndarray, what: str) -> None:
        """Fill the C-contiguous array ``dest`` with the next ``dest.nbytes`` bytes."""
        self.need(dest.nbytes, what)
        self._advance(self.fh.readinto(dest), dest.nbytes, what)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def text(self, nbytes: int, encoding: str, what: str) -> str:
        start = self.off
        try:
            return self.read(nbytes, what).decode(encoding)
        except UnicodeDecodeError:
            self.fail(f"{what} is not {encoding} text", start)

    def array(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next ``shape`` items of ``dtype``, read into a fresh array."""
        dtype = np.dtype(dtype)
        start = self.need(math.prod(shape) * dtype.itemsize, what)  # python ints: cannot overflow
        try:
            out = np.empty(shape, dtype=dtype)
        except ValueError as exc:  # a zero extent lets any rank or extents pass `need`
            self.fail(f"{what}: {exc}", start)
        self.readinto(out, what)
        return out

    def finish(self, what: str) -> None:
        if self.off != self.size:
            self.fail(f"trailing bytes after {what}")


def atomic_write(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Call ``write`` on a binary temp file, then rename it over ``path``;
    if anything raises, the temp file is removed and ``path`` is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
