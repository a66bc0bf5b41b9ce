"""File I/O: bounds-checked reads for the OFAD and OFAC binary formats, and
the atomic write every file the program writes goes through.

A reader holds one file's bytes, read into a writable buffer, and a cursor.
Every read first checks that the bytes it needs are there, so a truncated or
corrupt file raises a ``ValueError`` that names the path and the byte
offset, never a raw ``struct.error`` or a numpy "buffer is smaller than
requested size". Arrays are views of the buffer, so a caller that keeps one
keeps the file's single copy rather than copying it out.

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
    """The bytes of one file of format ``name`` (``"OFAD"`` or ``"OFAC"``) and a cursor."""

    def __init__(self, path: str | Path, name: str):
        self.path = path
        self.name = name
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            # the fixed-size records of an OFAD file run to its end, so a
            # buffer in which the file ends on an 8-byte boundary leaves its
            # float arrays aligned; np.empty, unlike bytearray, skips a
            # zero-fill pass that readinto overwrites anyway
            pad = -size % 8
            buf = np.empty(pad + size, dtype=np.uint8)
            got = fh.readinto(memoryview(buf)[pad:])
        self.raw = memoryview(buf)[pad : pad + got]
        self.off = 0

    def fail(self, what: str, at: int | None = None) -> NoReturn:
        offset = self.off if at is None else at
        raise ValueError(f"{self.path}: {what} at byte offset {offset}")

    def take(self, nbytes: int, what: str) -> int:
        """Advance past ``nbytes``; returns where they start."""
        start = self.off
        left = len(self.raw) - start
        if nbytes > left:
            self.fail(f"truncated {self.name} file: {what} needs {nbytes} bytes, {left} left")
        self.off = start + nbytes
        return start

    def read(self, nbytes: int, what: str) -> bytes:
        start = self.take(nbytes, what)
        return self.raw[start : start + nbytes].tobytes()

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self.take(struct.calcsize(fmt), what))

    def text(self, nbytes: int, encoding: str, what: str) -> str:
        start = self.off
        try:
            return self.read(nbytes, what).decode(encoding)
        except UnicodeDecodeError:
            self.fail(f"{what} is not {encoding} text", start)

    def array(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Writable view of the next ``shape`` items of ``dtype``."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)  # python ints: a corrupt extent cannot overflow
        start = self.take(count * dtype.itemsize, what)
        try:
            return np.frombuffer(self.raw, dtype=dtype, count=count, offset=start).reshape(shape)
        except ValueError as exc:  # a zero extent lets any rank or extents pass `take`
            self.fail(f"{what}: {exc}", start)

    def finish(self, what: str) -> None:
        if self.off != len(self.raw):
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
