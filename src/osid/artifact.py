"""Reading and writing of every stored artifact.

Binary artifacts are an 8-byte magic, little-endian u32 header fields, then
little-endian float64 arrays.  Tables are UTF-8 CSV files with a header row.
Every read is strict and raises CorruptArtifactError on a malformed file.
"""

import csv
import math
import os
import struct

import numpy as np

from .errors import CorruptArtifactError


def write_binary(path, magic, ints, arrays):
    """Write magic, then ints as u32 header fields, then arrays as f8."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack(f"<{len(ints)}I", *ints))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


class BinaryReader:
    """Strict reader of one binary artifact, used as a context manager.

    Entering checks the magic; a clean exit checks that no byte is left.
    Each read checks its size against the bytes left first, so a corrupt
    header never allocates what it declares.  A ValueError or TypeError
    raised in the block, as by a model constructor, leaves as the typed error.
    """

    def __init__(self, path, magic):
        self.path = path
        self.magic = magic

    def __enter__(self):
        self._file = open(self.path, "rb")
        try:
            self._left = os.fstat(self._file.fileno()).st_size
            found = self._take(len(self.magic))
            if found != self.magic:
                raise self.error(f"bad magic {found!r}, expected {self.magic!r}")
        except BaseException:
            self._file.close()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._file.close()
        if exc is None and self._left:
            raise self.error(f"{self._left} trailing bytes")
        if isinstance(exc, (ValueError, TypeError)) and not isinstance(
                exc, CorruptArtifactError):
            raise self.error(str(exc)) from exc

    def error(self, message):
        return CorruptArtifactError(f"{self.path}: {message}")

    def _take(self, nbytes):
        if nbytes > self._left:
            raise self.error(f"truncated: {nbytes} bytes declared, {self._left} left")
        self._left -= nbytes
        return self._file.read(nbytes)

    def ints(self, n):
        """The next n u32 header fields."""
        return struct.unpack(f"<{n}I", self._take(4 * n))

    def floats(self, *shape):
        """The next f8 array of the given shape, as a writable float64 array."""
        data = np.frombuffer(self._take(8 * math.prod(shape)), dtype="<f8")
        return data.reshape(shape).astype(np.float64)


def write_table(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def read_table(path, columns):
    """Rows as dicts; the header must name every column, each row fill it."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise CorruptArtifactError(
                    f"{path}: missing column(s) {', '.join(missing)}")
            rows = list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CorruptArtifactError(f"{path}: {exc}") from exc
    for row in rows:
        if None in row or None in row.values():
            raise CorruptArtifactError(f"{path}: a row does not match the header")
    return rows
