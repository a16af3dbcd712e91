"""Reading and writing of every stored artifact.

Binary artifacts are an 8-byte magic, little-endian u32 header fields, then
little-endian float64 arrays.  Tables are UTF-8 CSV files with a header row.
Every read is strict and raises CorruptArtifactError on a malformed file.
Every write goes to a temp file beside its target and replaces the target
only once complete, so a failed write leaves the previous file as it was.
A save of several files removes its commit marker first, writes it last.
"""

import contextlib
import csv
import math
import os
import struct
import threading

import numpy as np

from .errors import CorruptArtifactError


@contextlib.contextmanager
def _replacing(path, mode, **kwargs):
    """A temp file, named per process and thread, that replaces path at the end."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_binary(path, magic, ints, arrays):
    """Write magic, then ints as u32 header fields, then arrays as f8."""
    with _replacing(path, "wb") as f:
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

    def expect(self, nbytes):
        """Check that nbytes are left, before anything is allocated for them."""
        if nbytes > self._left:
            raise self.error(f"truncated: {nbytes} bytes declared, {self._left} left")

    def _take(self, nbytes):
        self.expect(nbytes)
        self._left -= nbytes
        return self._file.read(nbytes)

    def ints(self, n):
        """The next n u32 header fields."""
        return struct.unpack(f"<{n}I", self._take(4 * n))

    def floats(self, *shape, out=None):
        """The next f8 array of the given shape, read with no intermediate
        copy into a new array or out, a C-contiguous float64 array."""
        nbytes = 8 * math.prod(shape)
        self.expect(nbytes)
        data = np.empty(shape, dtype="<f8") if out is None else out
        self._left -= nbytes
        if self._file.readinto(data) != nbytes:
            raise self.error("truncated while reading")
        return data


def write_table(path, columns, rows):
    with _replacing(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def uncommit(directory, marker):
    """Make directory, remove its commit marker, and return the marker's path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, marker)
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    return path


def committed(directory, marker):
    """The marker's path; CorruptArtifactError if directory lacks it."""
    path = os.path.join(directory, marker)
    if os.path.isdir(directory) and not os.path.exists(path):
        raise CorruptArtifactError(f"{directory}: saved incompletely")
    return path


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
