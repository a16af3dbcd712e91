"""Reading and writing of every stored artifact.

Binary artifacts are an 8-byte magic, little-endian u32 header fields, then
little-endian float64 arrays.  Tables are UTF-8 CSV files with a header row.
Every read is strict and raises CorruptArtifactError on a malformed file.
Every write goes to a temp file beside its target and replaces the target
only once complete, so a failed write leaves the previous file as it was.
A save of several files removes its commit marker first, writes it last.
Stages and scoring kernels fan work out over threads with thread_map.
"""

import contextlib
import csv
import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

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


def thread_map(fn, items, threads):
    """[fn(item) for item in items], on a pool of threads when threads > 1.

    The first exception that fn raises, in item order, reaches the caller
    once every call started has ended.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# A run of blocks holds at least this many of the largest block's items: a
# thread, started on each call, costs about as much as scoring 16 to 32
# GMMs of 64 components or 2-class networks, so smaller runs lose more than
# they gain.
_RUN_BLOCKS = 2


def cpu_runs(blocks, size):
    """blocks cut into contiguous runs, each with the slice of the items it
    holds, size(block) items per block.

    There are as many runs as CPUs this process may run on divided by the
    threads the BLAS runs one product on, and at most one per _RUN_BLOCKS
    blocks' worth of items.  Fewer items make one run, found with no
    system call; fewer blocks than two runs' worth, as one block, make it
    with no sizing either.
    """
    if len(blocks) < 2 * _RUN_BLOCKS:
        return [(blocks, slice(0, sum(map(size, blocks))))]
    sizes = [size(block) for block in blocks]
    starts = list(itertools.accumulate(sizes, initial=0))
    runs = starts[-1] // (_RUN_BLOCKS * max(sizes))
    if runs > 1:
        cpus = _cpu_count()
        runs = min(runs, cpus // _blas_threads(cpus))
    runs = max(runs, 1)
    cuts = [len(blocks) * k // runs for k in range(runs + 1)]
    return [(blocks[lo:hi], slice(starts[lo], starts[hi]))
            for lo, hi in zip(cuts, cuts[1:])]


def _cpu_count():
    """CPUs this process may run on; os.cpu_count() where the system has no
    affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads(cpus):
    """Threads the BLAS runs one product on, as OPENBLAS_NUM_THREADS or else
    OMP_NUM_THREADS sets it; unset, OpenBLAS takes one per CPU, and threads
    of ours on top of those would share the CPUs with them."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


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
