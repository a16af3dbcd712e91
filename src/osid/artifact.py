"""Reading and writing of every stored artifact.

Binary artifacts are an 8-byte magic, little-endian u32 header fields, then
little-endian float64 arrays.  Tables are UTF-8 CSV files with a header row.
Every read is strict and raises CorruptArtifactError on a malformed file.
Every write goes to a temp file beside its target and replaces the target
only once complete, so a failed write leaves the previous file as it was.
A save of several files removes its commit marker first, writes it last.
Stages and scoring kernels fan work out over threads with thread_map, and
scoring kernels cut their products into frame chunks with frame_chunks.
"""

import contextlib
import csv
import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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
    """[fn(item) for item in items], on up to `threads` threads when threads > 1.

    The calling thread runs item 0 and threads - 1 tasks on one
    process-wide pool items 1 to threads - 1; then each takes the next item
    not yet taken.  The pool is made on first need, replaced by a larger
    one when a call asks for more workers, and kept for later calls.  A
    call from a pool worker runs its items inline.  The first exception
    that fn raises, in item order, reaches the caller once every call
    started has ended.
    """
    items = list(items)
    threads = min(threads, len(items))
    if threads < 2 or getattr(_local, "worker", False):
        return [fn(item) for item in items]
    results, errors = [None] * len(items), [None] * len(items)
    lock = threading.Lock()
    untaken = threads

    def work(index):
        nonlocal untaken
        while index < len(items):
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # raised in the caller below
                errors[index] = exc
            with lock:
                index, untaken = untaken, untaken + 1

    pool = _executor(threads - 1)
    tasks = [pool.submit(work, first) for first in range(1, threads)]
    work(0)
    wait(tasks)
    for exc in errors:
        if exc is not None:
            raise exc
    return results


_local = threading.local()
_pool_lock = threading.Lock()
_pool = None  # (workers, ThreadPoolExecutor), made on first need


def _executor(workers):
    """The process-wide pool, replaced by one of `workers` threads if it
    has fewer.  The one replaced is not shut down, as a call may still be
    about to submit to it; its threads end once no call holds it."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < workers:
            _pool = workers, ThreadPoolExecutor(
                workers, "osid-worker", initializer=_mark_worker)
        return _pool[1]


def _mark_worker():
    _local.worker = True


def _forget_pool():
    """In a forked child: only the forking thread exists, so a first call
    there makes a pool of its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a system with no fork has no forked child
    os.register_at_fork(after_in_child=_forget_pool)


# A run of blocks holds at least this many of the largest block's items.
# Handing a run to a pool worker costs little (two trivial items took about
# 40 us on a pool of 2 against 2 us inline), but the worker starts with cold
# caches.  Banks of 32 and 48 models scored 0-35% faster in two runs than
# in one on 2 vCPUs (64-component GMMs and 2-class networks at 100-400
# frames, medians of 41 alternating calls), so 1 may now pay; the value is
# kept until a benchmark workload scores banks of that size.
_RUN_BLOCKS = 2


def cpu_runs(blocks, size):
    """blocks cut into contiguous runs, each with the slice of the items it
    holds, size(block) items per block.

    There are as many runs as cpu_threads(), and at most one per
    _RUN_BLOCKS blocks' worth of items.  Fewer items make one run, found
    with no system call; fewer blocks than two runs' worth, as one block,
    make it with no sizing either.
    """
    if len(blocks) < 2 * _RUN_BLOCKS:
        return [(blocks, slice(0, sum(map(size, blocks))))]
    sizes = [size(block) for block in blocks]
    starts = list(itertools.accumulate(sizes, initial=0))
    runs = starts[-1] // (_RUN_BLOCKS * max(sizes))
    runs = min(runs, cpu_threads()) if runs > 1 else 1
    cuts = [len(blocks) * k // runs for k in range(runs + 1)]
    return [(blocks[lo:hi], slice(starts[lo], starts[hi]))
            for lo, hi in zip(cuts, cuts[1:])]


def cpu_threads():
    """Threads that may compute at once: the CPUs this process may run on
    divided by the threads the BLAS runs one product on, at least 1."""
    cpus = _cpu_count()
    return max(cpus // _blas_threads(cpus), 1)


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


# OpenBLAS (0.3.31) multiplies with its small-matrix kernel only while a
# product's M * N * K stays within this many multiply-adds; past it the
# general GEMM took 1.3-1.7x as long per frame, for a 64-component GMM block
# from 319 frames and for a 2-class network's 51 x 50 layer from 393.
SMALL_GEMM_MACS = 10**6

# A block whose products reach SMALL_GEMM_MACS in fewer frames keeps one
# product.  On 1024-row GMM blocks at 400 and 800 frames (one thread),
# chunks of 19 frames, the 1024-component background model's cap, took
# 1.5-1.7x as long as one product.  The value 100 is a probe figure from
# shapes no workload scores: chunks of 79 frames (256 components) took as
# long as one product, of 106 and 159 frames (192 and 128 components)
# 4-13% less.  On the workloads the floor only keeps the background model
# (cap 19) and the 1200-wide multi-class layers (cap 0) whole; every other
# block has a cap of 318 or 392, so any floor from about 20 to 318 behaves
# the same there.
MIN_CHUNK_FRAMES = 100


def frame_chunks(frames, matrices, start=0):
    """Slices of the frames start to start + frames, for products of every
    frame with each (..., M, K) matrix: the fewest near-equal chunks whose
    products stay within SMALL_GEMM_MACS, or one slice where one product
    does or the frames that fit are under MIN_CHUNK_FRAMES.  The cut
    follows from the shapes and the frame count alone, never the CPUs.
    """
    macs = 0
    for matrix in matrices:  # a loop: a generator in max() took ~3 us more per call
        shape = matrix.shape
        macs = max(macs, shape[-2] * shape[-1])
    cap = SMALL_GEMM_MACS // macs if macs else frames
    if cap >= frames or cap < MIN_CHUNK_FRAMES:
        return [slice(start, start + frames)]
    return frame_slices(frames, -(-frames // cap), start)


def frame_slices(frames, parts, start=0):
    """The frames start to start + frames cut into parts near-equal slices."""
    cuts = [start + frames * k // parts for k in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


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
