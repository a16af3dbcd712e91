"""Benchmark entry point.

    python3 benchmarks/run.py --workload {pipeline,enroll,identify} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout: the package is imported from the
checkout's own ``src`` directory, never from an installed copy, and scratch
files go to ``.bench_run/`` at the checkout root and are removed on exit.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric, and the spans are written to ``.bench_run/spans-<workload>-<seed>.csv``.
The lines before it record the environment and any failed operation.
"""

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    """Import osid from this checkout, or exit nonzero without a result."""
    if not os.path.isfile(os.path.join(SRC, "osid", "__init__.py")):
        sys.exit(f"benchmark: no package source at {SRC}/osid")
    sys.path.insert(0, SRC)
    import osid
    if os.path.dirname(os.path.dirname(os.path.abspath(osid.__file__))) != SRC:
        sys.exit(f"benchmark: imported osid from {osid.__file__}, not {SRC}")


def blas_threads():
    """Thread count OpenBLAS reports, read through its C API when reachable."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "peak_rss_mb": "getrusage(RUSAGE_SELF).ru_maxrss over the whole process, "
                       "KiB / 1024",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "enroll", "identify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy loads: all work then runs on the main thread's vCPU, the one
    # the host probes time (see README).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _import_package()
    import workloads

    scratch = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, ledger, notes, recorder = workloads.run(
            args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None:
        recorder.write(os.path.join(scratch, f"spans-{args.workload}-{args.seed}.csv"))

    print("environment: " + json.dumps(environment()))
    for note in notes:
        print(note)
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    print(result_line(metrics, ledger))
    return 0


def result_line(metrics, ledger):
    """The result line: correct, attempted, failed and every metric with its unit."""
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


if __name__ == "__main__":
    sys.exit(main())
