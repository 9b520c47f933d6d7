"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 worker.py JOB.json``, or ``python3 worker.py --env`` to
print the environment record.  The job names the source directory,
the working directory for outputs, the argv lists to run through
``baryquad.cli.main`` and whether to trace.  The result (import time, per
command exit code and latency, wall time, peak RSS, and the spans when
tracing) is written to the job's ``result`` path.  Only the standard
library is imported before ``baryquad.cli``, so the import time covers
numpy, scipy and the package.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process, by path."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return threads


def environment() -> dict:
    """Versions and thread counts a result depends on; imports the package, so it also warms it."""
    import platform

    import baryquad.cli
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "baryquad": os.path.dirname(os.path.realpath(baryquad.cli.__file__)),
    }


def main() -> int:
    if sys.argv[1] == "--env":
        print(json.dumps(environment()))
        return 0
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    start = time.perf_counter()
    import baryquad.cli
    import_s = time.perf_counter() - start
    if not os.path.realpath(baryquad.cli.__file__).startswith(job["src"] + os.sep):
        print(f"baryquad imported from {baryquad.cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    os.chdir(job["workdir"])
    commands = []
    wall_start = time.perf_counter()
    for index, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = baryquad.cli.main(argv)
        except Exception:  # a crash is a failed command; the rest of the workload still runs
            code = -1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - begin
        commands.append({"code": code, "latency_s": latency, "stderr": err.getvalue()[-2000:]})
    wall_s = time.perf_counter() - wall_start

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
