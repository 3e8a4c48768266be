"""One measured sweep in a fresh process.

Run by ``run.py``, one process per sweep, so that set-up time and peak
memory count per run.  Imports gseat from the checkout's ``src``, validates
the config, stamps the end of set-up, and calls ``gseat.cli.main(["sweep",
...])`` in-process.  Writes ``result.json`` (and ``spans.json`` when traced)
into the output directory.

Usage: python3 perfbench/child.py --config CFG --out DIR --spawned-at T
       [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(numpy):
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    for path in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    """What a result depends on besides the code: cores, BLAS and versions."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = _blas_threads(numpy)
    return {
        "nproc": nproc,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_oversubscribed": threads is not None and threads > nproc,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gseat.cli

    if Path(gseat.__file__).resolve().parent != src / "gseat":
        raise SystemExit(f"imported gseat from {gseat.__file__}, not from {src}")
    with open(args.config, "r", encoding="utf-8") as fh:
        gseat.cli.ExperimentConfig.from_dict(json.load(fh))
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        rc = gseat.cli.main(["sweep", "--config", args.config, "--out", args.out])
        result["sweep_s"] = time.perf_counter() - t0
        result["rc"] = rc
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["calls"] = tracing.call_counts(tracer.spans)
            with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                           "spans": tracer.spans}, fh)
        result["env"] = environment()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
