"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Builds nothing: the library is imported from ``src/`` of the checkout that
holds this file. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the details (environment, raw wall-clock values,
sample counts, corpus shape, named check failures). A traced run also writes
its spans to ``.perfbench_out/``.

Exit codes: 0 after a full run (``correct`` tells whether every output check
passed), 2 when the library or an argument is missing, 1 on any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLAS_THREADS = 1


def _pin_blas_threads():
    # must happen before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_use():
    """Ask the OpenBLAS bundled with numpy how many threads it runs."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
    }


def result_lines(spec, seed, seconds, trace, result):
    """The details object and the final contract object."""
    from perfbench.workloads import END_TO_END, OVERHEAD_PREFIX, PER_LAYER

    checks = result["checks"]
    e2e = result["end_to_end"]
    if trace:
        layers = result["layers"]
        metrics = {
            name: {"value": layers.get(row, {}).get(field, 0), "unit": unit}
            for name, (row, field, unit) in PER_LAYER.items()
        }
        for name, unit in END_TO_END:
            metrics[OVERHEAD_PREFIX + name] = {
                "value": result["overhead"][name], "unit": unit}
    else:
        metrics = {name: {"value": e2e["value"][name], "unit": unit}
                   for name, unit in END_TO_END}
    detail = {
        "workload": spec.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "raw_wall_clock": e2e["raw"],
        "rescaled": e2e["value"],
        "samples": e2e["samples"],
        "units_done": result["units_done"],
        "kernel_median_s": result["kernel_median_s"],
        "quality": result["quality"],
        "corpus": result["corpus"],
        "checks_failed": checks.failed,
        "failed_share": checks.n_failed / checks.attempted,
    }
    if trace:
        detail["missing_layers"] = result["missing_layers"]
        detail["traced_end_to_end"] = result["traced_end_to_end"]["value"]
    final = {
        "correct": checks.n_failed == 0,
        "attempted": checks.attempted,
        "failed": checks.n_failed,
        "metrics": metrics,
    }
    return detail, final


def run(spec, seed, seconds, trace, out_dir):
    """Run ``spec`` in a temporary directory under ``out_dir``; returns the
    result dict of ``workloads.run_workload``."""
    from perfbench.workloads import run_workload

    workdir = out_dir / f"{spec.name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(spec, seed, seconds, trace, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        path = out_dir / f"trace-{spec.name}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": spec.name, "seed": seed, "environment": environment(),
            "columns": ["name", "parent", "start_s", "end_s", "counts"],
            "spans": result["spans"], "layers": result["layers"],
        }))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cbrnn" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'cbrnn'}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import cbrnn

    if pathlib.Path(cbrnn.__file__).resolve().parent != ROOT / "src" / "cbrnn":
        print(f"error: imported cbrnn from {cbrnn.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(spec, args.seed, args.seconds, bool(args.trace),
                 ROOT / ".perfbench_out")
    detail, final = result_lines(spec, args.seed, args.seconds, bool(args.trace), result)
    for name, n in detail["checks_failed"].items():
        print(f"check failed: {name} ({n}x)", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
