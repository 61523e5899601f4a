"""One execution of one workload in a fresh process.

Usage (from ``run.py``): ``python3 worker.py SPEC_JSON``, where the spec
names the source directory, the workload (or null for a set-up probe),
the seed, whether to trace, an output directory and a result file.

The process imports only the standard library before ``warptrap`` and
``warptrap.cli``, so the monotonic time it reports once those are
imported marks the end of set-up.  The workload's own work is then timed
alone; its outputs are read and checked afterwards, outside the timing.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import warptrap  # noqa: E402
import warptrap.cli  # noqa: E402,F401

t_ready = time.monotonic()

import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    """What the program runs on, as this process sees it (after set-up)."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "numba_imports": numba_imports}


def main() -> dict:
    result = {"t_ready": t_ready}
    if spec["workload"] is None:
        result["env"] = _environment()
        return result
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out_dir"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        code = wl.run(spec["seed"], out_dir)
    except Exception:
        code, result["error"] = None, traceback.format_exc()
    result["run_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["exit_code"] = code
    if tracer is not None:
        result["layers"] = tracer.metrics(result["run_s"])
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    if code is None:
        return result
    try:
        numbers = wl.read(spec["seed"], out_dir)
        problems = wl.check(spec["seed"], numbers)
        # the CLI exits 2 exactly when a manifest check failed
        want = 2 if not all(numbers.get("passes", {}).values()) else 0
        if code != want:
            problems.append(f"exit code {code}, expected {want} for these outputs")
    except Exception:
        numbers, problems = None, [traceback.format_exc()]
    result["numbers"] = numbers
    result["problems"] = problems
    return result


Path(spec["result"]).write_text(json.dumps(main()))
