"""warptrap benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed).  Every execution of the workload runs in
a fresh worker process, one at a time, and its outputs are checked
against values recorded at the seed commit.  How many executions a run
makes is fixed by ``--seconds`` and the workload's nominal execution
time, not by the clock, so ``attempted`` and ``failed`` depend only on
the seed and ``--seconds``; at least one always runs (two when traced).

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics of ``BENCHMARK.json`` (medians over the run's
executions).  With ``--trace 1`` executions alternate untraced and traced
and the last line carries the per-layer metrics; ``trace.overhead_s`` is
the traced minus the untraced median run time.  ``report.py --save-dir``
keeps the full record: environment, every execution with its spans,
failed fraction, absent tracer targets.

Failed executions (non-zero exit, exception, failed output check) count
in ``failed`` against ``attempted``.  ``correct`` is false when an output
disagrees with the recorded values, or a worker crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up-only processes per run, besides one per execution: every
# workload's setup_s median then rests on at least ten samples.
SETUP_PROBES = 9
DEADLINE_S = 165.0  # whole run, so that it ends within the 180 s limit
POLL_S = 0.02


def environment(probe_env: dict, threads: int) -> dict:
    """The environment block carried by every result."""
    import hashlib
    import platform
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), **probe_env,
            "scipy": version("scipy"), "sympy": version("sympy"),
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def child_env() -> dict:
    """Environment for workers: the checkout's sources, BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    threads = min(int(env.get("OPENBLAS_NUM_THREADS", nproc)), nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the worker with its own resource usage; kill it at the deadline."""
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru


def execute(workload: str | None, seed: int, trace: bool, work: Path, env: dict,
            deadline: float) -> dict:
    """One worker process; returns its figures and verdict."""
    out_dir = Path(tempfile.mkdtemp(dir=work))
    spec = {"src": str(SRC), "workload": workload, "seed": seed, "trace": trace,
            "out_dir": str(out_dir), "result": str(out_dir / "_result.json")}
    log = out_dir / "_log.txt"
    with open(log, "w") as log_fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                stdout=log_fh, stderr=subprocess.STDOUT, env=env, cwd=out_dir)
        try:
            code, ru = _wait(proc, deadline)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    rec = {"traced": trace, "process_exit": code, "peak_rss_mb": ru.ru_maxrss / 1024.0}
    try:
        res = json.loads(Path(spec["result"]).read_text())
    except (OSError, ValueError):
        res = None
    if code != 0 or res is None:
        tail = log.read_text()[-2000:]
        rec.update(timed=False, failed=True, correct=False,
                   problems=[f"worker exited {code}: {tail}"])
    else:
        rec["setup_s"] = res["t_ready"] - t_spawn
        rec.update({k: v for k, v in res.items() if k != "t_ready"})
        if workload is not None:
            problems = res.get("problems", [res.get("error", "no result")])
            rec["problems"] = problems
            rec["timed"] = "error" not in res
            rec["correct"] = not problems
            rec["failed"] = bool(problems) or res["exit_code"] != 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def executions(wl, seconds: float, trace: bool) -> int:
    """Executions in one run: as many nominal executions as fit in ``seconds``."""
    return max(2 if trace else 1, int(seconds // wl.nominal_s))


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then a fixed number of executions; the full record."""
    if not (SRC / "warptrap" / "__init__.py").is_file():
        raise SystemExit(f"error: no warptrap sources under {SRC}; run from a source checkout")
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        probes = [execute(None, seed, False, work, env, deadline) for _ in range(SETUP_PROBES)]
        if not all("setup_s" in p for p in probes):
            raise SystemExit(f"set-up failed: {probes[0].get('problems')}")
        count = executions(WORKLOADS[workload], seconds, trace)
        execs: list[dict] = []
        t_loop = time.monotonic()
        while len(execs) < count:
            traced = trace and len(execs) % 2 == 1
            rec = execute(workload, seed, traced, work, env, deadline)
            execs.append(rec)
            print(f"  exec {len(execs)}{' traced' if traced else ''}: "
                + ", ".join(f"{k} {rec[k]:.4g}" for k in ("setup_s", "run_s", "cpu_s",
                                                           "peak_rss_mb") if k in rec)
                + f", exit {rec.get('exit_code')}"
                + ("" if not rec["problems"] else f", PROBLEMS {rec['problems']}"))
            # only a machine far slower than the nominal times stops early
            per = (time.monotonic() - t_loop) / len(execs)
            if time.monotonic() + 1.5 * per > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    timed = [e for e in execs if e["timed"]]
    plain = [e for e in timed if not e["traced"]]
    traced = [e for e in timed if e["traced"]]
    if not plain or (trace and not traced):
        raise SystemExit("no execution produced timings: "
                         + "; ".join(str(e["problems"]) for e in execs))
    values = {
        "setup_s": statistics.median(e["setup_s"] for e in probes + timed),
        "run_s": statistics.median(e["run_s"] for e in plain),
        "cpu_s": statistics.median(e["cpu_s"] for e in plain),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in plain),
    }
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(e["layers"][key] for e in traced)
        values["trace.overhead_s"] = (statistics.median(e["run_s"] for e in traced)
                                      - values["run_s"])
    failed = sum(e["failed"] for e in execs)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(probes[0]["env"], int(env["OPENBLAS_NUM_THREADS"])),
        "failed_frac": failed / len(execs),
        "absent_targets": traced[0]["absent"] if trace else [],
        "executions": execs,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "result": {
            "correct": all(e["correct"] for e in execs),
            "attempted": len(execs),
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    print(f"  failed_frac {record['failed_frac']:.4g} "
          f"({record['result']['failed']}/{record['result']['attempted']})")
    if record["absent_targets"]:
        print(f"  absent tracer targets (0 calls): {record['absent_targets']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
