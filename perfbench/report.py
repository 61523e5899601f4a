"""Every benchmark metric by name, unit and workload, and the per-layer table.

    python3 perfbench/report.py [--seed N] [--save-dir DIR]
    python3 perfbench/report.py RECORD.json [RECORD.json ...]

The first form runs every workload twice through ``run.py``, untraced and
traced, for ``run_seconds`` of BENCHMARK.json each, and prints the
end-to-end metrics, the failed fraction and the per-layer table.
``--save-dir`` keeps each run's full record, spans included.  The second
form prints saved records side by side and warns when their environments
differ; compare only records made on the same environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, run_benchmark
from workloads import WORKLOADS

# Environment keys that identify the code rather than the machine.
CODE_KEYS = {"commit", "src_sha256"}


def _label(rec: dict) -> str:
    return f"{rec['workload']}/s{rec['seed']}" + ("/traced" if rec["trace"] else "")


def env_warnings(records: list[dict]) -> list[str]:
    base = records[0]["env"]
    out = []
    for rec in records[1:]:
        diff = sorted(k for k in set(base) | set(rec["env"])
                      if k not in CODE_KEYS and base.get(k) != rec["env"].get(k))
        if diff:
            out.append(f"WARNING: environment differs between {_label(records[0])} and "
                       f"{_label(rec)}: " + ", ".join(
                           f"{k} {base.get(k)!r} vs {rec['env'].get(k)!r}" for k in diff))
    return out


def print_table(records: list[dict]) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for kind, traced in (("end-to-end", 0), ("per-layer (traced)", 1)):
        recs = [r for r in records if r["trace"] == traced]
        if not recs:
            continue
        names = list(recs[0]["result"]["metrics"])
        cols = [_label(r) for r in recs]
        width = max(len(n) for n in names + ["failed_frac"]) + 2
        print(f"\n{kind}")
        print(f"{'metric':<{width}}{'unit':<10}" + "".join(f"{c:>28}" for c in cols))
        for name in names:
            vals = "".join(f"{r['result']['metrics'][name]['value']:>28.6g}" for r in recs)
            print(f"{name:<{width}}{units.get(name, ''):<10}{vals}")
        print(f"{'failed_frac':<{width}}{'ratio':<10}"
              + "".join(f"{r['failed_frac']:>28.6g}" for r in recs))
        for r in recs:
            if r["absent_targets"]:
                print(f"  {_label(r)}: absent targets, 0 calls: {r['absent_targets']}")
            if not r["result"]["correct"]:
                print(f"  {_label(r)}: OUTPUT CHECK FAILED")
    print("\ngflop figures are computed from argument shapes, not counted by hardware.")
    print(f"environment: {json.dumps(records[0]['env'], sort_keys=True)}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("records", nargs="*", help="saved records to print instead of running")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--save-dir", default=None)
    args = p.parse_args()
    if args.records:
        records = [json.loads(Path(f).read_text()) for f in args.records]
    else:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        records = []
        for name, wl in WORKLOADS.items():
            print(f"{name}: {wl.why}")
            for trace in (False, True):
                rec = run_benchmark(name, args.seed, seconds, trace)
                records.append(rec)
                if args.save_dir:
                    Path(args.save_dir).mkdir(parents=True, exist_ok=True)
                    Path(args.save_dir, f"{name}-s{args.seed}-t{int(trace)}.json").write_text(
                        json.dumps(rec, indent=1) + "\n")
    for line in env_warnings(records):
        print(line)
    print_table(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
