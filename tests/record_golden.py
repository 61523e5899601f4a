"""Record the golden numbers of small runs of the four commands.

``tests/test_golden.py`` runs the same commands and holds every number
they write to the values in ``tests/golden.json``.  A change that moves a
number on purpose re-records the runs it moves, or every run with no name:

    python tests/record_golden.py [RUN ...]

and names every moved value, and why it moved, in CHANGES.md.  The other
runs' entries stay as they are.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")

# small runs of every command: README quasimode's degrees 20-60, one
# confinement degree (its wall inside the light cone, so the wall audit
# fails), one bifurcation degree, and the audit at m = 1 and 2
RUNS = {
    "quasimode": ["quasimode", "--x0", "-1.0", "--l", "20", "30", "40", "50", "60"],
    "confinement": ["confinement", "--x0", "-1.0", "--l", "14", "--T", "20",
                    "--x-max", "8"],
    "bifurcation": ["bifurcation", "--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5",
                    "--l", "14", "--T", "10", "--x-max", "20"],
    "multiplier-audit-m1": ["multiplier-audit", "--x0", "1.0"],
    "multiplier-audit-m2": ["multiplier-audit", "--x0", "1.0", "--m", "2"],
}
# a time series keeps every THIN-th row and its last
THIN = 50
# JSON entries that restate the input or are prose
_SKIPPED = {"config", "schema_version", "horizon_note", "qualitative"}


def _number(text: str):
    """A CSV cell as a float, or as its text where it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def _csv_values(path: Path) -> dict:
    """{column: {row label: value}} of a CSV artifact, whose first column
    labels the rows; a time series keeps every THIN-th row and its last."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    if header[0] == "t":
        rows = rows[::THIN] + ([rows[-1]] if (len(rows) - 1) % THIN else [])
    return {col: {f"{header[0]}={row[0]}": _number(row[j]) for row in rows}
            for j, col in enumerate(header[1:], 1)}


def _json_values(node, path: str = "", out: dict | None = None) -> dict:
    """{field: {path to it: value}} of a JSON artifact's leaves."""
    out = {} if out is None else out
    for key, value in node.items():
        if key in _SKIPPED:
            continue
        if isinstance(value, dict):
            _json_values(value, f"{path}{key}.", out)
        else:
            out.setdefault(key, {})[path.rstrip(".")] = value
    return out


def run(argv: list[str], out: Path) -> dict:
    """The exit code, the check verdicts and the numbers of one run of the
    command line into ``out``: {file: {field: {label: value}}}."""
    from warptrap.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    if not (out / "manifest.json").exists():  # stopped before its outputs
        return {"argv": argv, "exit_code": code, "passes": None, "values": {}}
    manifest = json.loads((out / "manifest.json").read_text())
    values = {name: (_csv_values(out / name) if name.endswith(".csv")
                     else _json_values(json.loads((out / name).read_text())))
              for name in manifest["files"] if name.endswith((".csv", ".json"))}
    return {"argv": argv, "exit_code": code, "passes": manifest["passes"], "values": values}


def main(names: list[str]) -> None:
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        sys.exit(f"unknown runs {unknown}; the runs are {list(RUNS)}")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    golden = json.loads(GOLDEN.read_text()) if names else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or RUNS:
            golden[name] = run(RUNS[name], Path(tmp) / name)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
