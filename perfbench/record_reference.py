"""Record ``reference.json``: the digest and basis-invariant summary of every
task's report, produced from the catalog shorthands (not from seeded specs).

    python3 perfbench/record_reference.py

Run it only on a commit whose reports are known to be right; the benchmark
checks every later run against what it writes.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from diffoplab.cli import main as cli_main  # noqa: E402

from workloads import (  # noqa: E402
    ALGEBRA_WORKLOADS, REFERENCE, SCENARIO_IDS, digest, shorthand_argv, summary, task_key)


def record(argv, path):
    with redirect_stdout(io.StringIO()):
        rc = cli_main(argv + ["--json", str(path)])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    data = path.read_bytes()
    path.unlink()
    return {"sha256": digest(data), "summary": summary(json.loads(data))}


def main():
    out = {}
    tmp_dir = HERE / ".work" / "reference"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    tmp = tmp_dir / "report.json"
    for workload, (field, listed) in ALGEBRA_WORKLOADS.items():
        out[workload] = {
            task_key(c, a, e, field): record(shorthand_argv(c, a, e, field), tmp)
            for c, a, e in listed}
    out["scenarios"] = {
        f"run-scenarios --only {sid}": record(["run-scenarios", "--only", sid], tmp)
        for sid in SCENARIO_IDS}
    tmp_dir.rmdir()
    try:
        tmp_dir.parent.rmdir()
    except OSError:  # a benchmark run is using it
        pass
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
