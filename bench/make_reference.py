"""Write bench/reference.json.gz: the ideal columns of each CLI workload.

    python3 bench/make_reference.py

The ideal columns do not depend on the sampling seed.  The optimized-basis
columns are left out: the benchmark checks them against the Cauchy-Schwarz
ceiling instead of for equality.  Run this only when a change to the
program is meant to change the ideal values.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from varbound.sweep import VALUE_COLUMNS  # noqa: E402

from workloads import CLI_ARGS, OPT_COLUMNS, REFERENCE_PATH, CliWorkload  # noqa: E402

COLUMNS = ("theta",) + tuple(c for c in VALUE_COLUMNS if c not in OPT_COLUMNS)


def _columns(rows):
    return {c: [r[c] for r in rows] for c in COLUMNS}


def main():
    reference = {}
    scratch = REFERENCE_PATH.parent.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in CLI_ARGS:
            workload = CliWorkload(name, tmp)
            _, _, _, dataset = workload.run_job(workload.make_inputs(0))
            payload = json.loads(dataset.read_text())
            reference[name] = {"rows": _columns(payload["rows"])}
            if payload["dense"]:
                reference[name]["dense"] = _columns(payload["dense"])
    data = (json.dumps(reference, sort_keys=True) + "\n").encode()
    REFERENCE_PATH.write_bytes(gzip.compress(data, mtime=0))
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
