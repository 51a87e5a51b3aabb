"""`import varbound` loads the relations and the twin only; the sweep, the
basis search and the CLI are imported from their own modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import varbound
names = ("evaluate_all", "measurement_unitary", "builtin_spin1")
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "varbound"),
    "resolved": [callable(getattr(varbound, n, None)) for n in names],
}))
"""


def test_import_loads_only_relations_and_twin():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    for module in ("varbound.sweep", "varbound.basis_search", "varbound.cli"):
        assert module not in loaded["modules"]
    assert loaded["resolved"] == [True, True, True]
