"""Check that five reference sweep commands give the same bytes at a git ref
and in the working tree.

Usage: python3 tools/same_bytes.py <git-ref>

The ref is exported with ``git archive`` into a temporary directory.  Each
command runs there and in the working tree as ``python -m varbound.cli
sweep ...``, with that tree's ``src`` on PYTHONPATH and the same ``--out``
path, so the "wrote <path>" lines compare too, and then ``varbound verify``
reads that tree's sweep.json.  Compared per command: the exit code,
stdout, sweep.csv, dense.csv (or its absence), sweep.json byte for byte
apart from the value of its ``timestamp``, and the verify exit code.  Each
difference is printed; the exit status is 1 if there is any, 2 if the ref
cannot be exported, else 0.  Standard library and git only.
"""

from __future__ import annotations

import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    ("--trials", "40", "--seed", "3"),
    ("--dense", "500", "--seed", "5"),
    ("--theta-steps", "3", "--optimize-basis"),
    ("--counts", "1", "--seed", "3", "--dense", "7"),
    ("--counts", "1", "--trials", "6", "--seed", "2"),
)
FILES = ("sweep.csv", "dense.csv", "sweep.json")


def export(ref, dest):
    """Write the tree of ``ref`` under ``dest``; raises CalledProcessError."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter where this Python has it (3.12 warns without one)
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run(tree, args, out):
    """One sweep command on the sources under ``tree``, writing to ``out``,
    then ``varbound verify`` of its sweep.json (exit 2 where none was
    written); returns {"exit code": int, "stdout": bytes, file name: bytes
    or None, "verify exit code": int}."""
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}

    def cli(*cli_args):
        return subprocess.run([sys.executable, "-B", "-m", "varbound.cli", *cli_args],
                              cwd=tree, env=env, capture_output=True)

    proc = cli("sweep", *args, "--out", str(out))
    result = {"exit code": proc.returncode, "stdout": proc.stdout}
    for name in FILES:
        path = Path(out) / name
        result[name] = path.read_bytes() if path.is_file() else None
    result["verify exit code"] = cli("verify", str(Path(out) / "sweep.json")).returncode
    return result


def _without_timestamp(data):
    """sweep.json's bytes with the timestamp's value blanked."""
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)


def differences(ref_result, tree_result):
    """The names of the fields that differ between two results of
    :func:`run`; sweep.json is compared without its timestamp."""
    diff = []
    for key, ref_value in ref_result.items():
        value = tree_result[key]
        if key == "sweep.json" and ref_value is not None and value is not None:
            ref_value, value = _without_timestamp(ref_value), _without_timestamp(value)
        if ref_value != value:
            diff.append(key)
    return diff


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        try:
            export(ref, tmp / "ref")
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {ref!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        failed = 0
        for args in COMMANDS:
            line = "varbound sweep " + " ".join(args)
            ref_result = run(tmp / "ref", args, tmp / "out")
            tree_result = run(ROOT, args, tmp / "out")
            diff = differences(ref_result, tree_result)
            codes = ", ".join(f"{key} {ref_result[key]} -> {tree_result[key]}"
                              for key in ("exit code", "verify exit code"))
            print(f"{'DIFFERS' if diff else 'same'}: {line} ({codes})"
                  + (f": {', '.join(diff)}" if diff else ""))
            failed += bool(diff)
    print(f"{failed} of {len(COMMANDS)} commands differ from {ref}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
