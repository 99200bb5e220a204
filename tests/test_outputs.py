"""Every command's output bytes against the committed manifest.

tests/data/outputs.json holds, per case, an argv, its exit code and the
sha256 of its standard output and CSV.  All the cases run in one
subprocess of tests/data/record_outputs.py, with BLAS on one thread as the
CLI entry point pins it; each case is then its own test, so a changed
number names its command.  A PR that changes a hash on purpose re-records
the manifest with that script and lists the changed cases in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import koopman_lab

DATA = Path(__file__).resolve().parent / "data"
MANIFEST = json.loads((DATA / "outputs.json").read_text())


@pytest.fixture(scope="module")
def measured():
    """The manifest's cases as this tree writes them."""
    src = str(Path(koopman_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(DATA / "record_outputs.py"), "--print"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", list(MANIFEST["cases"]))
def test_output_bytes_match_the_manifest(measured, case):
    assert measured["cases"].get(case) == MANIFEST["cases"][case], (
        f"{case} writes other bytes than recorded; recorded under "
        f"{MANIFEST['versions']}, run under {measured['versions']}")


def test_the_manifest_records_every_case(measured):
    assert list(measured["cases"]) == list(MANIFEST["cases"])


def test_ci_constraints_pin_the_manifest_versions():
    pins = (DATA / "constraints.txt").read_text().split()
    assert pins == [f"{name}=={MANIFEST['versions'][name]}"
                    for name in ("numpy", "scipy")]
