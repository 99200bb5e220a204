"""Every command's output bytes against the committed manifest.

tests/data/outputs.json holds, per case, an argv, its exit code and the
sha256 of its standard output and CSV.  All the cases run in one
subprocess of tests/data/record_outputs.py, with BLAS on one thread as the
CLI entry point pins it; each case is then its own test, so a changed
number names its command, and its message the versions and BLAS kernel
it was recorded and run under.  A change that moves a hash on purpose
re-records the manifest with that script and lists the changed cases in
CHANGES.md, with how far each moved: the script's --compare mode, checked
here on two small dumps, says that of two --dump directories.
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


def test_compare_names_each_change_of_two_dumps(tmp_path):
    dumps = {"old": {"same": ("0", "order=1 eps_max=0.5\n", "t,x\n0,1\n"),
                     "number": ("0", "", "t,x\n0,1\n0.1,2.5\n"),
                     "verdict": ("0", "", "x2,verdict\n1.3,converged\n")},
             "new": {"same": ("0", "order=1 eps_max=0.5\n", "t,x\n0,1\n"),
                     "number": ("0", "", "t,x\n0,1\n0.1,2.500000001\n"),
                     "verdict": ("3", "", "x2,verdict\n1.3,diverged\n")}}
    for side, cases in dumps.items():
        (tmp_path / side).mkdir()
        for name, texts in cases.items():
            for suffix, text in zip(("exit", "stdout", "csv"), texts):
                (tmp_path / side / f"{name}.{suffix}").write_text(text)
    proc = subprocess.run(
        [sys.executable, str(DATA / "record_outputs.py"), "--compare",
         str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "number: 1 of 7 fields changed, max abs 1e-09, max rel 4e-10",
        "same: identical",
        "verdict: 2 of 5 fields changed, max abs 0, max rel 0",
        "  exit field 0: 0 -> 3",
        "  csv field 3: converged -> diverged"]
