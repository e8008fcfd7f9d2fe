"""Report bytes against the checked-in digest of ``tools/report_digest.py``.

The digest holds one run per configuration and master seed.  The tool runs
twice, with ``OPENBLAS_NUM_THREADS=1`` and then ``=2`` in its environment,
and each output must equal the checked-in file, so a run that differs
names its thread count.  OpenBLAS uses no more threads than the host has
CPUs, so on a one-CPU host the second run is a second one-thread run and
cannot show a thread dependence; it is still run and compared.

A change that moves report bytes on purpose regenerates the digest with
``REGENERATE`` and commits it, so each move shows up as a diff.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "report_digest.txt"
ARGS = ["--seeds", "1", "2"]
REGENERATE = f"python3 tools/report_digest.py {' '.join(ARGS)} > tests/report_digest.txt"
THREAD_COUNTS = ("1", "2")


def _split(text: str) -> tuple[list, dict]:
    """The ``#`` environment lines, and each file's digest by path."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    digests = {path: digest for digest, path in
               (line.split("  ", 1) for line in lines if not line.startswith("#"))}
    return header, digests


def test_reports_match_the_checked_in_digest():
    want_header, want = _split(DIGEST.read_text(encoding="utf-8"))
    failures = []
    for threads in THREAD_COUNTS:
        run = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"), *ARGS],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        header, digests = _split(run.stdout)
        assert header == want_header, (
            f"the digest was recorded with {want_header}, this environment is {header}: "
            f"report bytes cannot be compared; from the repository root run {REGENERATE}, "
            "check the reports, and commit the file")
        differ = sorted(path for path in want.keys() | digests.keys()
                        if want.get(path) != digests.get(path))
        if differ:
            failures.append(f"with OPENBLAS_NUM_THREADS={threads}, {len(differ)} report "
                            f"files differ from {DIGEST.name}: {differ}")
    assert not failures, "; ".join(failures) + f"; if the change is meant, run {REGENERATE}"
