"""The committed output corpus: for each command in fixtures/corpus.json,
its argv, exit code and the sha256 of its stdout and of its stderr, run
in-process through cli.main.

The corpus holds every sweep (mode, axis, branch) on a five-point axis at
nmax 5, solves on both branches with hostile inputs (A = 1e308,
delta = 1e300, tolerances of 1e-300, 100 grid points), the residual-floor
and line-label commands of CHANGES.md, a ps sweep at tolerances of 1e-300
and max-iter 8 (failed lines, residual-floor details and "none refined"
absences) as JSON and as CSV, a sweep whose every point stops at the
residual floor, the paper-grid --check runs of
every mode (emes failing, and passing with --allow-extra-roots), an
overflowing A / hbar_c and a window margin that leaves no window.  The
commands run from the repository root, where their fixture paths point.
Wave-function bytes go through NumPy's exp and log, whose loops NumPy
picks by the CPU's SIMD support, so they are not pinned here.

A change that moves bytes on purpose rewrites the digests with

    PYTHONPATH=src python tests/test_corpus.py --write

and CHANGES.md names each command that moved and why.  To see what moved
in a command's output against another checkout, entry by entry,

    python tests/json_diff.py --tree OTHER_CHECKOUT --corpus INDEX

prints each (point, cell, line, field) that differs (tests/json_diff.py
also compares two JSON files).
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

from kgbound.cli import main

CORPUS = pathlib.Path(__file__).parent / "fixtures" / "corpus.json"
ROOT = CORPUS.parents[2]


def outcome(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return (rc, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


def entry_outcome(entry):
    return entry["rc"], entry["stdout_sha256"], entry["stderr_sha256"]


def test_corpus_outputs_are_pinned(monkeypatch):
    monkeypatch.chdir(ROOT)
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    moved = [" ".join(entry["argv"]) for entry in entries
             if outcome(entry["argv"]) != entry_outcome(entry)]
    assert not moved, "outputs moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    os.chdir(ROOT)
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    for entry in entries:
        entry["rc"], entry["stdout_sha256"], entry["stderr_sha256"] = \
            outcome(entry["argv"])
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
