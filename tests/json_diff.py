"""Print the entries in which two solve, paper-grid or sweep JSON outputs
differ, one line per (point, cell, line, field).

    python tests/json_diff.py OLD.json NEW.json
    python tests/json_diff.py --tree OTHER --corpus INDEX
    python tests/json_diff.py --tree OTHER -- sweep --mode ps ... --format json

The first form compares two files.  The other two run one command, entry
INDEX of tests/fixtures/corpus.json or the argv after "--", with the
sources of the checkout OTHER and with this checkout's, each as
"python -m kgbound.cli" from this checkout's root, and compare the
outputs: OTHER's is the old one.  Manifest keys are compared too; a
point is named by its axis value (sweep) or its (delta, lambda_b)
(paper-grid), a cell by (n, l) and a line by its name, with "#k" for the
k-th extra entry on the same line.  An output that is not JSON is
compared line by line.  The exit code is 0 where the outputs are equal
and 1 where they differ.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "fixtures" / "corpus.json"


def _tables(document: dict):
    """(point, table) of each table of a solve, paper-grid or sweep output."""
    if "table" in document:
        yield "-", document["table"]
    for table in document.get("tables", ()):
        yield f"delta={table['delta']!r} lambda_b={table['lambda_b']!r}", table
    for point in document.get("points", ()):
        yield f"{document.get('axis')}={point['value']!r}", point["table"]


def _entries(document: dict) -> dict:
    """Each entry of document, keyed by (point, cell, line)."""
    found = {}
    for point, table in _tables(document):
        for cell in table["cells"]:
            seen = Counter()
            for entry in cell["entries"]:
                k = seen[entry["line"]]
                seen[entry["line"]] += 1
                line = f"{entry['line']}#{k}" if k else entry["line"]
                found[(point, f"({cell['n']}, {cell['l']})", line)] = entry
    return found


def _differ(a, b) -> bool:
    # repr, so that NaN equals NaN and 0.0 differs from -0.0
    return repr(a) != repr(b)


def differences(old: dict, new: dict):
    """(where, old value, new value) of each field that differs."""
    for key in {**old.get("manifest", {}), **new.get("manifest", {})}:
        a, b = (d.get("manifest", {}).get(key, "<none>") for d in (old, new))
        if _differ(a, b):
            yield f"manifest {key}", a, b
    a, b = _entries(old), _entries(new)
    for key in {**a, **b}:
        where = "point {} cell {} line {}".format(*key)
        if key not in a or key not in b:
            yield where, a.get(key, "<none>"), b.get(key, "<none>")
            continue
        for field in {**a[key], **b[key]}:
            x, y = (e.get(field, "<none>") for e in (a[key], b[key]))
            if _differ(x, y):
                yield f"{where} {field}", x, y


def compare(old_text: str, new_text: str) -> int:
    """Print how new_text differs from old_text; 1 where it does."""
    if old_text == new_text:
        return 0
    try:
        old, new = json.loads(old_text), json.loads(new_text)
    except json.JSONDecodeError:
        sys.stdout.writelines(difflib.unified_diff(
            old_text.splitlines(True), new_text.splitlines(True),
            "old", "new"))
        return 1
    found = False
    for where, a, b in differences(old, new):
        print(f"{where}: {a!r} -> {b!r}")
        found = True
    if not found:
        print("same values, different bytes")
    return 1


def run(source: pathlib.Path, argv: list) -> str:
    """stdout of kgbound with argv, run on source's src from ROOT."""
    env = dict(os.environ, PYTHONPATH=str(source / "src"))
    done = subprocess.run([sys.executable, "-m", "kgbound.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return done.stdout


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="OLD.json NEW.json, or "
                        "the argv of one command after --tree and --")
    parser.add_argument("--tree", type=pathlib.Path,
                        help="the checkout whose output is the old one")
    parser.add_argument("--corpus", type=int, metavar="INDEX",
                        help="run entry INDEX of the corpus")
    opts = parser.parse_args(args)
    if opts.tree is None:
        if len(opts.files) != 2 or opts.corpus is not None:
            parser.error("give two files, or --tree with a command")
        old, new = (pathlib.Path(f).read_text(encoding="utf-8")
                    for f in opts.files)
        return compare(old, new)
    if opts.corpus is not None:
        if opts.files:
            parser.error("give --corpus or a command, not both")
        argv = json.loads(CORPUS.read_text(encoding="utf-8"))[opts.corpus]["argv"]
    else:
        argv = opts.files
    return compare(run(opts.tree.resolve(), argv), run(ROOT, argv))


if __name__ == "__main__":
    sys.exit(main())
