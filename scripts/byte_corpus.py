"""Byte corpus: the SHA-256 of every output of a fixed list of runs, against committed hashes.

A command of the ``aud-lab`` CLI runs in process through ``cli.main``, in the
current directory and with ``--out r.csv`` appended, so no path enters its
stdout or its manifest.  Its row holds the exit code and the SHA-256 of the
CSV, of stdout, of stderr and of the manifest without its ``timing`` and
``versions`` records, which name the machine and the wall clock, not the run.
A demo, or the README's quickstart, runs in a child interpreter in a scratch
directory; its row holds the exit code and the SHA-256 of stdout and of every
file it writes there, manifests read as above.

``byte_corpus.json`` beside this script holds the committed rows in three
tables: ``small``, the short commands ``tests/test_byte_corpus.py`` checks at
1, 2 and 4 threads; ``large``, the 1e6-update runs; and ``demos``.  A change
that declares a byte change rewrites the rows it moves with ``--write``, and
the diff of the JSON names them.

Usage (about 25 s on 2 vCPUs):

    PYTHONPATH=src python scripts/byte_corpus.py            # check every row
    PYTHONPATH=src python scripts/byte_corpus.py --write    # store them

Every table runs at ``AUD_LAB_THREADS`` = 1, 2 and 4.  The script exits 0
when every row matches, and 1 after listing each row and field that does
not; ``--write`` stores the rows instead, and refuses (exit 1) if two thread
counts disagree.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import aud_lab
from aud_lab import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(aud_lab.__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "byte_corpus.json")
THREADS = ("1", "2", "4")
OUT = "r.csv"
README = "README.md quickstart"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str | None:
    """SHA-256 of a file, a manifest without its timing and versions records; None if absent."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".manifest.jsonl"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if json.loads(line)["record"] not in ("timing", "versions"))
    return _digest(data)


def command_row(command: str) -> dict:
    """Run ``aud-lab <command> --out r.csv`` in process, in the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*command.split(), "--out", OUT])
        except SystemExit as exc:  # a usage error
            code = exc.code
    return {"exit": code,
            "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().encode()),
            "csv": _file_digest(OUT),
            "manifest": _file_digest("r.manifest.jsonl")}


def _readme_quickstart() -> str:
    """The README's first python block."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("```python\n", 1)[1].split("```", 1)[0]


def demo_row(name: str) -> dict:
    """Run a demo (or the README's quickstart) in a child interpreter in a scratch directory."""
    argv = ([sys.executable, "-c", _readme_quickstart()] if name == README
            else [sys.executable, os.path.join(ROOT, "demos", name)])
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(argv, cwd=tmp, capture_output=True,
                              env={**os.environ, "PYTHONPATH": SRC})
        row = {"exit": proc.returncode, "stdout": _digest(proc.stdout)}
        row.update((f, _file_digest(os.path.join(tmp, f))) for f in sorted(os.listdir(tmp)))
    return row


def run_table(table: str, names) -> dict:
    """The rows of ``names`` in ``table``, at the ``AUD_LAB_THREADS`` of the environment."""
    if table == "demos":
        return {name: demo_row(name) for name in names}
    rows = {}
    for command in names:
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                rows[command] = command_row(command)
            finally:
                os.chdir(here)
    return rows


def load() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true", help="store the rows, not check them")
    args = parser.parse_args(argv)
    corpus = load()
    moved = 0
    for table in corpus:
        runs = {}
        for threads in THREADS:
            os.environ["AUD_LAB_THREADS"] = threads
            runs[threads] = run_table(table, corpus[table])
            for name, row in runs[threads].items():
                for field in sorted(set(row) | set(corpus[table][name])):
                    if row.get(field) != corpus[table][name].get(field):
                        moved += 1
                        print(f"MOVED  {table}  threads={threads}  {name}  {field}")
        if args.write:
            first, *rest = runs.values()
            if any(run != first for run in rest):
                print(f"not written: the thread counts disagree on table {table}")
                return 1
            corpus[table] = first
    if args.write:
        with open(CORPUS, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    print(f"{moved} fields moved" if moved else "every row matches")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
