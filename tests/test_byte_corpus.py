"""Every output byte of the byte corpus's short commands, at 1, 2 and 4 threads.

The rows are the ``small`` table of ``scripts/byte_corpus.json``: the exit
code and the SHA-256 of each command's CSV, stdout, stderr and manifest
without its ``timing`` and ``versions`` records.  A change that declares a
byte change rewrites the rows it moves (``scripts/byte_corpus.py --write``).
"""
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "byte_corpus", os.path.join(ROOT, "scripts", "byte_corpus.py"))
byte_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_corpus)
SMALL = byte_corpus.load()["small"]


def test_the_table_covers_every_verb_an_error_and_the_dispatch_runs():
    verbs = {command.split()[0] for command in SMALL}
    assert verbs == {"sweep", "nu-invariance", "validate"}
    # the two runs that move with numpy's SIMD dispatch (ROADMAP item 3)
    assert "sweep --lambda 0.1:0.9:0.2 --mu 1.3 --nu 2.9 --updates 3000 --seed 2" in SMALL
    assert "validate --lambda 0.3 --mu 3.7 --nu 0.7,13 --updates 5000 --seed 3" in SMALL
    assert {row["exit"] for row in SMALL.values()} == {0, 2}


@pytest.mark.parametrize("threads", ["1", "2", "4"])
@pytest.mark.parametrize("command", sorted(SMALL))
def test_command_keeps_its_bytes(monkeypatch, tmp_path, command, threads):
    monkeypatch.setenv("AUD_LAB_THREADS", threads)
    monkeypatch.chdir(tmp_path)
    assert byte_corpus.command_row(command) == SMALL[command]
