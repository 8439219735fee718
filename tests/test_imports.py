import ast
import collections
import pathlib
import re

import pytest

import aud_lab

MODULES = sorted(p for p in pathlib.Path(aud_lab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at any level and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport threading\nos.getpid()\n") == ["threading"]
    assert unused_imports("import concurrent.futures\nconcurrent.futures.Future\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(aud_lab.__file__).parent

# Methods numpy calls through its protocols, each with the reason: a file that
# names them may be naming numpy's own.
CALLED_BY_NAME = {
    # the call in ``SeededStream`` is numpy's own ``SeedSequence.generate_state``
    "generate_state": "Philox calls it on ``distributions._StoredKey``, its seed sequence",
}


def references(tree: ast.AST) -> list[str]:
    """The names ``tree`` reads, imports or spells in a string that is not a docstring."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names += re.findall(r"[A-Za-z_]\w*", node.value)
    return names


def unreferenced(sources: dict) -> list[str]:
    """``module.name`` of each definition in the ``aud_lab`` sources no text names elsewhere.

    ``sources`` maps a path to its text; the ``.py`` files under ``SRC``
    hold the definitions.  A Python text names what ``references`` finds,
    a Markdown text the words of its fenced code blocks.  Dunders and
    ``CALLED_BY_NAME`` are exempt.
    """
    seen, trees = collections.Counter(), {}
    for path, text in sources.items():
        if path.suffix == ".py":
            trees[path] = ast.parse(text)
            seen.update(references(trees[path]))
        else:
            seen.update(re.findall(r"[A-Za-z_]\w*", "".join(text.split("```")[1::2])))
    dead = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in CALLED_BY_NAME:
                continue
            # a definition's own body may name it (a recursive call), which keeps nothing alive
            if seen[name] <= references(node).count(name):
                dead.append(f"{path.stem}.{name}")
    return dead


def test_the_check_sees_a_definition_only_tests_use():
    # a docstring, prose or the definition's own body naming it keeps nothing alive
    sources = {SRC / "m.py": '"""unused: ``gone``"""\n'
                             'def used(): return "Kept"\n'
                             'def gone(): return gone()\n'
                             'class Kept:\n'
                             '    def __len__(self): return 0\n'
                             '    def method(self): pass\n'
                             'class Shown: pass\n',
               ROOT / "demos" / "d.py": "import m\nm.used(); k.method()\n",
               ROOT / "README.md": "Prose naming `gone`.\n```\nShown()\n```\n"}
    assert unreferenced(sources) == ["m.gone"]


def test_nothing_in_the_package_lives_for_its_tests_alone():
    folders = [ROOT / folder for folder in ("demos", "scripts", "perfbench")]
    paths = [*SRC.glob("*.py"), ROOT / "README.md",
             *(path for folder in folders for path in folder.rglob("*.py"))]
    assert unreferenced({path: path.read_text(encoding="utf-8") for path in paths}) == []
