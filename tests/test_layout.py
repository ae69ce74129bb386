"""Module layout: private helpers are shared only through the _bits module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pclifford"
SHARED = "_bits"


def private_imports(path):
    """(line, text) of each import of a private name from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif (node.module or "").startswith("pclifford."):
            module = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            if not alias.name.startswith("_"):
                continue
            # `from . import _bits` names the module itself
            source = module if module is not None else alias.name
            if source.split(".")[0] != SHARED:
                found.append((node.lineno, f"from {module or '.'} import {alias.name}"))
    return found


def test_sources_found():
    assert (SRC / f"{SHARED}.py").is_file()
    assert len(list(SRC.glob("*.py"))) > 1


def test_no_private_imports_across_modules():
    offenders = {
        path.name: private_imports(path)
        for path in sorted(SRC.glob("*.py"))
        if private_imports(path)
    }
    assert offenders == {}


def test_guard_detects_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .group import _reflect\n"
        "from pclifford.design import _potential\n"
        "from ._bits import eta_swap\n"
        "from . import _bits\n"
        "from .f2core import BitMatrix\n"
    )
    assert [line for line, _ in private_imports(probe)] == [1, 2]
