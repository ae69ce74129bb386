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


def call_sites(path, name):
    """Line numbers of the calls to a bare name in a module."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


def test_design_builds_group_elements_at_one_site():
    """Exact and Monte Carlo potentials share one stream of exponents."""
    assert len(call_sites(SRC / "design.py", "group_rows")) == 1


def test_call_site_guard_counts_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .group import group_rows\n"
        "a = group_rows('orthogonal', 2, [0])\n"
        "b = [group_rows(k, 2, p) for k, p in []]\n"
        "c = group_rows\n"
    )
    assert call_sites(probe, "group_rows") == [2, 3]
