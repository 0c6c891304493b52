"""Every import in the library is used.

No linter runs in CI, so this ``ast`` scan stands in for an unused-import
check over ``src/repro`` (package ``__init__`` files re-export by design
and are skipped).  A name counts as used when the module references it,
lists it in ``__all__``, or names it inside a string annotation.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_names(tree):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg,
            ]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            }
    return used


def unused_imports(path, root=SRC.parent):
    """``file:line: name`` for each unused import of ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _imported_names(tree)
        if name not in used
    ]


def test_scan_sees_the_library():
    assert len(list(SRC.rglob("*.py"))) > 20


def test_no_unused_imports():
    found = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for hit in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "repro" / "probe.py"
    module.parent.mkdir()
    module.write_text(
        "from typing import List, Optional\n"
        "import os\n"
        "__all__ = ['os']\n"
        "def f(x: 'List[int]'): ...\n"
    )
    assert unused_imports(module, tmp_path) == ["repro/probe.py:1: Optional"]
