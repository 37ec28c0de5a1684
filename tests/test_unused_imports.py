"""Every module under src/, tests/, tools/ and demos/ reads each name it
imports.  perfbench/ belongs to the benchmark and is left out.  The names
a module lists in `__all__` count as read, so the package root's
re-exports pass.

The check parses each file with the standard library's ast module: a name
bound by an `import` or `from ... import` (not `from __future__`) must
appear as a name somewhere in the module or in its `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "tools", "demos")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in CHECKED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def test_check_sees_an_unused_import():
    source = "import json\nimport os\nfrom svshrink import cli as shell\n__all__ = ['shell']\nos.getcwd()\n"
    assert unused_imports(source) == [(1, "json")]
