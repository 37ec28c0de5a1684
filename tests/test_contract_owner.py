"""spectral.py owns the count and positive-number contracts: no other
module under src/ tests a value's type against int or np.integer, or
holds the text of those contracts' messages.  A new count or positive
parameter then goes through spectral._count or spectral._positive instead
of restating the check.

The check parses each module with the standard library's ast module: it
flags every isinstance call whose class argument names int or
np.integer, and every string constant, f-string parts and docstrings
included, that contains one of the owned message texts.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
OWNER = "spectral.py"
OWNED_MESSAGES = ("must be an integer", "must be a finite positive number")
INTEGER_TYPES = ("int", "np.integer", "numpy.integer")


def restated_contracts(source: str) -> list:
    """(line, what) of each integer type test and owned message text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            classes = node.args[1] if len(node.args) == 2 else None
            names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            if any(name is not None and ast.unparse(name) in INTEGER_TYPES for name in names):
                found.append((node.lineno, "isinstance integer check"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.extend((node.lineno, text) for text in OWNED_MESSAGES if text in node.value)
    return sorted(found)


def test_contracts_stated_once():
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != OWNER
        for line, what in restated_contracts(path.read_text())
    ]
    assert found == []


def test_check_sees_restated_contracts():
    source = (
        "import numpy as np\n"
        "def f(k, x):\n"
        "    if not isinstance(k, (int, np.integer)):\n"
        "        raise ValueError(f'k must be an integer >= 1, got {k!r}')\n"
        "    if isinstance(x, str) or not x > 0:\n"
        "        raise ValueError('x must be a finite positive number')\n"
    )
    assert restated_contracts(source) == [
        (3, "isinstance integer check"),
        (4, "must be an integer"),
        (6, "must be a finite positive number"),
    ]
