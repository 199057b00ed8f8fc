"""Only the command-line front end writes to stdout or stderr.

Every library module is parsed, not imported, and may neither name
``print`` nor reach ``sys.stdout``/``sys.stderr``: a CLI run's last
stdout line must be the command's own, whatever library code it calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

import orthoate

PACKAGE = Path(orthoate.__file__).parent
STREAMS = ("stdout", "stderr")


def output_uses(source: str) -> list:
    """(line, what) for every ``print`` name and every ``sys.stdout``/``sys.stderr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "print":
            found.append((node.lineno, "print"))
        elif (
            isinstance(node, ast.Attribute) and node.attr in STREAMS
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
        ):
            found.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, f"sys.{a.name}") for a in node.names if a.name in STREAMS]
    return sorted(found)


def test_the_check_sees_each_kind_of_output():
    source = "import sys\nprint(1)\nsys.stderr.write('x')\nfrom sys import stdout\nf = print\n"
    assert output_uses(source) == [
        (2, "print"), (3, "sys.stderr"), (4, "sys.stdout"), (5, "print"),
    ]


def test_library_modules_print_nothing():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "cli.py")
    assert PACKAGE / "simulation.py" in modules and PACKAGE / "learners" / "logistic.py" in modules
    offences = {
        str(path.relative_to(PACKAGE)): uses
        for path in modules
        if (uses := output_uses(path.read_text()))
    }
    assert offences == {}
