"""Only the command-line front end writes to stdout or stderr.

Every library module is parsed, not imported, and may neither name
``print``, reach ``sys.stdout``/``sys.stderr`` or the original streams
``sys.__stdout__``/``sys.__stderr__``, nor write to a file descriptor
with ``os.write``: a CLI run's last stdout line must be the command's
own, whatever library code it calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

import orthoate

PACKAGE = Path(orthoate.__file__).parent
STREAMS = ("stdout", "stderr", "__stdout__", "__stderr__")
WRITERS = {"sys": STREAMS, "os": ("write",)}


def output_uses(source: str) -> list:
    """(line, what) for every ``print`` name, every ``sys`` stream and ``os.write``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "print":
            found.append((node.lineno, "print"))
        elif (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.attr in WRITERS.get(node.value.id, ())
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in WRITERS:
            names = WRITERS[node.module]
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names if a.name in names]
    return sorted(found)


def test_the_check_sees_each_kind_of_output():
    source = (
        "import sys\nprint(1)\nsys.stderr.write('x')\nfrom sys import stdout\nf = print\n"
        "sys.__stdout__.write('x')\nsys.__stderr__.flush()\nfrom sys import __stdout__\n"
        "import os\nos.write(1, b'x')\nfrom os import write, getcwd\nos.getcwd()\n"
    )
    assert output_uses(source) == [
        (2, "print"), (3, "sys.stderr"), (4, "sys.stdout"), (5, "print"),
        (6, "sys.__stdout__"), (7, "sys.__stderr__"), (8, "sys.__stdout__"),
        (10, "os.write"), (11, "os.write"),
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
