"""Every random stream of the package comes from ``seeds.py``.

Every module but ``seeds.py`` is parsed, not imported, and may not name
numpy's ``SeedSequence`` or ``default_rng``: a stream is
``seeds.stream(seed, *key)`` or is seeded by ``seeds.seed_int``, so the
question where a stream comes from has one answer.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

import orthoate
from orthoate.seeds import stream

PACKAGE = Path(orthoate.__file__).parent
SEED_NAMES = ("SeedSequence", "default_rng")


def seed_uses(source: str) -> list:
    """(line, name) for every name, attribute or import of SeedSequence or default_rng."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in SEED_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in SEED_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in SEED_NAMES]
    return sorted(found)


def test_the_check_sees_each_kind_of_use():
    source = (
        '"""Docstrings may say SeedSequence and default_rng."""\n'
        "import numpy as np\nnp.random.default_rng(0)\nnp.random.SeedSequence(1)\n"
        "from numpy.random import SeedSequence, default_rng as make\nf = default_rng\n"
        "np.random.Generator(np.random.PCG64(0))\n"
    )
    assert seed_uses(source) == [
        (3, "default_rng"), (4, "SeedSequence"), (5, "SeedSequence"), (5, "default_rng"),
        (6, "default_rng"),
    ]


def test_only_seeds_module_builds_seed_sequences():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "seeds.py")
    assert PACKAGE / "estimators.py" in modules and PACKAGE / "learners" / "forest.py" in modules
    offences = {
        str(path.relative_to(PACKAGE)): uses
        for path in modules
        if (uses := seed_uses(path.read_text()))
    }
    assert offences == {}
    assert seed_uses((PACKAGE / "seeds.py").read_text()) != []


def test_stream_without_key_is_the_plain_seed_sequence():
    want = np.random.default_rng(np.random.SeedSequence(7)).random(5)
    np.testing.assert_array_equal(stream(7).random(5), want)
    keyed = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1, 2))).random(5)
    np.testing.assert_array_equal(stream(7, 1, 2).random(5), keyed)
