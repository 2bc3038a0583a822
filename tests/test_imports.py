"""The package is numpy-only: its modules import the standard library,
numpy and the package itself, nothing else."""

import ast
import sys
from pathlib import Path

import irismatch

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "irismatch"}


def imported_roots(source):
    """(line, top-level module) of every absolute import in ``source``;
    relative imports are the package itself."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_imported_roots_sees_every_import_form():
    source = ("import os.path, scipy.signal\nfrom numpy.fft import rfft\nfrom . import tensor\n"
              "def f():\n    from torch import nn\n")
    assert list(imported_roots(source)) == [(1, "os"), (1, "scipy"), (2, "numpy"), (5, "torch")]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(irismatch.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    outside = [f"{path.name}:{line}: {root}" for path in sources
               for line, root in imported_roots(path.read_text(encoding="utf-8"))
               if root not in ALLOWED]
    assert outside == []
