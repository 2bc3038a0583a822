"""Every function and class in the package runs from somewhere outside the
tests: its name appears in the package, in perfbench or in pyproject.toml
somewhere other than the line that defines it."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irismatch"

# used only by tests and kept on purpose; an entry that comes into use
# elsewhere, or is deleted, leaves the list
ALLOWED = {
    "shift_bitcode",    # the test oracle of rotations for the bitcode matcher
}


def defined_names(source):
    """(line, name) of every function, method and class defined in
    ``source``, dunders excluded."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.lineno, node.name


def unused_names(sources, texts):
    """Names defined in ``sources`` (path -> text) whose only word matches in
    ``sources`` and ``texts`` (path -> text) are the lines that define them."""
    defs = defaultdict(set)
    for path, source in sources.items():
        for line, name in defined_names(source):
            defs[name].add((path, line))
    used = set()
    for path, text in {**sources, **texts}.items():
        for lineno, line in enumerate(text.splitlines(), start=1):
            used.update(name for name in re.findall(r"\w+", line)
                        if name in defs and (path, lineno) not in defs[name])
    return sorted(set(defs) - used)


def test_unused_names_sees_what_only_its_definition_names():
    sources = {"a.py": "def f():\n    return g()\n\n\ndef g():\n    pass\n\n\n"
                       "class C:\n    def m(self):\n        pass\n\n    def __init__(self):\n"
                       "        pass\n\n\ndef h():\n    def inner():\n        pass\n"
                       "    return inner\n"}
    assert unused_names(sources, {}) == ["C", "f", "h", "m"]
    assert unused_names(sources, {"b.toml": "x = 'a:f'\ny = C().m\n"}) == ["h"]


def test_every_package_name_is_used_outside_the_tests():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    texts = {path: path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "pyproject.toml"]}
    assert len(texts) > 3
    assert unused_names(sources, texts) == sorted(ALLOWED)
