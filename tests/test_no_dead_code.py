"""Every function, class and module-level name in the package is used from
somewhere outside the tests: its name appears in the package, in perfbench
or in pyproject.toml somewhere other than the line that defines it.  An
arithmetic operator method counts too: an operator reaches it by symbol,
which no search for its name sees, so one that nothing names is reported."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irismatch"

_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow",
           "lshift", "rshift", "and", "xor", "or")
OPERATORS = ({f"__{form}{op}__" for op in _BINARY for form in ("", "r", "i")}
             | {"__divmod__", "__rdivmod__", "__neg__", "__pos__", "__abs__", "__invert__"})


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(source):
    """(line, name) of every function, method and class defined in
    ``source``, of every name a module-level assignment binds, and of every
    arithmetic operator method, defined or assigned; other dunders are
    excluded."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield node.lineno, name.id
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in OPERATORS or not _is_dunder(node.name):
                yield node.lineno, node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in OPERATORS:
                    yield node.lineno, target.id


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
    # ``*`` reaches ``__mul__`` by symbol: only a name counts as a use
    sources = {"v.py": "class V:\n    def __init__(self):\n        pass\n\n"
                       "    def __mul__(self, o):\n        return mul(self, o)\n\n"
                       "    __rmul__ = __mul__\n\n\ndef mul(a, b):\n    pass\n"}
    assert unused_names(sources, {"b.py": "y = V() * 2\n"}) == ["__rmul__"]
    assert unused_names(sources, {"b.py": "y = 2 * V()\nz = V.__rmul__\n"}) == []
    # a module-level name, a leftover budget say, counts like a function; a
    # class attribute and a dunder do not
    sources = {"m.py": "__all__ = ['f']\n_BUDGET = 1 << 24\n_SLICE: int = 64\nA, B = 1, 2\n\n\n"
                       "class K:\n    size = 3\n\n\ndef f():\n    return _SLICE + A\n"}
    assert unused_names(sources, {"b.py": "K().f\n"}) == ["B", "_BUDGET"]


def test_every_package_name_is_used_outside_the_tests():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    texts = {path: path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "pyproject.toml"]}
    assert len(texts) > 3
    assert unused_names(sources, texts) == []


def test_every_test_helper_is_used_by_a_test():
    """The tests' helper modules hold no dead code either: some test module
    names every helper they define."""
    tests = ROOT / "tests"
    sources = {path: path.read_text(encoding="utf-8")
               for path in (tests / "oracles.py", tests / "gradcheck.py")}
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(tests.glob("test_*.py"))}
    assert len(texts) > 10
    assert unused_names(sources, texts) == []
