"""Every function, class and method in src/speclab is named somewhere in
src/, tests/ or perfbench/ outside its own definition.

A reference is an identifier (a name or an attribute) or a word of a string
literal that is not a docstring, so the qualified names the benchmark's
tracer wraps count. Dunder methods are called by the language and exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree):
    """ids of the string constants that stand alone as statements."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def _references(tree):
    """(name, line) of every identifier and string word in a module."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            for word in WORD.findall(node.value):
                yield word, node.lineno


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def test_every_definition_is_referenced():
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    refs = {}
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unreferenced = []
    for path in sorted((ROOT / "src" / "speclab").glob("*.py")):
        for node in _definitions(ast.parse(path.read_text(), str(path))):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in refs.get(node.name, ())):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, "named nowhere else: " + ", ".join(unreferenced)
