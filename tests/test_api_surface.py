"""The public API stays small: every name that wordmap exports has a caller in
wordmap itself, or a reason in KEEP.

A reference is a read of the global name in any module of ``src/wordmap``
other than ``__init__.py``, outside the name's own definition; an import
alone does not count.
"""

import ast
from pathlib import Path

import wordmap

SRC = Path(wordmap.__file__).parent

# name: why it stays exported without a caller in src/wordmap
KEEP = {
    "charpoly": "the chi_i of an n x n value, the API form of the Berkowitz kernel behind "
                "det and adjugate; the probes read chi_1 and chi_2 off raw 2 x 2 rows",
    "eval_adjugate_extension": "the adjugate extension w~ of a word at any tuple, singular "
                               "ones too; extend takes w~ and w^ in one walk each from "
                               "shared det/adjugate passes",
    "word": "test helper: builds words from unreduced items in eight test files",
}


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _referenced():
    """The global names read in src/wordmap, each outside its own definition.

    Inside a function, a name that the function binds (an argument or an
    assignment target) is local and does not count.
    """
    used = set()

    def walk(node, hidden):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            hidden = hidden | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            hidden |= {n.id for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hidden = hidden | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in hidden:
            used.add(node.id)
        for child in ast.iter_child_nodes(node):
            walk(child, hidden)

    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), frozenset())
    return used


def test_every_exported_name_has_a_caller_or_a_reason():
    used = _referenced()
    unused = [name for name in _exported() if name not in used and name not in KEEP]
    assert not unused, f"exported but called nowhere in wordmap; delete or add to KEEP: {unused}"


def test_keep_lists_only_exported_names_without_a_caller():
    # an entry that gained a caller, or whose name is gone, comes out of KEEP
    exported, used = set(_exported()), _referenced()
    stale = sorted(name for name in KEEP if name not in exported or name in used)
    assert not stale, f"KEEP entries without reason to stay: {stale}"
