"""Every public name of ``pathpol`` has a caller in the package or the demos.

A name in ``pathpol.__all__`` counts as used when some ``src/pathpol/*.py``
or ``demos/*.py`` file reads it as a Name or an Attribute node outside its
own definition. Import lists, ``__all__`` strings, docstrings and tests do
not count.
"""

import ast
from pathlib import Path

import pathpol

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "pathpol").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(tree: ast.AST) -> set[str]:
    """Names read in ``tree``, leaving out reads inside a definition of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller():
    used = set()
    for path in FILES:
        used |= names_read(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert sorted(set(pathpol.__all__) - used) == []


def test_guard_ignores_definitions_imports_and_docstrings():
    tree = ast.parse(
        '"""mentions unused_a"""\n'
        "from .m import unused_b\n"
        "def unused_c():\n"
        "    return unused_c()\n"
        "used_d = 1\n"
        "print(used_d, mod.used_e)\n"
    )
    assert names_read(tree) == {"print", "used_d", "mod", "used_e"}
