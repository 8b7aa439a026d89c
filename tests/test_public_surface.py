"""Every public name of ``pathpol`` has a caller in the package or the demos,
and every field of a public dataclass has a reader.

A name in ``pathpol.__all__`` counts as used when some ``src/pathpol/*.py``
or ``demos/*.py`` file reads it as a Name or an Attribute node outside its
own definition. A field of a dataclass in ``pathpol.__all__`` counts as read
when one of those files, or a ``perfbench/*.py`` file (the benchmark's
tracer reads report fields), reads it as an Attribute node. Import lists,
``__all__`` strings, docstrings and tests do not count.
"""

import ast
import dataclasses
from pathlib import Path

import pathpol

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "pathpol").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
FIELD_READERS = FILES + sorted((ROOT / "perfbench").glob("*.py"))

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_READS = (ast.Name, ast.Attribute)


def names_read(tree: ast.AST, kinds: tuple[type, ...] = _READS) -> set[str]:
    """Names read in ``tree`` by nodes of ``kinds``, leaving out reads inside a
    definition of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _names_read_in(paths: list[Path], kinds: tuple[type, ...] = _READS) -> set[str]:
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= names_read(tree, kinds)
    return used


def test_every_public_name_has_a_caller():
    assert sorted(set(pathpol.__all__) - _names_read_in(FILES)) == []


def test_every_field_of_a_public_dataclass_is_read():
    used = _names_read_in(FIELD_READERS, kinds=(ast.Attribute,))
    public = [getattr(pathpol, name) for name in pathpol.__all__]
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in public
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if field.name not in used
    ]
    assert unread == []


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
    assert names_read(tree, kinds=(ast.Attribute,)) == {"used_e"}
