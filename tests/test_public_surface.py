"""Every public name of ``pathpol`` has a caller in the package or the demos,
and every field of a public dataclass has a reader.

A name in ``pathpol.__all__`` counts as used when some ``src/pathpol/*.py``
or ``demos/*.py`` file reads it as a Name or an Attribute node outside its
own definition. A field of a dataclass in ``pathpol.__all__`` counts as read
when one of those files, or a ``perfbench/*.py`` file (the benchmark's
tracer reads report fields), reads it as an Attribute node. Import lists,
``__all__`` strings, docstrings and tests do not count.

A field name that two public dataclasses share is matched per owner
instead: ``SHARED_FIELD_READERS`` names, for each owner of such a field, a
function that reads that owner's field, and the function must read it.

``pathpol verify`` checks the package the way a caller uses it, so
``verify.py`` reads no name private to another pathpol module, and no other
pathpol module does either. Each folded bench convention is spelled in one
module: the plate table is subscripted only in ``elements.py``, and the
phase names are written out only in ``bench.py``. Each boundary refusal of
an index, a count or a choice is spelled only in ``tensor.py``, by
``tensor.choice``, and no module binds a bool test of its own.
"""

import ast
import dataclasses
from collections import defaultdict
from pathlib import Path

import pathpol

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "pathpol").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
FIELD_READERS = FILES + sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "pathpol").glob("*.py"))

# (owner, field) -> (file, function reading that owner's field there)
SHARED_FIELD_READERS = {
    ("AaProjection", "delta"): ("src/pathpol/verify.py", "_check_pipeline_goldens"),
    ("CorrelationReport", "delta"): ("src/pathpol/cli.py", "_print_correlation"),
    ("BenchRun", "output"): ("src/pathpol/observables.py", "transfer_check"),
    ("Scenario", "output"): ("src/pathpol/cli.py", "cmd_sweep"),
}

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


def private_reads(tree: ast.AST) -> set[str]:
    """``module._name`` reads and ``from .module import _name`` imports of a
    name private to a pathpol module (dunders excluded)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    bound, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a for a in node.names if a.name.startswith("pathpol")]
            bound |= {a.asname or a.name.split(".")[0] for a in names}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pathpol")):
            bound |= {a.asname or a.name for a in node.names}
            found |= {f"{node.module}.{a.name}" for a in node.names if private(a.name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.add(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_verify_reads_nothing_private_of_another_module():
    path = ROOT / "src" / "pathpol" / "verify.py"
    assert private_reads(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_no_module_reads_a_name_private_to_another():
    # a module reaches another through its public names only
    found = {
        path.name: reads
        for path in sorted((ROOT / "src" / "pathpol").glob("*.py"))
        if (reads := private_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_every_public_name_has_a_caller():
    assert sorted(set(pathpol.__all__) - _names_read_in(FILES)) == []


def _read_in_function(field: str, path: str, function: str) -> bool:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    [node] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]
    return field in names_read(node, kinds=(ast.Attribute,))


def test_every_field_of_a_public_dataclass_is_read():
    used = _names_read_in(FIELD_READERS, kinds=(ast.Attribute,))
    public = [getattr(pathpol, name) for name in pathpol.__all__]
    fields = [
        (cls.__name__, field.name)
        for cls in public
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
    ]
    owners = defaultdict(set)
    for owner, name in fields:
        owners[name].add(owner)
    # a shared name read anywhere may be the other owner's field
    shared = {(owner, name) for owner, name in fields if len(owners[name]) > 1}
    assert set(SHARED_FIELD_READERS) <= shared
    unread = [
        f"{owner}.{name}"
        for owner, name in fields
        if not (
            _read_in_function(name, *SHARED_FIELD_READERS[owner, name])
            if (owner, name) in SHARED_FIELD_READERS
            else (owner, name) not in shared and name in used
        )
    ]
    assert unread == []


# each folded convention, and the one module that may spell it out
CONVENTION_HOMES = {"PLATES subscript": "elements.py", "phase name": "bench.py"}


def convention_spellings(path: Path) -> list[tuple[str, int, str]]:
    """``(convention, line, text)`` of each ``PLATES`` subscript and each
    phase-name string literal in ``path``, in line order."""
    names = {"theta1", "theta2", "phi1", "phi2"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Subscript):
            table = node.value
            if getattr(table, "id", getattr(table, "attr", None)) == "PLATES":
                found.append(("PLATES subscript", node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Constant) and node.value in names:
            found.append(("phase name", node.lineno, repr(node.value)))
    return sorted(found, key=lambda spelling: spelling[1])


def test_each_bench_convention_is_spelled_in_one_module():
    # every other module derives from the plate lookup and the phase names
    stray = [
        (path.name, *spelling)
        for path in SOURCES
        for spelling in convention_spellings(path)
        if path.name != CONVENTION_HOMES[spelling[0]]
    ]
    assert stray == []


def hand_written_choices(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, test)`` of each ``if`` whose test holds a ``not in`` or a
    range comparison (``lo <= x < hi``, or one bound of a name by a named
    constant, ``x < MIN_X``) and whose body raises a ``ValueError``, and
    ``(line, name)`` of each binding of ``is_bool``."""
    def raises_value_error(body):
        return any(
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ValueError"
            for statement in body
            for node in ast.walk(statement)
        )

    def range_test(node):
        sides = [node.left, *node.comparators]
        bound = all(isinstance(side, ast.Name) for side in sides) and any(
            side.id.isupper() for side in sides
        )
        ordered = all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
        return ordered and (len(node.ops) > 1 or bound)

    def choice_test(test):
        return any(
            isinstance(node, ast.Compare)
            and (any(isinstance(op, ast.NotIn) for op in node.ops) or range_test(node))
            for node in ast.walk(test)
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and choice_test(node.test) and raises_value_error(node.body):
            found.append((node.lineno, ast.unparse(node.test)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "is_bool":
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id == "is_bool":
                found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and (node.asname or node.name) == "is_bool":
            found.append((node.lineno, node.name))
    return sorted(found)


def test_each_choice_refusal_is_spelled_in_tensor_alone():
    # every other module refuses an index, a count or a choice through tensor.choice
    stray = [
        (path.name, *spelling)
        for path in SOURCES
        for spelling in hand_written_choices(ast.parse(path.read_text(encoding="utf-8")))
        if path.name != "tensor.py" or spelling[1] == "is_bool"
    ]
    assert stray == []


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


def test_private_read_guard_sees_attributes_and_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import pathpol.tensor as pt\n"
        "from . import bench\n"
        "from .observables import _core, sigma\n"
        "from pathpol.bench import _beam\n"
        "bench._x, pt.m._y, sigma.__name__, other._w\n"
    )
    want = {"observables._core", "pathpol.bench._beam", "bench._x", "pt.m._y"}
    assert private_reads(tree) == want


def test_choice_guard_sees_membership_ranges_and_bool_tests():
    tree = ast.parse(
        "from .tensor import is_bool\n"
        "if is_bool(v) or v not in (1, 2):\n"
        "    raise ValueError(v)\n"
        "if not 0 <= slot < 4:\n"
        "    if slot:\n"
        "        raise ValueError(slot)\n"
        "if key not in table:\n"
        "    raise ConfigError(key)\n"
        "if x < 100 or x * beat < MIN_BEATS:\n"
        "    raise ValueError(x)\n"
        "if samples > MAX_SAMPLES:\n"
        "    raise ValueError(samples)\n"
        "ok = lo <= v <= hi\n"
        "def is_bool(v):\n"
        "    return v\n"
    )
    assert hand_written_choices(tree) == [
        (1, "is_bool"),
        (2, "is_bool(v) or v not in (1, 2)"),
        (4, "not 0 <= slot < 4"),
        (11, "samples > MAX_SAMPLES"),
        (14, "is_bool"),
    ]


def test_convention_guard_sees_subscripts_and_literals(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""theta1 in a docstring"""\n'
        "a = elements.PLATES[1, 'pol']\n"
        "b = PLATES[key]\n"
        "c = {'phi2': 0, 'x': PLATES}\n"
        "d = f'phases.{name}', 'theta10'\n"
    )
    assert convention_spellings(path) == [
        ("PLATES subscript", 2, "elements.PLATES[1, 'pol']"),
        ("PLATES subscript", 3, "PLATES[key]"),
        ("phase name", 4, "'phi2'"),
    ]
