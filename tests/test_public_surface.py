"""The package exports only what it runs, and its records hold only what it reads.

Every public module-level function and class in ``src/giasim`` must be
referenced by package code other than its own definition. A name that only
tests call belongs in ``tests/oracles.py``. References are AST ``Name`` and
``Attribute`` nodes, so a mention in a docstring or an ``__init__`` re-export
does not count. Likewise every dataclass field and every property, plain or
``functools.cached_property``, must be read, as an attribute, somewhere in package code; a member that only tests
read is computed in ``tests/oracles.py`` instead. A read through ``self``
counts only for the members of the class it sits in. The package root
exports what README's library example imports, and the error classes.
"""

import ast
import inspect
from pathlib import Path

import giasim
from giasim import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "giasim"

EXEMPT = {
    # a paper result (the backhaul table), checked by acceptance criterion 11
    "backhaul_overhead",
    # the alignment diagnostic; the planned run-metrics sidecar is its caller
    "verify_alignment",
}


def test_every_public_name_has_a_package_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = {
        node.name: node
        for fname, tree in trees.items() if fname != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert EXEMPT <= set(defs), "an exempted name is gone: drop it from EXEMPT"
    owner = {id(n): name for name, node in defs.items() for n in ast.walk(node)}
    refs = {  # (name referenced, public definition the reference sits in)
        (node.id if isinstance(node, ast.Name) else node.attr, owner.get(id(node)))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    # a name referenced only from unused definitions is unused too
    unused = set()
    while True:
        used = EXEMPT | {name for name, where in refs if where != name and where not in unused}
        if set(defs) - used == unused:
            break
        unused = set(defs) - used
    assert sorted(unused) == [], f"public names with no caller in src/giasim: {sorted(unused)}"


MEMBER_EXEMPT = {
    # the record of verify_alignment, the alignment diagnostic exempted above
    "AlignmentReport",
    # the paper's backhaul table, the record backhaul_overhead returns
    "OverheadReport",
}


def test_every_record_member_has_a_package_reader():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert MEMBER_EXEMPT <= {c.name for c in classes}, "an exempted record is gone"
    members = {}  # (class, member) -> the definition's node
    for cls in classes:
        if cls.name in MEMBER_EXEMPT:
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                members[cls.name, node.target.id] = node
            elif isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(d) in ("property", "functools.cached_property")
                    for d in node.decorator_list):
                members[cls.name, node.name] = node
    owner = {id(n): key for key, node in members.items() for n in ast.walk(node)}
    enclosing = {id(n): cls.name for cls in classes for n in ast.walk(cls)}
    reads = {  # (attribute read, class of a read through self or None, member the read sits in)
        (node.attr, enclosing.get(id(node)) if ast.unparse(node.value) == "self" else None,
         owner.get(id(node)))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    # a member read only from unread properties is unread too
    unread = set()
    while True:
        read = {(attr, cls) for attr, cls, where in reads if where not in unread}
        now = {key for key in members if {(key[1], None), key[::-1]}.isdisjoint(read)}
        if now == unread:
            break
        unread = now
    assert sorted(unread) == [], f"record members nothing in src/giasim reads: {sorted(unread)}"


def test_package_root_exports_the_readme_example_and_the_errors():
    readme = (SRC.parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python", 1)[1]
    line = example[example.index("from giasim import"):]
    line = line[:line.index(")") + 1]
    imported = {}
    exec(line, imported)
    example_names = {name for name in imported if not name.startswith("__")}
    assert len(example_names) == 10
    error_names = {name for name, obj in vars(errors).items()
                   if inspect.isclass(obj) and issubclass(obj, errors.GiaSimError)}
    root = {name for name, obj in vars(giasim).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}
    assert root == example_names | error_names
