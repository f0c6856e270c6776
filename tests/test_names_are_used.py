"""Every name that ``src/kgpath/`` defines is read by the program.

A top-level function or class, a method or a dataclass field must be named
somewhere in ``src/kgpath/`` outside its own definition, or in the code of
``perfbench/`` or ``scripts/`` (their tests do not count). Code that only
tests read is deleted or folded into the real route; ``KEPT`` lists the
exceptions. Dunder methods are called by Python itself and are not checked.
A name counts as read wherever it appears as an identifier, an attribute, a
keyword argument or a string that is exactly the name (``__all__`` entries,
names looked up with ``getattr``); comments and docstrings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgpath"

# kept for the planned ground-truth provenance column of the seed grid
KEPT = {"schema.gt_provenance"}


def named(tree: ast.AST):
    """(name, line) of every identifier-like reference in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def is_dataclass(cls: ast.ClassDef) -> bool:
    calls = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in calls)


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, each
    method but the dunders, and each dataclass field."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub
                elif isinstance(sub, ast.AnnAssign) and is_dataclass(node):
                    yield f"{node.name}.{sub.target.id}", sub


def test_every_defined_name_is_read_outside_its_definition():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    package_refs = {module: list(named(tree)) for module, tree in trees.items()}
    outside = {
        name
        for folder in ("perfbench", "scripts")
        for path in (ROOT / folder).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
        for name, _ in named(ast.parse(path.read_text(encoding="utf-8")))
    }
    unread = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            read = name in outside or any(
                ref == name and not (other == module and line in own)
                for other, refs in package_refs.items()
                for ref, line in refs
            )
            if not read:
                unread.append(f"{module}.{qualname}")
    assert sorted(unread) == sorted(KEPT)
