"""Every name that ``src/kgpath/`` defines is read by the program.

A top-level function or class, a method or a dataclass field must be named
somewhere in ``src/kgpath/`` outside its own definition, or in the code of
``perfbench/`` or ``scripts/`` (their tests do not count). Code that only
tests read is deleted or folded into the real route; ``KEPT`` lists the
exceptions. Dunder methods are called by Python itself and are not checked.
A name counts as read wherever it appears as an identifier, an attribute, a
keyword argument or a string that is exactly the name (``__all__`` entries,
names looked up with ``getattr``); comments and docstrings do not count.

Every instance attribute that ``src/kgpath/`` sets (``self.<name> = ...``)
must be read as an attribute (``<object>.<name>``, not assigned) somewhere in
``src/kgpath/``, ``perfbench/`` or ``scripts/``, matched by name alone.

Likewise every parameter with a default must be set by some call in those
same places: by keyword, by enough positional arguments to reach it, or by a
call that passes ``*`` or ``**`` arguments. Calls are matched by function or
method name, and by class name for ``__init__``. A default that no caller
sets is a constant, and is written as one. And every parameter with a default
must be left unset by some call there: a default that every caller overrides
restates a value whose home is elsewhere (the operating point's is
``RunConfig``), and the parameter is required instead. ``ALWAYS_SET`` lists
the exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgpath"

# Names (``module.qualname``) and parameters (``module.qualname(param)``)
# kept unread or unset. ``gt_provenance`` is kept for the planned
# ground-truth provenance column of the seed grid.
KEPT = {"schema.gt_provenance"}

# Parameters (``module.qualname(param)``) that keep a default every caller
# overrides. ``msg`` follows the optional path and line number.
ALWAYS_SET = {"config.InputError.__init__(msg)"}


def kept(parameters: bool) -> list[str]:
    return sorted(k for k in KEPT if k.endswith(")") == parameters)


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def outside_trees() -> list[ast.Module]:
    """The code of ``perfbench/`` and ``scripts/``, their tests left out."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("perfbench", "scripts")
        for path in (ROOT / folder).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    ]


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
    trees = package_trees()
    package_refs = {module: list(named(tree)) for module, tree in trees.items()}
    outside = {name for tree in outside_trees() for name, _ in named(tree)}
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
    assert sorted(unread) == kept(parameters=False)


def test_every_instance_attribute_is_read():
    trees = package_trees()
    read = {
        node.attr
        for tree in [*trees.values(), *outside_trees()]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{module}:{node.lineno} self.{node.attr}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in read
    )
    assert unread == []


def defaulted(tree: ast.Module):
    """(qualified name, call name, position, parameter) of each parameter
    with a default of every top-level function and method. A method's
    positions start after ``self`` or ``cls``; a keyword-only parameter has
    position None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from parameters(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in sub.decorator_list)
                    call = node.name if sub.name == "__init__" else sub.name
                    yield from parameters(f"{node.name}.{sub.name}", call, sub, 0 if static else 1)


def parameters(qualname: str, call: str, fn: ast.FunctionDef, skip: int):
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield qualname, call, i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield qualname, call, None, arg.arg


def calls(tree: ast.AST):
    """(called name, positional count, keyword names, passes ``*``/``**``)
    of every call in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            starred |= any(k.arg is None for k in node.keywords)
            yield name, len(node.args), {k.arg for k in node.keywords}, starred


def defaults_by_setting() -> dict[str, list[bool]]:
    """Each defaulted parameter's entry per matching call: True where the
    call sets it."""
    trees = package_trees()
    every_call = [c for tree in [*trees.values(), *outside_trees()] for c in calls(tree)]
    return {
        f"{module}.{qualname}({param})": [
            starred or param in keywords or (position is not None and n_pos > position)
            for name, n_pos, keywords, starred in every_call
            if name == call
        ]
        for module, tree in trees.items()
        for qualname, call, position, param in defaulted(tree)
    }


def test_every_default_is_set_by_some_call():
    unset = [param for param, sets in defaults_by_setting().items() if not any(sets)]
    assert sorted(unset) == kept(parameters=True)


def test_every_default_is_left_to_some_call():
    always_set = [param for param, sets in defaults_by_setting().items() if all(sets)]
    assert sorted(always_set) == sorted(ALWAYS_SET)
