"""Every module-level import and private helper in the package is used,
and every name the package exports exists.

Deleting code tends to strand the imports and helpers it needed; this
walks each module's syntax tree instead of running a linter.  For the
imports, ``__init__.py`` only re-exports, and ``from __future__`` imports
bind nothing, so both are skipped; a name counts as used if the module
reads it anywhere, in a string annotation, or lists it in ``__all__``.
A private function or class counts as used if any other top-level
statement of the package names it.  Every absolute import names the
standard library, numpy or the package itself: numpy is the only
runtime dependency.  An ``__all__`` entry that names nothing is checked
by star-importing the package and each module, and every public error
class but the ``MinvarError`` base must be raised somewhere.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minvar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line number."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            yield node.returns


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value))
                         if isinstance(n, ast.Name)}
    return used | _exported(tree)


def test_the_package_has_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _references(node: ast.AST) -> set[str]:
    """Names a syntax subtree reads, as plain names or as attributes."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs |= {alias.name for alias in n.names}
    return refs


def test_private_helpers_are_referenced():
    # a module-level private function or class that no other statement of
    # the package names is dead code stranded by an earlier deletion
    statements = [node for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    refs = [(node, _references(node)) for node in statements]
    stranded = [
        node.name for node in statements
        if isinstance(node, ast.FunctionDef | ast.ClassDef)
        and node.name.startswith("_")
        and not any(node.name in names for other, names in refs
                    if other is not node)]
    assert not stranded, f"private helpers nothing references: {stranded}"


def _absolute_imports(tree: ast.Module):
    """Top-level package of every absolute import, with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_numpy_is_the_only_runtime_dependency():
    # anything the package imports beyond the standard library and numpy
    # would be an undeclared runtime dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "minvar"}
    foreign = [f"{path.name}:{line} {name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for name, line in _absolute_imports(
                   ast.parse(path.read_text(encoding="utf-8")))
               if name not in allowed]
    assert not foreign, f"imports outside stdlib and numpy: {foreign}"


@pytest.mark.parametrize(
    "name", ["minvar"] + [f"minvar.{p.stem}" for p in MODULES])
def test_every_export_resolves(name):
    # a star import raises AttributeError on an ``__all__`` entry that
    # names nothing: the stale export a deletion can leave behind
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}: duplicate exports"
    assert set(exported) <= set(namespace)


def test_package_exports_are_exported_where_defined():
    # a name the package re-exports belongs to the ``__all__`` of the
    # module that defines it, so a star import of that module finds it too
    import minvar
    missing = []
    for name in minvar.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(getattr(minvar, name).__module__)
        if name not in getattr(home, "__all__", ()):
            missing.append(f"{home.__name__}.{name}")
    assert not missing, f"exported names missing from __all__: {missing}"


def _raised(node: ast.AST) -> set[str]:
    """Names of the exceptions a syntax subtree raises, ``raise X(...)``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if isinstance(exc, ast.Name | ast.Attribute):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_public_error_is_raised():
    # a public error class that nothing raises is dead API, which a
    # deleted raise leaves behind; the base class is caught, not raised
    from minvar import errors
    raised = set().union(*(_raised(ast.parse(path.read_text(encoding="utf-8")))
                           for path in MODULES))
    unraised = [name for name in errors.__all__
                if name != "MinvarError" and name not in raised]
    assert not unraised, f"public errors nothing raises: {unraised}"
