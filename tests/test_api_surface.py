"""Every public definition in ``src/ralp`` is used by the package itself.

A public module-level function or class counts as used when a module of
``src/ralp`` names it: as a bare name, in ``from ralp.x import name``, or as
``alias.name`` for an alias bound to a ``ralp`` module.  A public method or
property of a module-level class counts as used when some module of
``src/ralp`` reads it as an attribute, ``x.name``; a bare name or a local
variable of the same name does not count.  Code that only the tests call
belongs in ``tests/``, and the tests of a scalar twin belong on the batch API
the runs call.
"""

import ast
from pathlib import Path

import ralp

SRC = Path(ralp.__file__).parent

# name -> why it may stay unused
ALLOWED = {
    "falp_sample_bound": "sampling-guarantee helper, waits for the convergence criterion (ROADMAP item 8)",
    "fourier_omega_const": "sampling-guarantee helper, waits for the convergence criterion (ROADMAP item 8)",
}


def _public_definitions(tree: ast.Module):
    """(name, label, is_method) of each public module-level function and class, and of their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}", True


def _module_aliases(tree: ast.Module, modules: set[str]) -> set[str]:
    """Names that a module binds to a ``ralp`` module, at any nesting level."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ralp":
            aliases.update(a.asname or a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.asname and a.name.startswith("ralp."))
    return aliases


def _references(tree: ast.Module, modules: set[str]) -> tuple[set[str], set[str]]:
    """(names that use a module-level definition, attributes read) of one module."""
    aliases = _module_aliases(tree, modules)
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ralp."):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add(node.attr)
    return names, attributes


def test_every_public_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    modules = {name.removesuffix(".py") for name in trees}
    used_names, used_attributes = set(), set()
    for tree in trees.values():
        names, attributes = _references(tree, modules)
        used_names |= names
        used_attributes |= attributes
    definitions = [
        (module, name, label, name in (used_attributes if is_method else used_names))
        for module, tree in trees.items()
        for name, label, is_method in _public_definitions(tree)
    ]
    unused = [f"{module}: {label}" for module, name, label, used in definitions if not used and name not in ALLOWED]
    assert unused == [], "public definitions that no module of src/ralp references"
    # an allowed name must still be defined and still be unreferenced
    assert set(ALLOWED) <= {name for _, name, _, used in definitions if not used}
