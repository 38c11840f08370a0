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


# (function, parameter) -> why its default may be the only value src/ralp passes
DEFAULT_ONLY = {
    ("main", "argv"): "the console script passes sys.argv; tests pass an argument list",
    ("fourier_omega_const", "lipschitz"): "sampling-guarantee helper, waits for the convergence criterion (ROADMAP item 8)",
}


def _defaulted_parameters(tree: ast.Module):
    """(callee name, parameter, positional index or None) of each parameter with a default.

    Covers module-level functions and the methods of module-level classes; a
    method's index skips ``self``, and ``__init__`` is called by its class name.
    """
    functions = [(node, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [(item, cls.name if item.name == "__init__" else item.name, 1)
                      for item in cls.body if isinstance(item, ast.FunctionDef)]
    for fn, name, skip in functions:
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, index - skip
        yield from ((name, arg.arg, None) for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)


def _passes(call: ast.Call, param: str, index) -> bool:
    """Whether ``call`` may set ``param``: by keyword, by position, or through ``*`` / ``**`` expansion."""
    keywords = {k.arg for k in call.keywords}  # None for a ** expansion
    if param in keywords or None in keywords:
        return True
    return index is not None and (len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args))


def _calls(tree: ast.Module):
    """(callee name, call) of each call in a module.

    A name handed to a call, as ``partial(f, x)`` or ``_build(section, f, x)``
    hand ``f``, counts as called with the arguments after it and every keyword.
    """
    for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        for i, func in enumerate([node.func, *node.args]):
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            yield name, node if i == 0 else ast.Call(func=func, args=node.args[i:], keywords=node.keywords)


def test_every_defaulted_parameter_is_passed():
    # a parameter that no call of src/ralp sets is a knob that only its default reaches
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for name, call in (c for tree in trees for c in _calls(tree)):
        calls.setdefault(name, []).append(call)
    defaulted = [d for tree in trees for d in _defaulted_parameters(tree)]
    unpassed = {(name, param) for name, param, index in defaulted
                if not any(_passes(call, param, index) for call in calls.get(name, []))}
    assert sorted(unpassed - set(DEFAULT_ONLY)) == [], "parameters whose default is the only value src/ralp passes"
    # an allowed parameter must still exist and still be unpassed
    assert set(DEFAULT_ONLY) <= unpassed
