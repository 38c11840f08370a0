"""Every public definition in ``src/ralp`` is used by the package itself.

A public module-level function or class, or a public method of a
module-level class, counts as used when its name appears as a name or an
attribute anywhere in ``src/ralp``.  Code that only the tests call belongs in
``tests/``, and the tests of a scalar twin belong on the batch API the runs
call.
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
    """(name, label) of each public module-level function and class, and of their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}"


def test_every_public_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    definitions = [(module, name, label) for module, tree in trees.items() for name, label in _public_definitions(tree)]
    unused = [f"{module}: {label}" for module, name, label in definitions if name not in used and name not in ALLOWED]
    assert unused == [], "public definitions that no module of src/ralp references"
    # an allowed name must still be defined and still be unreferenced
    assert set(ALLOWED) <= {name for _, name, _ in definitions} - used
