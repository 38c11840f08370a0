"""Every ``ralp`` attribute that the benchmark's trace mode wraps exists.

``perfbench/layers.py`` wraps functions by attribute from outside the
package: ``tracer.wrap(owner, "attr", ...)`` reads ``vars(owner)[attr]``, so
a renamed or deleted function crashes the traced benchmark run.  This test
reads ``install()`` with ``ast`` (nothing under ``perfbench/`` is imported or
run) and checks each binding, the loops over owner tuples included.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _install(tree: ast.Module) -> ast.FunctionDef:
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install"]
    return fn


def _value(node: ast.expr, env: dict):
    """A name as its loop binding or its source text, ``module.Class`` as its text, a constant as itself."""
    if isinstance(node, ast.Tuple):
        return tuple(_value(e, env) for e in node.elts)
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id, node.id)
    return ast.unparse(node)


def _wrapped(body, env: dict) -> list:
    """(owner, attribute) of every ``tracer.wrap`` call in ``body``, loops over literal tuples unrolled."""
    found = []
    for node in body:
        if isinstance(node, ast.For):
            for item in _value(node.iter, env):
                names = node.target.elts if isinstance(node.target, ast.Tuple) else [node.target]
                values = item if isinstance(node.target, ast.Tuple) else [item]
                found += _wrapped(node.body, {**env, **{n.id: v for n, v in zip(names, values)}})
        elif (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "wrap"
        ):
            found.append(tuple(_value(arg, env) for arg in node.value.args[:2]))
    return found


def _resolve(owner: str):
    """A ``ralp`` module or a class in one, from the source text ``module`` or ``module.Class``."""
    module, *rest = owner.split(".")
    obj = importlib.import_module(f"ralp.{module}")
    for name in rest:
        obj = getattr(obj, name)
    return obj


def test_every_wrapped_attribute_exists():
    bindings = _wrapped(_install(ast.parse(LAYERS.read_text())).body, {})
    # the gjr lookahead and separation kernels, the cli entry points and alp's bindings are among them
    assert ("gjr", "k_step_greedy") in bindings and ("gjr", "constraint_slack") in bindings
    assert ("alp.ScipyBackend", "solve") in bindings and ("alp", "features") in bindings
    missing = [f"{owner}.{attr}" for owner, attr in bindings if attr not in vars(_resolve(owner))]
    assert missing == [], "perfbench/layers.py wraps attributes that ralp does not define"
