"""Every function, class and method defined under ``src/`` is used there.

A definition counts as used when its name appears anywhere in ``src/`` as
a name, an attribute or a string constant (``__all__`` included).  Dunder
methods are called by the language, and the allowlist names the few
definitions whose callers live outside ``src/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {
    "build_corpus": "entry point: the seed-0 soundness sweep builds its cases",
    "run_corpus": "entry point: the seed-0 soundness sweep evaluates them",
    "grading": "observability: the grading counters per weight band",
    "reconstruct_gradients": "hook: the tracer times mesh gradients by it",
    "scaled": "hook: the sweep workload scales each field's amplitude",
    "write_mesh": "the mesh format's writer, the inverse of read_mesh",
}


def _trees():
    return [ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.rglob("*.py"))]


def _defined(trees):
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))}


def _used(trees):
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                used.add(node.value)
    return used


def test_every_definition_is_used():
    trees = _trees()
    dead = _defined(trees) - _used(trees)
    assert dead == set(ALLOWED), sorted(dead ^ set(ALLOWED))
