"""Every top-level function and class in ``setnet`` has a caller in ``setnet``.

A helper that only tests call is library surface nobody runs. This walks the
AST of every ``src/setnet`` module except ``__init__.py`` (its re-exports are
not callers) and looks for each top-level definition's name as a ``Name`` or
an ``Attribute`` anywhere in the package outside the definition itself, so a
name in a docstring or a recursive call does not count. The only allowed
exceptions are the functions the benchmark's per-layer metrics wrap (the
``LAYER_METRICS`` targets of ``perfbench/run.py``) and ``diffmath.grad_check``,
the verifier of the gradient acceptance criterion.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "setnet"
ALLOWED = {"diffmath.grad_check"}


def layer_targets() -> set[str]:
    layer_metrics = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["LAYER_METRICS"]
    return {target for _, _, targets, _ in layer_metrics for target in targets}


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names used in ``tree``, outside the ``skip`` subtree."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            used = any(node.name in referenced_names(other, skip=node) for other in trees.values())
            if not used:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_top_level_definition_has_a_caller_in_the_package():
    assert sorted(set(unreferenced_definitions()) - ALLOWED - layer_targets()) == []
