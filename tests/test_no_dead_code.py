"""Every top-level function and class in ``setnet``, and every method and
property of its classes, has a caller in ``setnet``, and no ``setnet`` module
uses another one's private names.

A helper that only tests call is library surface nobody runs. This walks the
AST of every ``src/setnet`` module except ``__init__.py`` (its re-exports are
not callers) and looks for each definition's name as a ``Name`` or an
``Attribute`` anywhere in the package outside the definition itself, so a
name in a docstring or a recursive call does not count. Dunder methods are
exempt: Python calls them. The only allowed exceptions are the functions the
benchmark's per-layer metrics wrap (the ``LAYER_METRICS`` targets of
``perfbench/run.py``), ``diffmath.grad_check``, the verifier of the gradient
acceptance criterion, and the ``ALLOWED`` methods that a base class calls.

A name with a leading underscore (not a dunder) is private to its module:
another module may neither import it (``from .dataio import _Cursor``) nor
read it off a module it imported (``from . import diffmath as dm`` and then
``dm._as_f64``).

The inference chunk rule sits where rows leave the bundle: only ``dataio``
names ``CHUNK_BYTES``, and no function of ``model``, ``ood`` or ``pipeline``
calls a chunk helper (a function that reads ``CHUNK_BYTES``), so no chunked
call nests another.

Every CLI option has a caller too: each option string of every
``cli.build_parser()`` subcommand (``--help`` aside) appears as a whole
token in ``README.md``, in ``perfbench/run.py`` or in a test file other than
this one. The train flags that only copied config fields and had no caller
stay refused; those refusals live here, because naming a flag to check that
it is refused does not make it called.
"""

import argparse
import ast
import json
import re
import runpy
from pathlib import Path

import pytest

from setnet.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "setnet"
ALLOWED = {
    "diffmath.grad_check",
    "cli._Parser.error",  # argparse calls it: the override keeps errors to one line
}


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


def module_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def methods(module: str, tree: ast.Module):
    """(node, "module.Class.name") of every method and property of the
    module's top-level classes, dunders left out."""
    return [(item, f"{module}.{node.name}.{item.name}") for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef) and not _dunder(item.name)]


def unreferenced(definitions) -> list[str]:
    """The qualified name of each (node, qualified name) definition whose name
    no package module uses outside the node itself."""
    trees = module_trees().values()
    return [name for node, name in definitions
            if not any(node.name in referenced_names(tree, skip=node) for tree in trees)]


def unreferenced_definitions() -> list[str]:
    return unreferenced((node, f"{module}.{node.name}")
                        for module, tree in module_trees().items() for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef)))


def unreferenced_methods() -> list[str]:
    return unreferenced(item for module, tree in module_trees().items()
                        for item in methods(module, tree))


def test_every_top_level_definition_has_a_caller_in_the_package():
    assert sorted(set(unreferenced_definitions()) - ALLOWED - layer_targets()) == []


def test_every_method_and_property_has_a_caller_in_the_package():
    assert sorted(set(unreferenced_methods()) - ALLOWED) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_cross_module_uses() -> list[str]:
    """"module: name" for each private name of one setnet module that
    another setnet module imports or reads."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        modules = set()  # the local names this module binds to setnet modules
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "setnet"
                                                     or node.module.startswith("setnet.")):
                for alias in node.names:
                    if node.module in (None, "setnet"):
                        modules.add(alias.asname or alias.name)
                    if _private(alias.name):
                        found.append(f"{path.stem}: {alias.name}")
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.asname and alias.name.startswith("setnet."))
        found += [f"{path.stem}: {node.value.id}.{node.attr}" for node in nodes
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    return found


def test_no_module_uses_another_modules_private_names():
    assert private_cross_module_uses() == []


def chunk_rule_offenders() -> list[str]:
    """Each module other than ``dataio`` that names ``CHUNK_BYTES``, and each
    "module.function" of ``model``, ``ood`` and ``pipeline`` that calls a
    chunk helper."""
    trees = module_trees()
    helpers = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and "CHUNK_BYTES" in referenced_names(node)}
    found = [module for module, tree in trees.items()
             if module != "dataio" and "CHUNK_BYTES" in referenced_names(tree)]
    for module in ("model", "ood", "pipeline"):
        found += [f"{module}.{node.name}" for node in trees[module].body
                  if isinstance(node, ast.FunctionDef) and referenced_names(node) & helpers]
    return found


def test_only_dataio_chunks_inference():
    assert chunk_rule_offenders() == []


def option_strings() -> set[str]:
    """Every option string of every ``build_parser()`` subcommand, the help flags aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {option for command in sub.choices.values() for action in command._actions
            for option in action.option_strings if option not in ("-h", "--help")}


def uncalled_options() -> list[str]:
    """The option strings that no caller text names as a whole token."""
    callers = [ROOT / "README.md", ROOT / "perfbench" / "run.py",
               *(path for path in sorted((ROOT / "tests").glob("*.py"))
                 if path.name != Path(__file__).name)]
    text = "\n".join(path.read_text(encoding="utf-8") for path in callers)
    return sorted(option for option in option_strings()
                  if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text))


def test_every_cli_option_has_a_caller():
    assert uncalled_options() == []


REMOVED_TRAIN_FLAGS = [("--heads", "2"), ("--diversity-weight", "0.1"), ("--folds", "3"),
                       ("--batch-size", "4"), ("--epochs", "1")]


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    """A tiny bundle and the config that made it, for the train commands."""
    root = tmp_path_factory.mktemp("flags")
    config = root / "run.json"
    config.write_text(json.dumps({
        "synthetic": {"seen_classes": 4, "unseen_classes": 2, "samples_per_class": 6,
                      "height": 3, "width": 3, "channels": 4, "semantic_dim": 4,
                      "attrs_per_class": 2},
        "train": {"epochs": 1, "head_count": 1, "hidden_channels": 2, "fold_count": 2,
                  "ddm_hidden": 4}}))
    bundle = root / "data.sdnb"
    assert main(["gen-synth", "--config", str(config), "--out", str(bundle)]) == 0
    return config, bundle


@pytest.mark.parametrize("command", ["train-setnet", "train-ddm"])
@pytest.mark.parametrize("flag, value", REMOVED_TRAIN_FLAGS)
def test_train_flags_that_copied_config_fields_are_refused(train_inputs, tmp_path, capsys,
                                                          command, flag, value):
    config, bundle = train_inputs
    out = tmp_path / "m.sdnc"
    capsys.readouterr()
    rc = main([command, "--bundle", str(bundle), "--config", str(config), "--out", str(out),
               flag, value])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"error: unrecognized arguments: {flag} {value}"]
