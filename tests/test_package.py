"""The package surface: the lazy ``setnet`` namespace, the README's Library
example and CLI walkthrough, and the process entry of the CLI with its
garbage-collector policy.

``import setnet`` loads neither numpy nor a submodule; each public name
imports its home module when it is first read. The CLI's process entry
(``setnet.cli.run``, called by ``python -m setnet.cli`` and by the installed
``setnet`` script) freezes the objects its imports made before the command
runs, while ``main(argv)`` called in process leaves the collector as it was.
"""

import ast
import gc
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import setnet
from setnet.cli import main, run

ROOT = Path(__file__).resolve().parents[1]
CLI = Path(setnet.__file__).with_name("cli.py")


def _child_env() -> dict:
    """The environment of a child that imports the same package the tests do,
    installed or not."""
    package_root = os.path.dirname(os.path.dirname(setnet.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def _child(script: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.strip().splitlines()[-3:]
    return proc.stdout


# ---------------------------------------------------------------------------
# the lazy namespace

def test_import_setnet_loads_no_numpy_and_no_submodule():
    out = _child("import sys, setnet\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
                 " or m.startswith('setnet.')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", setnet.__all__)
def test_public_name_is_its_home_module_attribute(name):
    value = getattr(setnet, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("setnet.")
    assert getattr(home, name) is value


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        setnet.no_such_name


def test_submodules_import_through_the_package():
    from setnet import dataio, pipeline
    assert isinstance(dataio, types.ModuleType) and dataio.__name__ == "setnet.dataio"
    assert isinstance(pipeline, types.ModuleType) and pipeline.__name__ == "setnet.pipeline"
    assert setnet.classify_gzsl is pipeline.classify_gzsl


# ---------------------------------------------------------------------------
# the README's Library example, exactly as written

def readme_library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(readme_library_block(), "README.md (Library)", "exec"), namespace)
    assert namespace["pred"].shape == (1,)
    assert namespace["preds"].shape == (namespace["bundle"].test_indices().size,)
    assert namespace["pred"][0] in set(namespace["bundle"].table.class_ids.tolist())


# ---------------------------------------------------------------------------
# the README's CLI walkthrough, exactly as written

def readme_cli_lines() -> list[list[str]]:
    """The argv, after ``setnet``, of each line of the CLI walkthrough's block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI walkthrough\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```\n(.*?)^```", section, flags=re.S | re.M)
    assert len(blocks) == 1, "the CLI walkthrough holds one command block"
    return [shlex.split(line)[1:] for line in blocks[0].splitlines() if line.startswith("setnet ")]


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """Each command runs through ``main`` in a fresh directory, in order, with
    ``configs/default.json`` given by its absolute path, and exits 0: a flag
    the README names that the CLI no longer takes, or a required flag it
    leaves out, fails here."""
    config = str(ROOT / "configs" / "default.json")
    lines = readme_cli_lines()
    assert [argv[0] for argv in lines] == ["gen-synth", "train-setnet", "train-setnet", "train-ddm",
                                           "calibrate", "eval-zsl", "eval-gzsl", "eval-ood"]
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        argv = [config if a == "configs/default.json" else a for a in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)


# ---------------------------------------------------------------------------
# the process entry and the collector

def test_in_process_main_leaves_the_collector_alone(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"synthetic": {"seen_classes": 2, "unseen_classes": 1, '
                   '"samples_per_class": 4, "channels": 4, "semantic_dim": 4, '
                   '"attrs_per_class": 2}}')
    argv = ["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "d.sdnb")]
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(argv) == 0
            assert main(["no-such-command"]) == 2
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_module_entry_collects_nothing_before_the_freeze(tmp_path):
    """Run as ``__main__``, the CLI imports numpy and its own modules with the
    collector off, freezes what the imports made, and runs the command with
    the collector on. A collection that starts once numpy is loaded but
    before the freeze would be one the entry should have prevented."""
    script = (
        "import atexit, gc, runpy, sys\n"
        "early = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and 'numpy' in sys.modules"
        " and gc.get_freeze_count() == 0 and early.append(info['generation']))\n"
        "atexit.register(lambda: print(early, gc.isenabled(), gc.get_freeze_count() > 0))\n"
        "sys.argv = ['setnet', *sys.argv[1:]]\n"
        "runpy.run_module('setnet.cli', run_name='__main__', alter_sys=True)\n")
    cfg = tmp_path / "run.json"
    cfg.write_text('{"synthetic": {"seed": 1}}')
    out = _child(script, "gen-synth", "--config", str(cfg), "--out", str(tmp_path / "d.sdnb"))
    assert out.splitlines() == ["wrote bundle to " + str(tmp_path / "d.sdnb"), "[] True True"]


def test_imported_cli_keeps_the_collector_on():
    out = _child("import gc, setnet.cli\nprint(gc.isenabled(), gc.get_freeze_count())")
    assert out.split() == ["True", "0"]


def _main_block_call(tree: ast.Module) -> str:
    """The function the ``if __name__ == "__main__":`` block passes to sys.exit."""
    last = tree.body[-1]
    assert isinstance(last, ast.If) and ast.unparse(last.test) == "__name__ == '__main__'"
    (stmt,) = last.body
    assert ast.unparse(stmt.value.func) == "sys.exit"
    return stmt.value.args[0].func.id


def test_installed_script_and_module_share_one_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
        "project"]["scripts"]
    assert scripts == {"setnet": "setnet.cli:run"}
    entry = _main_block_call(ast.parse(CLI.read_text(encoding="utf-8")))
    assert entry == "run" and callable(run)
