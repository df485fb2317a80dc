"""The package's export list names only what the package defines, every
exported name has a caller, the package defines every name the benchmark
uses, README's commands and config file parse, and its python tour names
what exists and shows the values the library returns."""

import ast
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

import spiked_pca as sp
import spiked_pca.cli  # noqa: F401  (makes sp.cli available)
from spiked_pca.cli import _build_parser
from spiked_pca.experiment import SweepResult

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_gives_every_exported_name():
    namespace = {}
    # raises AttributeError if an entry of __all__ names nothing
    exec("from spiked_pca import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(sp.__all__))
    assert len(sp.__all__) == len(set(sp.__all__))


def test_every_exported_name_has_a_caller():
    # a package-level name needs a caller in the CLI, the benchmark, a demo
    # or the README tour
    paths = [ROOT / "src" / "spiked_pca" / "cli.py", ROOT / "README.md",
             *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
    text = "\n".join(path.read_text() for path in paths)
    assert [name for name in sp.__all__ if not re.search(rf"\b{name}\b", text)] == []


def perfbench_names():
    """Every ``sp.<name>`` and ``sp.cli.<name>`` that the benchmark's sources use."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "sp":
                names.add(node.attr)
            elif (isinstance(owner, ast.Attribute) and owner.attr == "cli"
                  and isinstance(owner.value, ast.Name) and owner.value.id == "sp"):
                names.add(f"cli.{node.attr}")
    return names


def test_every_name_the_benchmark_uses_exists():
    # the benchmark runs the package from outside its tests, so a name
    # removed here would otherwise only show when a benchmark run fails
    names = perfbench_names()
    assert {"ExperimentConfig", "cli.cli_main"} <= names  # the scan finds both forms
    missing = [name for name in sorted(names)
               if not hasattr(sp.cli if name.startswith("cli.") else sp, name.split(".")[-1])]
    assert missing == []
    assert sp.run_missing_rate_sweep is sp.run_snr_sweep is sp.run_sweep


def readme_blocks(language):
    """The bodies of README's fenced code blocks in ``language``."""
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def readme_commands():
    """The arguments of each ``spiked-pca`` line in README's shell blocks."""
    lines = "\n".join(readme_blocks("sh")).splitlines()
    return [shlex.split(line, comments=True)[1:]
            for line in lines if line.startswith("spiked-pca ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_parse(argv):
    # a flag removed from the CLI cannot stay in README
    _build_parser().parse_args(argv)


def test_readme_config_reads(tmp_path):
    (block,) = readme_blocks("ini")
    path = tmp_path / "exp.ini"
    path.write_text(block)
    sp.read_experiment_config(str(path))
    # each optional key, once uncommented, is still a key the reader knows
    optional = re.findall(r"^# (\w+ = .*)$", block, flags=re.M)
    assert len(optional) >= 2
    for line in optional:
        path.write_text(block + line + "\n")
        sp.read_experiment_config(str(path))


def test_readme_tour_names_exist_and_values_hold():
    (block,) = readme_blocks("python")
    used = {"sp": set(), "result": set()}
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.get(node.value.id, set()).add(node.attr)
    assert [name for name in sorted(used["sp"]) if not hasattr(sp, name)] == []
    fields = {f.name for f in dataclasses.fields(SweepResult)}
    unknown = [a for a in sorted(used["result"]) if a not in fields and not hasattr(SweepResult, a)]
    assert used["result"] and unknown == []
    # each `call   # 0.123...` line: the call returns a value with those leading digits
    shown = re.findall(r"^(sp\.\w+\(.*\))\s+# (\d\.\d+)\.\.\.$", block, flags=re.M)
    assert len(shown) == 2
    for call, digits in shown:
        assert repr(eval(call, {"sp": sp})).startswith(digits), call
