"""The package's export list names only what the package defines, and
the package defines every name the benchmark uses."""

import ast
from pathlib import Path

import spiked_pca as sp
import spiked_pca.cli  # noqa: F401  (makes sp.cli available)


def test_star_import_gives_every_exported_name():
    namespace = {}
    # raises AttributeError if an entry of __all__ names nothing
    exec("from spiked_pca import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(sp.__all__))
    assert len(sp.__all__) == len(set(sp.__all__))


def perfbench_names():
    """Every ``sp.<name>`` and ``sp.cli.<name>`` that the benchmark's sources use."""
    names = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
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
