"""The package's export list names only what the package defines, every
exported name has a caller, the package defines every name the benchmark
uses and every flag, field and module it reads, README's commands and
config file parse, its python tour names what exists and shows the
values the library returns, no module imports a name it leaves unused,
the package imports nothing but numpy and the standard library, and only
``fileio`` opens a file."""

import ast
import dataclasses
import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest

import spiked_pca as sp
import spiked_pca.cli  # noqa: F401  (makes sp.cli available)
from spiked_pca.cli import _build_parser
from spiked_pca.experiment import SWEEP_KINDS, SweepResult

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


def perfbench_module(name):
    """``perfbench/<name>.py`` imported without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_what_the_benchmark_reads_exists(tmp_path):
    # beyond names the benchmark passes CLI flags, reads model, config and
    # record fields, and wraps the layer modules, so dropping one of those
    # must fail here and not first in a benchmark run
    workloads, tracer = perfbench_module("workloads"), perfbench_module("tracer")
    pipeline = workloads.CsvPipeline()
    for argv in pipeline._argv(pipeline.make_inputs(0), str(tmp_path)):
        _build_parser().parse_args(argv)
    gt = sp.make_ground_truth(8, [1.0], 0.05, seed=1)
    data = sp.MaskedMatrix.complete(sp.sample_dataset(gt, 20, seed=2))
    model = sp.fit_ppca(data, sp.FitOptions(k=1))
    assert model.n_iterations > 0 and model.converged
    assert sp.FitOptions(k=1).k == 1
    cfg = sp.ExperimentConfig(sweep_kind="missing_rate", grid=(0.0,), n=20, d=8, norms=(1.0,),
                              noise_variance=0.05, repetitions=1, base_seed=1,
                              fit=sp.FitOptions(k=1))
    result = sp.run_sweep(cfg)
    (record,) = result
    assert isinstance(record, sp.CurveRecord) and result.failures == ()
    # workloads.py reads these fields by name and builds pooled records by position
    assert [f.name for f in dataclasses.fields(sp.CurveRecord)] == [
        "sweep_value", "component", "r2_mean", "r2_std", "n_reps", "theory_r2", "theory_alt_r2"
    ]
    assert [layer for layer in tracer.LAYERS if not hasattr(sp, layer)] == []


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
    # the sweep_kind line names every kind, so a kind cannot be added unseen
    (kinds,) = re.findall(r"^sweep_kind = (.*)$", block, flags=re.M)
    assert set(SWEEP_KINDS) <= set(re.findall(r"\w+", kinds))
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


def unused_imports(path):
    """``(line, name)`` of each import in ``path`` whose name the module
    never uses, skipping imports marked ``# noqa: F401``. ``import a.b``
    counts as used where the module spells out ``a.b``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                parts.append(node.attr)
            if isinstance(node.value, ast.Name):
                parts.append(node.value.id)
                used.add(".".join(reversed(parts)))
                used.update(".".join(reversed(parts[i:])) for i in range(1, len(parts)))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    # no linter is a dependency, so this is the unused-import check; the
    # package's __init__ imports to re-export
    paths = [path for path in sorted((ROOT / "src" / "spiked_pca").glob("*.py"))
             if path.name != "__init__.py"]
    for folder in ("tests", "demos", "perfbench"):
        paths += sorted((ROOT / folder).glob("*.py"))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths for line, name in unused_imports(path)]
    assert found == []


def test_only_numpy_is_required_at_runtime():
    # README promises it: every import of the package is relative, numpy or
    # the standard library, and numpy is the one declared dependency
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = []
    for path in sorted((ROOT / "src" / "spiked_pca").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {module}" for module in modules
                        if module.split(".")[0] not in allowed]
    assert foreign == []
    pyproject = (ROOT / "pyproject.toml").read_text()
    (dependencies,) = re.findall(r"^dependencies = \[(.*)\]$", pyproject, flags=re.M)
    assert re.findall(r'"([\w.-]+)', dependencies) == ["numpy"]


def test_only_fileio_opens_files():
    # one module opens, decodes and names the package's files, so a reader
    # elsewhere cannot bring back a second decode path
    opened = {path.name for path in sorted((ROOT / "src" / "spiked_pca").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Call) and (
                  isinstance(node.func, ast.Name) and node.func.id == "open"
                  or isinstance(node.func, ast.Attribute) and node.func.attr == "open")}
    assert opened == {"fileio.py"}
