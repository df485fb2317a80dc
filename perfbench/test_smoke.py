"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It runs from the repository root and is not part of the package's
test suite, which collects ``tests/`` only.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

# end-to-end numbers the benchmark prints by name but keeps out of the
# result object (see CHANGES.md): they are zero or undefined on some
# workloads, or too seed-dependent for a bound
PRINTED_ONLY = ("failed_frac", "rmse_snr", "onset_rel_err")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run([RUN, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny"])
    # tiny inputs are too small for the statistical output checks, so a
    # failed check (exit 1) is allowed here; a crash is not
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0) == (proc.returncode == 0)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} = " in proc.stdout
    if not trace:
        for name in PRINTED_ONLY:
            assert f"metric {name} = " in proc.stdout


def test_refuses_without_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_other_machine(tmp_path):
    def result(nproc):
        return {"fingerprint": {"machine": {"nproc": nproc}, "run": {"workload": "w"}},
                "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}

    paths = []
    for i, nproc in enumerate((2, 4)):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(result(nproc)))
        paths.append(str(path))
    assert _run([os.path.join(HERE, "compare.py"), paths[0], paths[0]]).returncode == 0
    proc = _run([os.path.join(HERE, "compare.py"), *paths])
    assert proc.returncode == 2
    assert "nproc" in proc.stderr


def test_fit_flops_counts_the_closing_estep(monkeypatch):
    monkeypatch.syspath_prepend(HERE)
    from tracer import fit_flops

    n, d, k = 10, 20, 2
    estep = n * d * (2 * k * k + 2 * k)
    # every fit, converged or not, ends with one E-step that has no M-step
    assert fit_flops(n, d, k, 0) == estep
    assert fit_flops(n, d, k, 3) - fit_flops(n, d, k, 2) == n * d * (4 * k * k + 6 * k)
