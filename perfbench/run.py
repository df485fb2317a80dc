"""Benchmark of the spiked-pca package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload phase_sweep --seed 1 --trace 0

Workloads are defined in ``workloads.py``. A run repeats one unit (a
sweep or a CSV pipeline) in a closed loop, cycling through the
workload's fixed panel of input sets, starting at set ``--seed`` modulo
the panel size. It runs every set once and its first set twice, then
goes on while the next unit should end within ``--seconds`` (by default
``run_seconds`` of ``BENCHMARK.json``). Every repeat of a set must write
the same bytes as its first run. Output checks are applied to all sets
together. Each untraced unit is logged with its EM iterations, so that
work that differs between input sets can be told apart from a host
that runs the same work at a different speed.

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs the same loop traced (``tracer.py``), with the first set also run
untraced before and after its traced run, checks that the traced run writes the
untraced bytes, and reports the per-layer metrics. Human-readable
lines go first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, with the machine fingerprint, and the spans of a traced
run are written under ``.perfbench_out/``. The exit code is 0 when every
check passed, 1 when one failed, and 2 when the package is missing.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# one BLAS thread: the runs are steadier, and the sweeps' small products
# gain little from more
BLAS_THREADS = 1
# set-up probes before the first unit; one more follows every unit
SETUP_PROBES_FIRST = 3
# a correct fitter rarely stops at max_iterations on these workloads
# (none on the panels, one fit in 240 on other phase_sweep inputs); a cap
# on iterations that trades fit quality for speed leaves many unconverged
MAX_UNCONVERGED_SHARE = 0.05


class SetupError(Exception):
    pass


def pin_environment():
    """Pin BLAS threads and run sweep cells serially; return the old
    ``SPIKED_PCA_THREADS`` value for the fingerprint."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return os.environ.pop("SPIKED_PCA_THREADS", None)


def import_package():
    """Import the package from this checkout's ``src`` and the harness modules."""
    init = os.path.join(SRC, "spiked_pca", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no package source at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import spiked_pca

    if os.path.realpath(spiked_pca.__file__) != os.path.realpath(init):
        raise SetupError(f"imported spiked_pca from {spiked_pca.__file__}, not {init}")
    import tracer as tracing
    import workloads

    return spiked_pca, workloads, tracing


def warm_up(sp):
    """Run a tiny sweep and spectrum once, so lazy set-up is paid before timing."""
    cfg = sp.ExperimentConfig(
        sweep_kind="missing_rate", grid=(0.0, 0.5), n=30, d=20, norms=(1.0,),
        noise_variance=0.1, repetitions=1, base_seed=0, fit=sp.FitOptions(k=1),
    )
    sp.compare_hypotheses(sp.run_missing_rate_sweep(cfg), 0.0)
    sp.estimate_snr(sp.covariance_eigenvalues(sp.sample_dataset(
        sp.make_ground_truth(20, (1.0,), 0.1, 0), 30, 0)), 1)


def default_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return float(json.load(handle)["run_seconds"])


def probe_setup():
    """Seconds from process start to the first timed operation, in a fresh process.

    The probe prints the monotonic clock, which all processes share, when
    it is ready, so interpreter exit and the wait for it are not counted.
    """
    t0 = perf_counter()
    probe = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(probe.stdout.split()[-1]) - t0


def _blas_threads_reported(np):
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(np, spiked_pca_threads, workload, seed):
    """Machine part (must match to compare results) and run part."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_name": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_reported": _blas_threads_reported(np),
            "spiked_pca_threads": "unset" if spiked_pca_threads is None else spiked_pca_threads,
        },
        "run": {"git_commit": _git_commit(), "workload": workload, "seed": seed},
    }


def run_unit(workload, inputs, tracer=None):
    """Run one unit; return (wall seconds of the library call, UnitResult or None)."""
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="unit-") as workdir:
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            try:
                output = workload.run(inputs, workdir)
            finally:
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            return wall, workload.finish(inputs, output, workdir)
        except Exception:
            # a failed unit is counted, not fatal
            traceback.print_exc()
            return wall, None


class Ledger:
    """Operations attempted and failed, and the output checks behind them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines = []

    def unit(self, result):
        if result is None:
            self.attempted += 1
            self.failed += 1
        else:
            self.attempted += result.ops
            self.failed += result.failed_ops

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.lines.append(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")

    def repeat(self, first, s, result, name):
        """Keep the first result of set ``s``; check that later ones match it."""
        if result is None:
            return
        if s in first:
            self.check(name, result.digest == first[s].digest, result.digest[:16])
        else:
            first[s] = result


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_order(seed, p):
    """The panel's set indices in the order a run with this seed visits them."""
    return [(seed + i) % p for i in range(p)]


def measure(sp, tracing, workload, inputs, order, seconds, ledger):
    """Untraced closed loop.

    Every unit counts its EM iterations through a wrapper on
    ``fit_ppca`` alone, one call per fit. After every unit, untimed, a
    set-up probe runs, so the probes sample the same stretch of time as
    the units. Returns one row per unit (set, wall seconds, EM
    iterations, fits, fits stopped at ``max_iterations``), the set-up
    times and the first result per set.
    """
    p = len(order)
    units = []
    setup_times = [probe_setup() for _ in range(SETUP_PROBES_FIRST)]
    first = {}
    start = perf_counter()
    while len(units) < p + 1 or (
            perf_counter() - start + statistics.median(u["wall_s"] for u in units) <= seconds):
        s = order[len(units) % p]
        counter = tracing.Tracer(sp, only={"ppca.fit_ppca"})
        wall, res = run_unit(workload, inputs[s], counter)
        ledger.unit(res)
        ledger.repeat(first, s, res,
                      f"set {s} run {len(units) // p + 1} writes the bytes of its first run")
        units.append({"set": s, "wall_s": wall, "iterations": counter.iterations(),
                      "fits": len(counter.fits), "unconverged": counter.unconverged()})
        setup_times.append(probe_setup())
    return units, setup_times, first


def measure_traced(sp, tracing, workload, inputs, order, seconds, ledger):
    """The first set untraced, traced and untraced again, then the other
    sets traced in a closed loop, under the stopping rule of :func:`measure`.

    Returns per-unit layer metrics, fit times, the tracing overhead (the
    traced wall time of the first set minus the mean of its two untraced
    runs), the first traced result per set and the spans.
    """
    p = len(order)
    s0 = order[0]
    wall_before, res_u = run_unit(workload, inputs[s0])
    ledger.unit(res_u)
    per_unit, fit_ms, spans = [], [], []
    first = {}
    overhead = None
    start = perf_counter()
    i = 0
    while i < p or (perf_counter() - start
                    + statistics.median(u["trace.wall_s"] for u in per_unit) <= seconds):
        s = order[i % p]
        tracer = tracing.Tracer(sp)
        wall_t, res_t = run_unit(workload, inputs[s], tracer)
        ledger.unit(res_t)
        if i == 0:
            wall_after, res_after = run_unit(workload, inputs[s0])
            ledger.unit(res_after)
            overhead = wall_t - (wall_before + wall_after) / 2
            if res_u is not None:
                first[s0] = res_u
            ledger.repeat(first, s0, res_after, f"set {s0} untraced rerun writes the same bytes")
        ledger.repeat(first, s, res_t, f"set {s} traced run {i // p + 1} writes the untraced bytes"
                      if s == s0 else f"set {s} traced run {i // p + 1} writes the bytes of its first run")
        metrics, unit_fit_ms = tracer.layer_metrics(wall_t, workload.below_threshold(inputs[s]))
        if res_t is not None:
            failures = res_t.data.get("failures")
            metrics["experiment.cells"] = res_t.ops if failures is not None else 0
            metrics["experiment.failed_cells"] = len(failures) if failures is not None else 0
        per_unit.append(metrics)
        fit_ms.extend(unit_fit_ms)
        spans.extend(tracer.span_rows(i))
        i += 1
    return per_unit, fit_ms, overhead, first, spans


def apply_checks(workload, inputs, first, ledger):
    """Workload checks over all sets; returns the workload's quality numbers."""
    if len(first) < len(inputs):
        ledger.check("every input set completed", False, f"{len(first)} of {len(inputs)}")
        return {}
    ordered = [first[s] for s in range(len(inputs))]
    try:
        for name, ok, detail in workload.checks(inputs, ordered):
            ledger.check(name, ok, detail)
        return workload.quality(inputs, ordered)
    except Exception as exc:
        traceback.print_exc()
        ledger.check("output checks ran", False, repr(exc))
        return {}


def check_converged(ledger, fits, unconverged):
    ledger.check(f"at most {MAX_UNCONVERGED_SHARE:.0%} of fits stop at max_iterations",
                 unconverged <= MAX_UNCONVERGED_SHARE * fits, f"{unconverged} of {fits} fits")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload on small inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spiked_pca_threads = pin_environment()
    try:
        sp, workloads, tracing = import_package()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warm_up(sp)
    if args.setup_probe:
        print(perf_counter())
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import numpy as np

    seconds = default_seconds() if args.seconds is None else args.seconds
    workload = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    inputs = [workload.make_inputs(i) for i in range(workload.input_sets)]
    order = run_order(args.seed, len(inputs))
    fp = fingerprint(np, spiked_pca_threads, args.workload, args.seed)
    ledger = Ledger()
    info = {}

    if args.trace:
        per_unit, fit_ms, overhead, first, spans = measure_traced(
            sp, tracing, workload, inputs, order, seconds, ledger)
        check_converged(ledger, len(fit_ms), sum(u["ppca.unconverged"] for u in per_unit))
        quality = apply_checks(workload, inputs, first, ledger)
        values = {key: statistics.fmean(u.get(key, 0) for u in per_unit) for key in per_unit[0]}
        values.update({
            "ppca.fit_ms.p50": _percentile(fit_ms, 50) if fit_ms else 0.0,
            "ppca.fit_ms.p90": _percentile(fit_ms, 90) if fit_ms else 0.0,
            "ppca.fit_ms.samples": len(fit_ms),
            "experiment.rmse_snr": quality.get("rmse_snr", 0.0),
            "experiment.onset_rel_err": quality.get("onset_rel_err", 0.0),
            "trace.overhead_s": overhead,
            "trace.units": len(per_unit),
        })
        metrics = {key: _metric(values.get(key, 0.0), unit) for key, unit in tracing.UNITS.items()}
        os.makedirs(OUT, exist_ok=True)
        span_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
        with open(span_path, "w") as handle:
            for row in spans:
                handle.write(json.dumps(row) + "\n")
        info["spans_file"] = span_path
    else:
        units, setup_times, first = measure(sp, tracing, workload, inputs, order, seconds, ledger)
        check_converged(ledger, sum(u["fits"] for u in units), sum(u["unconverged"] for u in units))
        quality = apply_checks(workload, inputs, first, ledger)
        walls = {}
        for u in units:
            walls.setdefault(u["set"], []).append(u["wall_s"])
        # each set weighs the same however often the loop reached it
        wall_s = statistics.fmean(statistics.median(w) for w in walls.values())
        sample = next(iter(first.values()), None)
        fits = sample.fits if sample else 0
        cells = sample.matrix_cells if sample else 0
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "wall_s": _metric(wall_s, "s"),
            "fits_per_s": _metric(fits / wall_s, "1/s"),
            "mcells_per_s": _metric(cells / wall_s / 1e6, "Mcells/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info.update(units=units, setup_times=setup_times)

    correct = ledger.failed == 0
    for key, value in fp["machine"].items():
        print(f"fingerprint {key} = {value}")
    for key, value in fp["run"].items():
        print(f"fingerprint {key} = {value}")
    for i, u in enumerate(info.get("units", ())):
        per_iter = f", {u['wall_s'] * 1e3 / u['iterations']:.3f} ms per iteration" if u["iterations"] else ""
        print(f"unit {i} set {u['set']}: {u['wall_s']:.3f} s, {u['iterations']} EM iterations{per_iter}")
    for line in ledger.lines:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"metric failed_frac = {ledger.failed / max(ledger.attempted, 1):.6g} ratio "
              f"(base: {ledger.attempted} operations = fitted cells or CLI commands, "
              f"plus output checks)")
        print("metric rmse_snr = " + (f"{quality['rmse_snr']:.6g} R2 (m >= 0.3)"
                                      if "rmse_snr" in quality else "n/a on this workload"))
        print("metric onset_rel_err = " + (f"{quality['onset_rel_err']:.6g} ratio"
                                           if "onset_rel_err" in quality else "n/a on this workload"))

    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"fingerprint": fp, "result": result, "quality": quality,
                   "checks": ledger.lines, "info": info}, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
