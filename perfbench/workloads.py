"""The benchmark's workloads.

Each workload is one closed-loop caller: it runs one unit (a sweep or a
CSV pipeline) at a time in one process and starts the next only when the
previous one has returned. A unit's inputs are generated from the index
of an input set in a fixed panel, and the library receives only those
generated inputs. The panel is the same at every workload seed, which
only sets the order in which a run goes through it: the EM iterations of
one paper-scale sweep differ by about 12% between input sets, so with
inputs drawn per seed the work of a run, as much as the speed of the
host, set its time. Sweep cells run serially.

A workload provides:

* ``input_sets`` -- how many distinct input sets a run cycles through;
* ``make_inputs(index)`` -- the inputs of one set of the panel;
* ``run(inputs, workdir)`` -- the timed call, returning its raw output;
* ``finish(inputs, output, workdir)`` -- untimed: a :class:`UnitResult`
  with the output digest used by the determinism check;
* ``checks(inputs_list, results)`` -- output checks over all sets;
* ``quality(inputs_list, results)`` -- the workload's fit-quality numbers;
* ``below_threshold(inputs)`` -- per fit, in call order, whether the
  leading component is not clearly detectable.
"""

import contextlib
import hashlib
import io
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import spiked_pca as sp
import spiked_pca.cli  # noqa: F401  (makes sp.cli available)

# criterion 1 of the acceptance suite calls a cell clearly above the
# transition when alpha*((1-m)S)^2 >= 2 and clearly below when <= 0.5
ABOVE_MARGIN = 2.0
BELOW_MARGIN = 0.5
# pooled r2_mean must sit within the criterion-1 bound plus this many
# standard errors of the pooled mean; see ``MissingRateSweep.checks``
CHECK_STDERRS = 4.0
# ceiling on the pooled RMSE against the reduced-SNR curve over every
# above-margin cell of both components. Over 1000 pools of 5 of 15
# correct paper-scale sweeps it was at most 0.033; with EM capped at 12
# iterations it was at least 0.052, as the weaker component then stops
# short of its theory curve for m >= 0.3
RMSE_ABOVE_CEILING = 0.045


def input_seeds(index, count=1):
    """``count`` seeds of input set ``index`` of the panel."""
    state = np.random.SeedSequence([0, int(index)]).generate_state(count)
    return [int(v) for v in state]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class UnitResult:
    ops: int  # lattice cells fitted, or CLI commands run
    failed_ops: int
    digest: str
    fits: int
    matrix_cells: int  # data-matrix cells pushed through the unit
    data: dict = field(default_factory=dict)


def _margin(alpha, snr, m):
    return alpha * ((1.0 - m) * snr) ** 2


def _pooled_curve(results, component):
    """One component's curve over all input sets.

    Returns the sweep values, an (input sets x values) array of r2_mean
    with NaN where a set has no record (its cell failed), and the two
    theory curves.
    """
    by_value = {}
    for i, res in enumerate(results):
        for r in res.data["records"]:
            if r.component == component:
                # the SNR sweep derives its values from each set's own
                # directions, so equal cells can differ in the last bits
                key = float(f"{r.sweep_value:.9g}")
                by_value.setdefault(key, (r, {}))[1][i] = r.r2_mean
    values = sorted(by_value)
    rows = np.full((len(results), len(values)), np.nan)
    for j, v in enumerate(values):
        for i, r2 in by_value[v][1].items():
            rows[i, j] = r2
    theory = np.array([by_value[v][0].theory_r2 for v in values])
    theory_alt = np.array([by_value[v][0].theory_alt_r2 for v in values])
    return np.array(values), rows, theory, theory_alt


class _Sweep:
    """Shared unit mechanics of the two sweep workloads."""

    def finish(self, inputs, result, workdir):
        path = os.path.join(workdir, "curve.csv")
        sp.write_curve_csv(result, path)
        digest = sha256_file(path)
        os.remove(path)
        cells = len(inputs.grid) * inputs.repetitions
        return UnitResult(
            ops=cells,
            failed_ops=len(result.failures),
            digest=digest,
            fits=cells,
            matrix_cells=cells * inputs.n * inputs.d,
            data={"records": list(result), "failures": list(result.failures)},
        )

    def _no_failed_cells(self, results):
        failed = sum(len(r.data["failures"]) for r in results)
        return ("no failed cells", failed == 0, f"{failed} failed cells")


class MissingRateSweep(_Sweep):
    """The paper's headline sweep: alignment against the missing rate."""

    name = "phase_sweep"
    input_sets = 5
    grid = tuple(float(m) for m in np.linspace(0.0, 0.80, 17)) + (0.93, 0.95, 0.96)
    min_m = 0.3

    def __init__(self, tiny=False):
        self.n, self.d = (40, 60) if tiny else (400, 600)

    def make_inputs(self, index):
        return sp.ExperimentConfig(
            sweep_kind="missing_rate",
            grid=self.grid,
            n=self.n,
            d=self.d,
            norms=(1.0, 0.5),
            noise_variance=0.05,
            repetitions=1,
            base_seed=input_seeds(index)[0],
            fit=sp.FitOptions(k=2),
        )

    def run(self, inputs, workdir):
        return sp.run_missing_rate_sweep(inputs)

    def below_threshold(self, inputs):
        alpha = inputs.n / inputs.d
        s1 = inputs.norms[0] ** 2 / inputs.noise_variance
        flags = [_margin(alpha, s1, m) < ABOVE_MARGIN for m in inputs.grid]
        return flags * inputs.repetitions

    def _pooled_records(self, results):
        """CurveRecords whose r2_mean is pooled over all input sets."""
        pooled = []
        for comp in (1, 2):
            values, rows, theory, theory_alt = _pooled_curve(results, comp)
            counts = np.sum(~np.isnan(rows), axis=0)
            for v, r2, n, th, alt in zip(values, np.nanmean(rows, axis=0), counts, theory, theory_alt):
                pooled.append(sp.CurveRecord(float(v), comp, float(r2), 0.0, int(n), th, alt))
        return pooled

    def quality(self, inputs_list, results):
        rmse_snr, rmse_sample = sp.compare_hypotheses(self._pooled_records(results), self.min_m)
        cfg = inputs_list[0]
        errors = []
        for comp, norm in ((1, cfg.norms[0]), (2, cfg.norms[1])):
            values, rows, theory, _ = _pooled_curve(results, comp)
            above = _margin(cfg.n / cfg.d, norm ** 2 / cfg.noise_variance, values) >= ABOVE_MARGIN
            errors.extend((np.nanmean(rows, axis=0) - theory)[above])
        rmse_above = math.sqrt(statistics.fmean(e * e for e in errors)) if errors else math.inf
        return {"rmse_snr": rmse_snr, "rmse_sample": rmse_sample, "rmse_snr_above": rmse_above}

    def checks(self, inputs_list, results):
        """Criterion 1 and 3 of the acceptance suite on the pooled curve.

        The acceptance suite applies the criterion-1 bounds to one pinned
        seed. Across arbitrary panels a correct fitter misses the fixed
        bounds on about one panel in eight at five pooled repetitions,
        mostly in cells just above the margin, where at D=600 single fits
        are bimodal: at m=0.65 the second component (margin 2.04) lands
        below R^2 = 0.1 in about one fit in five and near 0.3 otherwise,
        and refits from other starts reach the same optimum. So each
        bound is widened by ``CHECK_STDERRS`` standard errors of the
        pooled mean, and one cell above the margin may still exceed it,
        since four sets that all land low give a small standard error.
        A fitter that stops tracking the theory exceeds the bound in
        many cells. A fitter that stops early tracks it loosely in the
        weaker component, which the ceiling on ``rmse_snr_above`` catches.
        """
        cfg = inputs_list[0]
        alpha = cfg.n / cfg.d
        over_above = []
        worst_below = -math.inf
        n_above = n_below = 0
        for comp, norm in ((1, cfg.norms[0]), (2, cfg.norms[1])):
            snr = norm ** 2 / cfg.noise_variance
            values, rows, theory, _ = _pooled_curve(results, comp)
            counts = np.sum(~np.isnan(rows), axis=0)
            mean = np.nanmean(rows, axis=0)
            spread = np.nanstd(rows, axis=0, ddof=1) if len(rows) > 1 else np.zeros_like(mean)
            se = np.nan_to_num(spread) / np.sqrt(counts)
            margin = _margin(alpha, snr, values)
            above = margin >= ABOVE_MARGIN
            below = margin <= BELOW_MARGIN
            n_above += int(above.sum())
            n_below += int(below.sum())
            excess = np.abs(mean - theory) - 0.08 - CHECK_STDERRS * se
            over_above += [float(e) for e in excess[above] if e > 0.0]
            if below.any():
                excess = mean - 0.05 - CHECK_STDERRS * se
                worst_below = max(worst_below, float(excess[below].max()))
        q = self.quality(inputs_list, results)
        return [
            self._no_failed_cells(results),
            ("criterion 1 above margin", n_above > 0 and len(over_above) <= 1,
             f"{len(over_above)} of {n_above} cells over the |r2_mean - theory| bound "
             f"(at most 1 allowed), excess {max(over_above, default=0.0):.4f}"),
            ("criterion 1 below margin", n_below > 0 and worst_below <= 0.0,
             f"{n_below} cells, worst excess over r2_mean bound {worst_below:.4f}"),
            ("rmse_snr < rmse_sample", q["rmse_snr"] < q["rmse_sample"],
             f"{q['rmse_snr']:.4f} vs {q['rmse_sample']:.4f}"),
            (f"rmse_snr over above-margin cells <= {RMSE_ABOVE_CEILING}",
             q["rmse_snr_above"] <= RMSE_ABOVE_CEILING, f"{q['rmse_snr_above']:.4f}"),
        ]


class SnrOnsetSweep(_Sweep):
    """Added-noise sweep through the detection onset at a fixed missing rate."""

    name = "snr_onset"
    input_sets = 6
    missing_rate = 0.5
    noise_variance = 0.05

    def __init__(self, tiny=False):
        self.n, self.d = (80, 40) if tiny else (800, 400)
        # ratios from 0.4 up to 20, dense (11% steps) through the onset window
        targets = [0.4 * 1.11 ** k for k in range(16)] + [2.5, 4.0, 8.0, 20.0]
        self.grid = tuple(sorted(max(1.0 / s - self.noise_variance, 0.0) for s in targets))

    def make_inputs(self, index):
        return sp.ExperimentConfig(
            sweep_kind="snr_via_added_noise",
            grid=self.grid,
            n=self.n,
            d=self.d,
            norms=(1.0,),
            noise_variance=self.noise_variance,
            repetitions=1,
            base_seed=input_seeds(index)[0],
            fit=sp.FitOptions(k=1),
            fixed_missing_rate=self.missing_rate,
        )

    def run(self, inputs, workdir):
        return sp.run_snr_sweep(inputs)

    def below_threshold(self, inputs):
        alpha = inputs.n / inputs.d
        flags = [
            _margin(alpha, inputs.norms[0] ** 2 / (inputs.noise_variance + s2a),
                    inputs.fixed_missing_rate) < ABOVE_MARGIN
            for s2a in inputs.grid
        ]
        return flags * inputs.repetitions

    def quality(self, inputs_list, results):
        cfg = inputs_list[0]
        values, rows, _, _ = _pooled_curve(results, 1)
        mean = np.nanmean(rows, axis=0)
        above = np.flatnonzero(mean > 0.1)
        onset = float(values[above[0]]) if above.size else math.inf
        target = 1.0 / ((1.0 - cfg.fixed_missing_rate) * math.sqrt(cfg.n / cfg.d))
        return {"onset": onset, "onset_target": target,
                "onset_rel_err": abs(onset - target) / target}

    def checks(self, inputs_list, results):
        q = self.quality(inputs_list, results)
        return [
            self._no_failed_cells(results),
            ("onset_rel_err <= 0.3", q["onset_rel_err"] <= 0.3,
             f"onset S={q['onset']:.3f} vs {q['onset_target']:.3f}"),
        ]


class CsvPipeline:
    """``generate -> snr -> mask -> fit`` through the in-process CLI."""

    name = "csv_pipeline"
    # two sets of 25000 rows, not one of 50000: the tall fit's
    # memory-bound iterations vary most with the host, and more units in
    # a run average them
    input_sets = 2
    norms = (1.0, 0.5)
    noise_variance = 0.05
    missing_rate = 0.3
    k = 2
    # relative tolerances against the generator's truth; the sampling
    # error at 25000 rows is about 1% for S and 0.2% for sigma^2
    snr_tolerance = 0.05
    sigma2_tolerance = 0.02

    def __init__(self, tiny=False):
        self.n, self.d = (500, 20) if tiny else (25_000, 50)

    def make_inputs(self, index):
        generate, mask, fit = input_seeds(index, 3)
        return {"generate_seed": generate, "mask_seed": mask, "fit_seed": fit}

    def _argv(self, inputs, workdir):
        data = os.path.join(workdir, "data.csv")
        masked = os.path.join(workdir, "masked.csv")
        model = os.path.join(workdir, "model.csv")
        norms = ",".join(str(v) for v in self.norms)
        return [
            ["generate", "--n", str(self.n), "--d", str(self.d), "--norms", norms,
             "--noise-var", str(self.noise_variance), "--seed", str(inputs["generate_seed"]),
             "--out", data],
            ["snr", "--in", data, "--k", str(self.k)],
            ["mask", "--rate", str(self.missing_rate), "--seed", str(inputs["mask_seed"]),
             "--in", data, "--out", masked],
            ["fit", "--k", str(self.k), "--seed", str(inputs["fit_seed"]),
             "--in", masked, "--out", model],
        ]

    def run(self, inputs, workdir):
        out = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(out):
            for argv in self._argv(inputs, workdir):
                codes.append(sp.cli.cli_main(argv))
        return codes, out.getvalue()

    def below_threshold(self, inputs):
        alpha = self.n / self.d
        s1 = self.norms[0] ** 2 / self.noise_variance
        return [_margin(alpha, s1, self.missing_rate) < ABOVE_MARGIN]

    def finish(self, inputs, output, workdir):
        codes, text = output
        names = ("data.csv", "data.csv.truth.csv", "masked.csv", "model.csv")
        h = hashlib.sha256()
        for name in names:
            path = os.path.join(workdir, name)
            h.update(sha256_file(path).encode() if os.path.exists(path) else b"missing")
        masked = os.path.join(workdir, "masked.csv")
        empty = total = 0
        if os.path.exists(masked):
            with open(masked, "rb") as handle:
                for line in handle:
                    cells = line.rstrip(b"\n").split(b",")
                    total += len(cells)
                    empty += cells.count(b"")
        values = {}
        for line in text.splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                values[key.strip()] = value.strip()
        for name in names:
            path = os.path.join(workdir, name)
            if os.path.exists(path):
                os.remove(path)
        return UnitResult(
            ops=len(codes),
            failed_ops=sum(1 for c in codes if c != 0),
            digest=h.hexdigest(),
            fits=1,
            matrix_cells=len(codes) * self.n * self.d,
            data={"codes": codes, "empty": empty, "total": total, "printed": values},
        )

    def quality(self, inputs_list, results):
        return {}

    def checks(self, inputs_list, results):
        snr_true = [v ** 2 / self.noise_variance for v in self.norms]
        out = []
        for i, res in enumerate(results):
            d = res.data
            out.append((f"set {i}: every command exits 0", all(c == 0 for c in d["codes"]),
                        f"exit codes {d['codes']}"))
            total = d["total"]
            p = 1.0 - self.missing_rate
            observed = (total - d["empty"]) / total if total else 0.0
            sigma = math.sqrt(p * (1.0 - p) / total) if total else 1.0
            out.append((f"set {i}: observed fraction within 4 binomial sigma",
                        abs(observed - p) <= 4.0 * sigma,
                        f"{observed:.5f} vs {p} (sigma {sigma:.2e})"))
            printed = d["printed"]
            try:
                snr_hat = [float(printed[f"S_{j + 1}"]) for j in range(self.k)]
                sigma2_hat = float(printed["sigma2"])
            except (KeyError, ValueError):
                out.append((f"set {i}: snr and fit print their estimates", False, repr(printed)))
                continue
            snr_err = max(abs(a - b) / b for a, b in zip(snr_hat, snr_true))
            out.append((f"set {i}: snr estimates within {self.snr_tolerance:.0%}",
                        snr_err <= self.snr_tolerance, f"S_hat={snr_hat} vs {snr_true}"))
            s2_err = abs(sigma2_hat - self.noise_variance) / self.noise_variance
            out.append((f"set {i}: fitted sigma2 within {self.sigma2_tolerance:.0%}",
                        s2_err <= self.sigma2_tolerance,
                        f"{sigma2_hat} vs {self.noise_variance}"))
        return out


WORKLOADS = {w.name: w for w in (MissingRateSweep, SnrOnsetSweep, CsvPipeline)}
