"""Layer tracing from outside the package.

A :class:`Tracer` wraps every public function of the package's layer
modules and swaps the wrapper into each namespace that looks the name
up, so calls between modules (``experiment`` calling ``fit_ppca``, the
CLI calling ``read_masked_csv``) go through it. Each call becomes a span
(name, start, end, parent). Spans stay in memory; :meth:`Tracer.layer_metrics`
folds them into per-layer numbers and :meth:`Tracer.span_rows` gives them
for writing out when the run ends. Nothing in the package changes, and
uninstalling restores every original binding.
"""

import inspect
import os
from time import perf_counter

LAYERS = ("theory", "synthetic", "masked", "ppca", "metrics", "experiment", "fileio", "cli")

# every per-layer metric a traced run reports, with its unit
UNITS = {
    "ppca.iterations": "count",
    "ppca.iterations.below_threshold": "count",
    "ppca.ms_per_iter": "ms",
    "ppca.gflop_computed": "GFLOP",
    "ppca.fit_s": "s",
    "ppca.fit_ms.p50": "ms",
    "ppca.fit_ms.p90": "ms",
    "ppca.fit_ms.samples": "count",
    "ppca.unconverged": "count",
    "ppca.errors": "count",
    "ppca.extract_directions_s": "s",
    "ppca.self_s": "s",
    "masked.apply_mcar_mask_s": "s",
    "masked.apply_mcar_mask.calls": "count",
    "masked.center_observed_s": "s",
    "masked.self_s": "s",
    "metrics.component_r2_s": "s",
    "metrics.add_isotropic_noise_s": "s",
    "metrics.covariance_eigenvalues_s": "s",
    "metrics.self_s": "s",
    "synthetic.make_ground_truth_s": "s",
    "synthetic.sample_dataset_s": "s",
    "theory.calls": "count",
    "theory.s": "s",
    "experiment.self_s": "s",
    "experiment.cells": "count",
    "experiment.failed_cells": "count",
    "experiment.rmse_snr": "R2",
    "experiment.onset_rel_err": "ratio",
    "fileio.read_masked_csv_s": "s",
    "fileio.write_masked_csv_s": "s",
    "fileio.read_mcells_per_s": "Mcells/s",
    "fileio.write_mcells_per_s": "Mcells/s",
    "fileio.bytes_written": "bytes",
    "fileio.write_model_csv_s": "s",
    "fileio.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "trace.units": "count",
}


def fit_flops(n, d, k, iterations):
    """Floating-point operations of one ``fit_ppca`` call, computed, not measured.

    Counts the dense products of the current kernel, in which the mask
    enters as 0/1 weights, so the count does not depend on how many
    entries are observed. One EM iteration costs about N*D*(4k^2 + 6k):
    the two mask-weighted k x k outer-product contractions (2NDk^2 each)
    and three N x D by D x k products (2NDk each). Every fit adds one
    E-step without an M-step, about N*D*(2k^2 + 2k): a converged fit
    runs it to detect convergence, an unconverged one to score its
    final parameters; ``iterations`` counts neither.
    """
    per_iter = n * d * (4 * k * k + 6 * k)
    closing = n * d * (2 * k * k + 2 * k)
    return per_iter * iterations + closing


class Tracer:
    """Records spans and per-call facts for one traced workload unit.

    ``only``, a set of names such as ``{"ppca.fit_ppca"}``, limits the
    wrapping to those functions; the untraced runs use it to count EM
    iterations at the cost of one wrapper call per fit.
    """

    def __init__(self, package, only=None):
        self.package = package
        self.only = only
        self.spans = []  # [name, parent index or -1, start, end]
        self.fits = []  # (span index, iterations, converged, raised, n, d, k)
        self.fileio_cells = {"read": 0, "write": 0}
        self.bytes_written = 0
        self._stack = []
        self._restore = []

    # -- installation -------------------------------------------------

    def _namespaces(self):
        return [self.package, *(getattr(self.package, name) for name in LAYERS)]

    def install(self):
        namespaces = self._namespaces()
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                qualname = f"{layer}.{name}"
                if fn.__module__ != module.__name__ or (self.only and qualname not in self.only):
                    continue
                wrapper = self._wrap(qualname, fn)
                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        self._restore.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, fn in reversed(self._restore):
            setattr(ns, name, fn)
        self._restore.clear()

    def _wrap(self, qualname, fn):
        tracer = self
        post = _POST_HOOKS.get(qualname)

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [qualname, parent, perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            result = None
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
                if post is not None:
                    post(tracer, idx, args, result, raised)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ------------------------------------------------------

    def iterations(self):
        """EM iterations of every ``fit_ppca`` call so far."""
        return sum(f[1] for f in self.fits)

    def unconverged(self):
        """``fit_ppca`` calls so far that stopped at ``max_iterations``."""
        return sum(1 for f in self.fits if not f[2] and not f[3])

    def span_rows(self, unit):
        """Spans as dicts, start and end relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {"unit": unit, "id": i, "name": name, "parent": parent,
             "start": start - t0, "end": end - t0}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]

    def layer_metrics(self, unit_wall_s, below_threshold_flags):
        """Per-layer numbers for this unit.

        ``below_threshold_flags`` gives, in call order, whether each
        ``fit_ppca`` call's leading component sits below the clear
        detection margin; it may be shorter than the list of fits.
        """
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        incl = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        calls = {}
        root_s = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            layer_self[layer] += dur - child_s[i]
            calls[name] = calls.get(name, 0) + 1
            # a function's time counts its outermost calls only
            outer = parent < 0 or self.spans[parent][0] != name
            if outer:
                incl[name] = incl.get(name, 0.0) + dur
            if parent < 0:
                root_s += dur

        fit_ms = [
            (self.spans[idx][3] - self.spans[idx][2]) * 1e3
            for idx, *_ in self.fits
        ]
        iterations = self.iterations()
        below = sum(
            f[1] for f, flag in zip(self.fits, below_threshold_flags) if flag
        )
        flops = sum(fit_flops(f[4], f[5], f[6], f[1]) for f in self.fits if not f[3])
        fit_s = incl.get("ppca.fit_ppca", 0.0)
        read_s = incl.get("fileio.read_masked_csv", 0.0)
        write_s = incl.get("fileio.write_masked_csv", 0.0)
        theory_calls = sum(c for name, c in calls.items() if name.startswith("theory."))
        return {
            "ppca.iterations": iterations,
            "ppca.iterations.below_threshold": below,
            "ppca.ms_per_iter": fit_s * 1e3 / iterations if iterations else 0.0,
            "ppca.gflop_computed": flops / 1e9,
            "ppca.fit_s": fit_s,
            "ppca.unconverged": self.unconverged(),
            "ppca.errors": sum(1 for f in self.fits if f[3]),
            "ppca.extract_directions_s": incl.get("ppca.extract_directions", 0.0),
            "ppca.self_s": layer_self["ppca"],
            "masked.apply_mcar_mask_s": incl.get("masked.apply_mcar_mask", 0.0),
            "masked.apply_mcar_mask.calls": calls.get("masked.apply_mcar_mask", 0),
            "masked.center_observed_s": incl.get("masked.center_observed", 0.0),
            "masked.self_s": layer_self["masked"],
            "metrics.component_r2_s": incl.get("metrics.component_r2", 0.0),
            "metrics.add_isotropic_noise_s": incl.get("metrics.add_isotropic_noise", 0.0),
            "metrics.covariance_eigenvalues_s": incl.get("metrics.covariance_eigenvalues", 0.0),
            "metrics.self_s": layer_self["metrics"],
            "synthetic.make_ground_truth_s": incl.get("synthetic.make_ground_truth", 0.0),
            "synthetic.sample_dataset_s": incl.get("synthetic.sample_dataset", 0.0),
            "theory.calls": theory_calls,
            "theory.s": layer_self["theory"],
            "experiment.self_s": layer_self["experiment"],
            "fileio.read_masked_csv_s": read_s,
            "fileio.write_masked_csv_s": write_s,
            "fileio.read_mcells_per_s": self.fileio_cells["read"] / read_s / 1e6 if read_s else 0.0,
            "fileio.write_mcells_per_s": self.fileio_cells["write"] / write_s / 1e6 if write_s else 0.0,
            "fileio.bytes_written": self.bytes_written,
            "fileio.write_model_csv_s": incl.get("fileio.write_model_csv", 0.0),
            "fileio.self_s": layer_self["fileio"],
            "cli.self_s": layer_self["cli"],
            "trace.wall_s": unit_wall_s,
            "trace.unaccounted_s": unit_wall_s - root_s,
        }, fit_ms


# -- per-function facts, recorded after the call returns ---------------

def _after_fit(tracer, idx, args, model, raised):
    x, opts = args[0], args[1]
    n, d = x.values.shape
    if raised:
        tracer.fits.append((idx, 0, False, True, n, d, opts.k))
    else:
        tracer.fits.append((idx, model.n_iterations, model.converged, False, n, d, opts.k))


def _after_read(tracer, idx, args, x, raised):
    if not raised:
        tracer.fileio_cells["read"] += x.values.size


def _after_write(tracer, idx, args, result, raised):
    if raised:
        return
    path = getattr(args[1], "path", args[1])  # a MatrixFile or a plain path
    tracer.bytes_written += os.path.getsize(path)


def _after_write_masked(tracer, idx, args, result, raised):
    _after_write(tracer, idx, args, result, raised)
    if not raised:
        tracer.fileio_cells["write"] += args[0].values.size


_POST_HOOKS = {
    "ppca.fit_ppca": _after_fit,
    "fileio.read_masked_csv": _after_read,
    "fileio.write_masked_csv": _after_write_masked,
    "fileio.write_model_csv": _after_write,
    "fileio.write_ground_truth_csv": _after_write,
    "fileio.write_curve_csv": _after_write,
}
