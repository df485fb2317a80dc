"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All Monte Carlo checks are deterministic through pinned base seeds. The
phase-transition sweep places its checked grid cells away from the
finite-size transition window (where the large-system formulas are not
yet testable at D = 600) while still tracing both transitions and the
deep no-learning region.
"""

import math

import numpy as np
import pytest

import spiked_pca as sp

ALPHA_1 = 400 / 600
S_COMP = (1.0**2 / 0.05, 0.5**2 / 0.05)  # 20 and 5, as the generator computes them

PHASE_GRID = tuple(np.linspace(0.0, 0.80, 17)) + (0.93, 0.95, 0.96)
PHASE_CFG = sp.ExperimentConfig(
    sweep_kind="missing_rate",
    grid=PHASE_GRID,
    n=400,
    d=600,
    norms=(1.0, 0.5),
    noise_variance=0.05,
    repetitions=5,
    base_seed=20260810,
    fit=sp.FitOptions(k=2),
)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def phase_sweep():
    return sp.run_sweep(PHASE_CFG)


def test_criterion_1_phase_transition(phase_sweep):
    worst_above = 0.0
    worst_below = 0.0
    n_above = n_below = 0
    for r in phase_sweep:
        margin = ALPHA_1 * ((1.0 - r.sweep_value) * S_COMP[r.component - 1]) ** 2
        if margin >= 2.0:
            n_above += 1
            worst_above = max(worst_above, abs(r.r2_mean - r.theory_r2))
        elif margin <= 0.5:
            n_below += 1
            worst_below = max(worst_below, r.r2_mean)
    ok = (
        not phase_sweep.failures
        and n_above > 0
        and n_below > 0
        and worst_above <= 0.08
        and worst_below <= 0.05
    )
    report(
        "criterion 1 (phase transition, D=600 N=400 S=[20,5])",
        ok,
        f"{n_above} cells above margin, worst |r2_mean - theory| = {worst_above:.4f} "
        f"(<= 0.08); {n_below} cells below threshold, worst r2_mean = {worst_below:.4f} (<= 0.05)",
    )


def _snr_sweep_onset(fixed_m):
    # resulting ratios from 0.4 up to 20, dense (11% steps) through the onset window
    s_targets = [0.4 * 1.11**k for k in range(16)] + [2.5, 4.0, 8.0, 20.0]
    sigma2 = 0.05
    grid = tuple(sorted(max(1.0 / s - sigma2, 0.0) for s in s_targets))
    cfg = sp.ExperimentConfig(
        sweep_kind="snr_via_added_noise",
        grid=grid,
        n=800,
        d=400,
        norms=(1.0,),
        noise_variance=sigma2,
        repetitions=5,
        base_seed=314159,
        fit=sp.FitOptions(k=1),
        fixed_missing_rate=fixed_m,
    )
    result = sp.run_sweep(cfg)
    assert not result.failures
    for r in sorted(result, key=lambda r: r.sweep_value):
        if r.r2_mean > 0.1:
            return r.sweep_value
    return math.inf


def test_criterion_2_threshold_location():
    alpha = 800 / 400
    onsets = []
    details = []
    ok = True
    for m in (0.0, 0.25, 0.5):
        onset = _snr_sweep_onset(m)
        target = 1.0 / ((1.0 - m) * math.sqrt(alpha))
        onsets.append(onset)
        within = abs(onset - target) <= 0.3 * target
        ok = ok and within
        details.append(f"m={m}: onset S={onset:.3f} vs {target:.3f}")
    increasing = onsets[0] < onsets[1] < onsets[2]
    ok = ok and increasing
    report(
        "criterion 2 (onset location, D=400 N=800, m in {0, 0.25, 0.5})",
        ok,
        "; ".join(details) + f"; strictly increasing = {increasing}",
    )


def test_criterion_3_hypothesis_discrimination(phase_sweep):
    rmse_snr, rmse_sample = sp.compare_hypotheses(phase_sweep, 0.3)
    ok = rmse_snr < rmse_sample
    report(
        "criterion 3 (reduced SNR beats reduced sample size, m >= 0.3)",
        ok,
        f"rmse reduced-SNR = {rmse_snr:.4f} < rmse reduced-sample = {rmse_sample:.4f}",
    )


def test_criterion_4_em_spectral_oracle():
    rng = np.random.default_rng(404)
    worst_sigma = 0.0
    worst_subspace = 1.0
    for trial in range(20):
        d = int(rng.integers(50, 201))
        k = int(rng.integers(1, 3))
        alpha = float(rng.uniform(1.0, 3.0))
        n = max(int(alpha * d), k + 2)
        sigma2 = float(rng.uniform(0.05, 0.5))
        snrs = [20.0, 8.0][:k]  # alpha * S^2 >= 4 with a wide margin
        norms = np.sqrt(sigma2 * np.array(snrs))
        gt = sp.make_ground_truth(d, norms, sigma2, seed=1000 + trial)
        data = sp.sample_dataset(gt, n, seed=2000 + trial)
        opts = sp.FitOptions(k=k, rel_tolerance=1e-10, max_iterations=10_000, seed=3000 + trial)
        model = sp.fit_ppca(sp.MaskedMatrix.complete(data), opts)
        trailing = sp.covariance_eigenvalues(data)[k:].mean()
        worst_sigma = max(worst_sigma, abs(model.noise_variance - trailing) / trailing)
        u = sp.extract_directions(model)
        v = sp.top_eigvec_complete(data, k)
        align = float(np.linalg.svd(u.T @ v, compute_uv=False).min() ** 2)
        worst_subspace = min(worst_subspace, align)
    ok = worst_subspace >= 0.999 and worst_sigma <= 1e-6
    report(
        "criterion 4 (EM equals spectral oracle on complete data, 20 fits)",
        ok,
        f"worst subspace R2 = {worst_subspace:.6f} (>= 0.999), "
        f"worst sigma2 rel err = {worst_sigma:.2e} (<= 1e-6)",
    )


def test_criterion_5_em_monotone_loglik():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(50, 201))
        k = int(rng.integers(1, 3))
        n = int(rng.uniform(0.5, 2.5) * d)
        sigma2 = float(rng.uniform(0.02, 0.5))
        snr = float(rng.uniform(0.5, 25.0))
        norms = np.sqrt(sigma2 * snr * np.linspace(1.0, 0.5, k))
        m = (0.0, 0.3, 0.6)[trial % 3]
        gt = sp.make_ground_truth(d, norms, sigma2, seed=7000 + trial)
        data = sp.sample_dataset(gt, n, seed=8000 + trial)
        x = sp.apply_mcar_mask(data, m, seed=9000 + trial)
        model = sp.fit_ppca(x, sp.FitOptions(k=k, max_iterations=300, seed=trial))
        h = model.loglik_history
        rel = np.diff(h) / np.abs(h[:-1])
        worst = min(worst, float(rel.min()))
    ok = worst >= -1e-8
    report(
        "criterion 5 (log-likelihood never decreases, 100 randomized fits)",
        ok,
        f"most negative relative step = {worst:.2e} (>= -1e-8)",
    )


def test_criterion_6_theory_unit_suite():
    alphas = np.linspace(0.05, 3.0, 20)
    snrs = np.linspace(0.2, 25.0, 20)
    rates = np.linspace(0.0, 0.95, 20)
    identical = all(
        sp.theory_r2_missing(a, s, m) == sp.theory_r2_complete(a, (1.0 - m) * s)
        for a in alphas
        for s in snrs
        for m in rates
    )
    boundary = sp.theory_r2_complete(1.0 / 4.0, 2.0) == 0.0  # alpha S^2 exactly 1
    hand = (
        abs(sp.theory_r2_complete(2.0 / 3.0, 20.0) - 0.92674) <= 1e-5
        and abs(sp.theory_r2_missing(2.0 / 3.0, 20.0, 0.5) - 0.85652) <= 1e-5
        and abs(sp.theory_r2_complete(2.0, 1.0) - 1.0 / 3.0) <= 1e-5
    )
    ok = identical and boundary and hand
    report(
        "criterion 6 (theory unit suite)",
        ok,
        f"identity on 20^3 grid = {identical}, boundary zero = {boundary}, "
        f"hand values to 1e-5 = {hand}",
    )


def test_criterion_7_determinism(phase_sweep, tmp_path):
    first = tmp_path / "curve_a.csv"
    second = tmp_path / "curve_b.csv"
    sp.write_curve_csv(phase_sweep, str(first))
    rerun = sp.run_sweep(PHASE_CFG)
    sp.write_curve_csv(rerun, str(second))
    ok = first.read_bytes() == second.read_bytes()
    report(
        "criterion 7 (byte-identical curve CSV on repeated run)",
        ok,
        f"{first.stat().st_size} bytes compared",
    )


def test_invariant_monotone_trend(phase_sweep):
    # not a numbered criterion: first-component means must not increase
    # with the missing rate beyond twice the repetition scatter
    comp1 = sorted(
        (r for r in phase_sweep if r.component == 1), key=lambda r: r.sweep_value
    )
    for a, b in zip(comp1, comp1[1:]):
        slack = 2.0 * max(a.r2_std, b.r2_std)
        assert b.r2_mean <= a.r2_mean + slack, (
            f"r2_mean rose from {a.r2_mean:.4f} (m={a.sweep_value}) to "
            f"{b.r2_mean:.4f} (m={b.sweep_value}) beyond slack {slack:.4f}"
        )
