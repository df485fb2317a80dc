import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spiked_pca.cli
import spiked_pca.ppca
from spiked_pca import (
    ExperimentConfig,
    FitOptions,
    read_masked_csv,
    run_sweep,
    theory_r2_effective_sample,
    theory_r2_missing,
)
from spiked_pca.cli import cli_main
from spiked_pca.fileio import CURVE_COLUMNS, REAL_FORMAT
from spiked_pca.ppca import _spd_inverse


def parse_kv(output):
    out = {}
    for line in output.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def test_theory_prints_prediction(capsys):
    code = cli_main(["theory", "--alpha", "0.6667", "--snr", "20", "--missing", "0.5"])
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    assert abs(float(kv["predicted_r2"]) - 0.85652) <= 1e-5
    assert abs(float(kv["m_crit"]) - 0.938764) <= 1e-5
    assert abs(float(kv["alpha_crit"]) - 0.01) <= 1e-9


@pytest.mark.parametrize(
    "alpha, snr, r2, alt_r2",
    [
        (0.6667, 20.0, "0.856528", "0.863049"),
        # below the reduced-SNR threshold, above the effective-sample one
        (0.75, 2.0, "0", "0.142857"),
    ],
    ids=["above-both", "between-thresholds"],
)
def test_theory_prints_both_laws(capsys, alpha, snr, r2, alt_r2):
    argv = ["theory", "--alpha", str(alpha), "--snr", str(snr), "--missing", "0.5"]
    assert cli_main(argv) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert list(kv) == ["predicted_r2", "predicted_alt_r2", "m_crit", "alpha_crit"]
    assert (kv["predicted_r2"], kv["predicted_alt_r2"]) == (r2, alt_r2)
    assert r2 == format(theory_r2_missing(alpha, snr, 0.5), REAL_FORMAT)
    assert alt_r2 == format(theory_r2_effective_sample(alpha, snr, 0.5), REAL_FORMAT)


def test_theory_domain_error_exit_code(capsys):
    code = cli_main(["theory", "--alpha", "-1", "--snr", "20"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--alpha", "inf", "--snr", "1"], id="alpha-inf"),
        pytest.param(["--alpha", "1", "--snr", "inf"], id="snr-inf"),
        pytest.param(["--alpha", "1", "--snr", "nan"], id="snr-nan"),
        pytest.param(["--alpha", "1", "--snr", "1", "--missing", "inf"], id="missing-inf"),
    ],
)
def test_theory_nonfinite_input_exit_code(capsys, args):
    assert cli_main(["theory", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "args,r2,alpha_crit",
    [
        # alpha * snr^2 and the square in alpha_crit overflow
        pytest.param(["--alpha", "1", "--snr", "1e200", "--missing", "0.5"], 1.0, 0.0,
                     id="snr-1e200"),
        pytest.param(["--alpha", "1e300", "--snr", "1e10"], 1.0, 1e-20, id="alpha-1e300"),
        # snr + alpha * snr^2 overflows, the ratio is 1/2
        pytest.param(["--alpha", "1e-308", "--snr", "1e308"], 0.5, 0.0, id="sum-overflow"),
        # alpha_crit's square underflows: no double sample ratio suffices
        pytest.param(["--alpha", "1e-300", "--snr", "1e-200"], 0.0, float("inf"),
                     id="underflow"),
        # nothing is observed at m = 1
        pytest.param(["--alpha", "1", "--snr", "2", "--missing", "1"], 0.0, float("inf"),
                     id="missing-one"),
    ],
)
def test_theory_extreme_finite_input(capsys, args, r2, alpha_crit):
    assert cli_main(["theory", *args]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["predicted_r2"]) == r2
    assert float(kv["alpha_crit"]) == alpha_crit
    assert 0.0 <= float(kv["m_crit"]) <= 1.0


def test_usage_error_exit_code(capsys):
    assert cli_main(["theory", "--snr", "20"]) == 1
    assert cli_main(["no-such-command"]) == 1


@pytest.mark.parametrize(
    "argv, code, stdout_lines, stderr",
    [
        (["theory", "--alpha", "0.6667", "--snr", "20", "--missing", "0.5"], 0, 4, ""),
        (["theory", "--alpha", "-1", "--snr", "20"], 1, 0,
         "error: alpha must be positive and finite, got -1.0\n"),
        (["theory", "--snr", "20"], 1, 0, None),
        # sigma2 of entries near 1e200 overflows when scaled back from the
        # fit's unit-RMS units: an error, not a warning
        (["fit", "--k", "1", "--in", "huge.csv", "--out", "model.csv"], 2, 0,
         "error: the fit is out of range in the data's units\n"),
        # entries near 1e-155: sigma2 scaled back is subnormal, out of range too
        (["fit", "--k", "1", "--in", "tiny.csv", "--out", "model.csv"], 2, 0,
         "error: the fit is out of range in the data's units\n"),
    ],
    ids=["ok", "domain", "usage", "numerical", "numerical-tiny"],
)
def test_entry_point_exit_codes(tmp_path, argv, code, stdout_lines, stderr):
    # through `python -m spiked_pca.cli`, so entry() and the __main__ guard
    # turn cli_main's return value into the process's exit status
    (tmp_path / "huge.csv").write_text(
        "1e200,-2e200,3e200\n-1e200,1e200,2e200\n2e200,1e200,-3e200\n1e200,3e200,1e200\n"
    )
    (tmp_path / "tiny.csv").write_text(
        "1e-155,2e-155,3e-155\n2e-155,1e-155,5e-155\n3e-155,4e-155,1e-155\n"
        "4e-155,3e-155,2e-155\n5e-155,1e-155,4e-155\n"
    )
    paths = [str(Path(spiked_pca.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "spiked_pca.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert len(proc.stdout.splitlines()) == stdout_lines
    if stderr is None:
        assert "the following arguments are required: --alpha" in proc.stderr
    else:
        assert proc.stderr == stderr
    assert (tmp_path / "model.csv").exists() == (argv[0] == "fit" and code == 0)


@pytest.mark.parametrize(
    "command, flag",
    [
        (["theory", "--alpha", "0.6667", "--snr", "20"], ["--effective-sample"]),
        (["fit", "--k", "1", "--out", "model.csv", "--in", "data.csv"], ["--tol", "1e-9"]),
        (["fit", "--k", "1", "--out", "model.csv", "--in", "data.csv"], ["--max-iter", "5"]),
    ],
    ids=["effective-sample", "tol", "max-iter"],
)
def test_removed_flag_exits_before_any_fit(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,10.0\n")
    fits = []
    monkeypatch.setattr(spiked_pca.cli, "fit_ppca", lambda x, opts: fits.append(opts))
    assert cli_main(command + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
    assert fits == []
    assert not (tmp_path / "model.csv").exists()


def test_generate_then_snr(tmp_path, capsys):
    out = str(tmp_path / "data.csv")
    code = cli_main(
        ["generate", "--n", "50000", "--d", "50", "--norms", "1.0",
         "--noise-var", "0.25", "--seed", "3", "--out", out]
    )
    assert code == 0
    assert (tmp_path / "data.csv").exists()
    assert (tmp_path / "data.csv.truth.csv").exists()
    capsys.readouterr()

    code = cli_main(["snr", "--in", out, "--k", "1"])
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    # ground truth S = 1 / 0.25 = 4
    assert abs(float(kv["S_1"]) - 4.0) / 4.0 <= 0.10


def test_mask_then_fit_pipeline(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    cli_main(
        ["generate", "--n", "150", "--d", "40", "--norms", "1.0",
         "--noise-var", "0.1", "--seed", "5", "--out", data_path]
    )
    masked_path = str(tmp_path / "masked.csv")
    assert cli_main(["mask", "--rate", "0.3", "--seed", "7",
                     "--in", data_path, "--out", masked_path]) == 0
    x = read_masked_csv(masked_path)
    assert 0.55 <= x.mask.mean() <= 0.85

    model_path = str(tmp_path / "model.csv")
    capsys.readouterr()
    assert cli_main(["fit", "--k", "1", "--in", masked_path,
                     "--out", model_path, "--seed", "2"]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["sigma2"]) > 0
    assert kv["converged"] == "1"
    lines = (tmp_path / "model.csv").read_text().splitlines()
    assert lines[0].startswith("# ppca-model")
    # both outputs print the one log-likelihood the model holds
    assert f" log_likelihood={kv['log_likelihood']} " in lines[0]
    assert len(lines) == 41  # metadata plus one row per feature

    model_path2 = str(tmp_path / "model2.csv")
    assert cli_main(["fit", "--k", "1", "--in", masked_path,
                     "--out", model_path2, "--seed", "2"]) == 0
    assert (tmp_path / "model.csv").read_bytes() == (tmp_path / "model2.csv").read_bytes()


def test_fully_masked_fit_fails_cleanly(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    cli_main(
        ["generate", "--n", "20", "--d", "5", "--norms", "1.0",
         "--noise-var", "0.1", "--seed", "5", "--out", data_path]
    )
    masked_path = str(tmp_path / "masked.csv")
    assert cli_main(["mask", "--rate", "1.0", "--seed", "7",
                     "--in", data_path, "--out", masked_path]) == 0
    code = cli_main(["fit", "--k", "1", "--in", masked_path,
                     "--out", str(tmp_path / "model.csv")])
    assert code == 1
    assert "column" in capsys.readouterr().err


def test_fit_rejects_k_not_below_the_rows(tmp_path, capsys):
    # two rows are rank one once centered, so they hold one component, not two
    p = tmp_path / "two_rows.csv"
    p.write_text("1,2,3,4,5\n2,4,6,8,11\n")
    out = str(tmp_path / "model.csv")
    assert cli_main(["fit", "--k", "2", "--in", str(p), "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: need k < the rows observing any entry, got k=2, rows=2\n")
    assert not os.path.exists(out)
    assert cli_main(["fit", "--k", "1", "--in", str(p), "--out", out]) == 0


# the second file of each test is larger than the text layer's ~8 KB chunk,
# so its bad byte's offset in the file is not its offset in that chunk
def test_non_text_matrix_csv_is_a_format_error(tmp_path, capsys):
    p = tmp_path / "binary.csv"
    for text, at in ((b"1.0,2.0\n\xff\xfe,3.0\n", 8), (b"1.0,2.0,3.0\n" * 1333 + b"\xff", 15996)):
        p.write_bytes(text)
        code = cli_main(["fit", "--k", "1", "--in", str(p),
                         "--out", str(tmp_path / "model.csv")])
        assert code == 1
        assert text.index(b"\xff") == at
        assert capsys.readouterr().err == f"error: {p}: not text: invalid start byte at byte {at}\n"


def test_non_text_config_is_a_format_error(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    large = b"[experiment]\n# " + b"x" * 9000 + b"\nsweep_kind = missing_rate\xff\n"
    for text, at in ((b"[experiment]\nsweep_kind = missing_rate\xff\n", 38), (large, 9041)):
        p.write_bytes(text)
        code = cli_main(["experiment", "--config", str(p), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert text.index(b"\xff") == at
        assert capsys.readouterr().err == f"error: {p}: not text: invalid start byte at byte {at}\n"
        assert not (tmp_path / "o.csv").exists()


def test_mask_rejects_incomplete_input(tmp_path, capsys):
    p = tmp_path / "incomplete.csv"
    p.write_text("1.0,,2.0\n3.0,4.0,5.0\n")
    code = cli_main(["mask", "--rate", "0.5", "--seed", "1",
                     "--in", str(p), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert "missing entries" in capsys.readouterr().err
    # snr needs complete data too
    assert cli_main(["snr", "--k", "1", "--in", str(p)]) == 1
    assert "missing entries" in capsys.readouterr().err


def test_generate_and_mask_deterministic_output_bytes(tmp_path):
    gen1, gen2 = str(tmp_path / "g1.csv"), str(tmp_path / "g2.csv")
    args = ["generate", "--n", "30", "--d", "10", "--norms", "1.0",
            "--noise-var", "0.1", "--seed", "5"]
    cli_main(args + ["--out", gen1])
    cli_main(args + ["--out", gen2])
    assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()
    assert (tmp_path / "g1.csv.truth.csv").read_bytes() == (tmp_path / "g2.csv.truth.csv").read_bytes()

    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cli_main(["mask", "--rate", "0.4", "--seed", "9", "--in", gen1, "--out", out1])
    cli_main(["mask", "--rate", "0.4", "--seed", "9", "--in", gen1, "--out", out2])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_numerical_failure_exit_code(tmp_path, capsys):
    p = tmp_path / "huge.csv"
    rows = ["1e308," * 3 + "1e308" for _ in range(8)]
    rows[0] = "-1e308,-1e308,-1e308,-1e308"
    p.write_text("\n".join(rows) + "\n")
    code = cli_main(["fit", "--k", "1", "--in", str(p),
                     "--out", str(tmp_path / "model.csv")])
    assert code == 2
    # the column sums overflow while the observed mean is taken
    assert "overflow" in capsys.readouterr().err


def test_fit_on_huge_finite_entries(tmp_path, capsys):
    # sigma2 ~ 1e300 here; SQUAREM's squares of its steps overflow
    p = tmp_path / "huge.csv"
    rows = np.random.default_rng(4).uniform(-1.0, 1.0, size=(8, 4)) * 1e150
    p.write_text("".join(",".join(f"{v:.6g}" for v in row) + "\n" for row in rows))
    code = cli_main(["fit", "--k", "1", "--in", str(p), "--out", str(tmp_path / "model.csv")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert float(parse_kv(captured.out)["sigma2"]) > 1e290


@pytest.mark.parametrize(
    "rows",
    [
        ["1e308,1e308,1e308", "-1e308,-1e308,-1e308", "1e308,1e308,1e308", "1e308,-1e308,1e308"],
        ["1e200,0,0", "-1e200,1,0", "0,0,1", "2,3,4"],
    ],
    ids=["column_sums", "eigenvalues"],
)
def test_snr_overflow_exit_code(tmp_path, capsys, rows):
    p = tmp_path / "huge.csv"
    p.write_text("\n".join(rows) + "\n")
    code = cli_main(["snr", "--k", "1", "--in", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert "overflow" in captured.err
    assert "nan" not in captured.out


# the start's E-step makes the first inversion, the first M-step the second
@pytest.mark.parametrize("step, call", [("E-step", 1), ("M-step", 2)], ids=["E-step", "M-step"])
def test_factorization_failure_exit_code(tmp_path, monkeypatch, capsys, step, call):
    data_path = str(tmp_path / "data.csv")
    cli_main(
        ["generate", "--n", "40", "--d", "10", "--norms", "1.0",
         "--noise-var", "0.1", "--seed", "5", "--out", data_path]
    )

    calls = []

    def fail_nth(G, step, iteration):
        calls.append(step)
        return _spd_inverse(-G if len(calls) == call else G, step, iteration)

    monkeypatch.setattr(spiked_pca.ppca, "_spd_inverse", fail_nth)
    code = cli_main(["fit", "--k", "1", "--in", data_path,
                     "--out", str(tmp_path / "model.csv")])
    assert code == 2
    assert f"{step} factorization failed at iteration 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["fit", "--out", "model.csv"], ["snr"]], ids=["fit", "snr"]
)
@pytest.mark.parametrize("token", ["inf", "1e400"])
def test_nonfinite_observed_value_exit_code(tmp_path, monkeypatch, capsys, token, command):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"1.0,2.0,3.0\n4.0,{token},6.0\n7.0,8.0,10.0\n1.5,2.5,3.5\n")
    code = cli_main(command + ["--k", "1", "--in", str(p)])
    assert code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["fit", "--k", "1", "--out", "model.csv"],
        ["mask", "--rate", "0.3", "--out", "masked.csv"],
    ],
    ids=["fit", "mask"],
)
def test_negative_seed_exit_code(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,10.0\n1.5,2.5,3.5\n")
    assert cli_main(command + ["--seed", "-1", "--in", str(p)]) == 1
    assert "seed" in capsys.readouterr().err


def generate_argv(out, norms="1.0", noise_var="0.25", seed="3"):
    return ["generate", "--n", "20", "--d", "5", "--norms", norms,
            "--noise-var", noise_var, "--seed", seed, "--out", str(out)]


@pytest.mark.parametrize("norms", ["1,,2", "abc", "", "1.0,"])
def test_generate_malformed_norms_exit_code(tmp_path, capsys, norms):
    out = tmp_path / "data.csv"
    assert cli_main(generate_argv(out, norms=norms)) == 1
    assert "--norms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "norms, noise_var",
    [("inf", "0.25"), ("1.0,-inf", "0.25"), ("nan", "0.25"), ("1.0,nan", "0.25"),
     ("1.0", "inf"), ("1.0", "nan"), ("1e200", "1e-200")],  # the last: S overflows
)
def test_generate_nonfinite_model_exit_code(tmp_path, capsys, norms, noise_var):
    out = tmp_path / "data.csv"
    assert cli_main(generate_argv(out, norms=norms, noise_var=noise_var)) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_generate_negative_seed_exit_code(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert cli_main(generate_argv(out, seed="-1")) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["fit", "--k", "1", "--out", "model.csv", "--in"],
        ["mask", "--rate", "0.3", "--seed", "1", "--out", "masked.csv", "--in"],
        ["snr", "--k", "1", "--in"],
        ["experiment", "--out", "curve.csv", "--config"],
    ],
    ids=["fit", "mask", "snr", "experiment"],
)
def test_unreadable_input_exit_code(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli_main(command + [str(tmp_path / "absent.csv")]) == 1
    assert "absent.csv" in capsys.readouterr().err


EXPERIMENT_CONFIG = """
[experiment]
sweep_kind = missing_rate
grid = 0.0, 0.4, 0.8
n = 60
d = 40
norms = 1.0
noise_variance = 0.05
repetitions = 2
base_seed = 11
max_iterations = 300
"""


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG)
    out1 = str(tmp_path / "curve1.csv")
    code = cli_main(["experiment", "--config", str(cfg), "--out", out1,
                     "--compare-hypotheses", "0.0"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "rmse_snr_hypothesis=" in printed and "rmse_sample_hypothesis=" in printed
    lines = (tmp_path / "curve1.csv").read_text().splitlines()
    assert lines[0].startswith("sweep_value,")
    assert lines[-1].startswith("# rmse_snr_hypothesis=")
    assert len(lines) == 1 + 3 + 1  # header, three records, summary

    # the bare flag takes MIN_M = 0
    out2 = str(tmp_path / "curve2.csv")
    assert cli_main(["experiment", "--config", str(cfg), "--out", out2,
                     "--compare-hypotheses"]) == 0
    assert capsys.readouterr().out == printed.replace("curve1", "curve2")
    assert (tmp_path / "curve1.csv").read_bytes() == (tmp_path / "curve2.csv").read_bytes()


def test_experiment_prints_grid_values_in_the_number_format(tmp_path, capsys):
    # linspace(0, 0.3, 7)[1] is 0.049999999999999996, which the curve CSV writes as 0.05
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("grid = 0.0, 0.4, 0.8", "grid = linspace(0, 0.3, 7)")
                   .replace("repetitions = 2", "repetitions = 1")
                   .replace("max_iterations = 300", "max_iterations = 2"))
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "failed cell: repetition 0, grid value 0.05: stopped at max_iterations (2)" in err


SMALL = [("n = 60", "n = 20"), ("d = 40", "d = 10")]
NO_MEAN = "column 1: cannot compute an observed mean"


@pytest.mark.parametrize(
    "edits,flags,failed_values,reason,error",
    [
        # every fit fails, so there is no record to write
        ([("grid = 0.0, 0.4, 0.8", "grid = 0.999, 1.0"), *SMALL], [],
         ["0.999", "0.999", "1", "1"], NO_MEAN, "refusing to write an empty record set"),
        # a fit that stops at the cap fails its cell the same way
        ([("max_iterations = 300", "max_iterations = 2")], [],
         ["0", "0", "0.4", "0.4", "0.8", "0.8"], "stopped at max_iterations (2)",
         "refusing to write an empty record set"),
        # on an SNR sweep a cell's grid value is its added noise variance, not S
        ([("sweep_kind = missing_rate", "sweep_kind = snr_via_added_noise"),
          ("grid = 0.0, 0.4, 0.8", "grid = 0.0, 0.1, 0.5"),
          ("max_iterations = 300", "max_iterations = 2")], [],
         ["0", "0", "0.1", "0.1", "0.5", "0.5"], "stopped at max_iterations (2)",
         "refusing to write an empty record set"),
        # the surviving m = 0 records lie below MIN_M
        ([("grid = 0.0, 0.4, 0.8", "grid = 0.0, 1.0"), *SMALL], ["--compare-hypotheses", "0.5"],
         ["1", "1"], NO_MEAN, "no first-component records at or above min_m"),
    ],
    ids=["all_fits_fail", "all_fits_capped", "snr_sweep_capped", "no_records_above_min_m"],
)
def test_experiment_names_failed_cells_before_exiting(tmp_path, capsys, edits, flags,
                                                      failed_values, reason, error):
    text = EXPERIMENT_CONFIG
    for old, new in edits:
        text = text.replace(old, new)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    out = tmp_path / "c.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {error}"
    failed = [line.split(", grid value ") for line in err[:-1]]
    assert all(head.startswith("failed cell: repetition ") for head, _ in failed)
    assert sorted(tail.split(": ")[0] for _, tail in failed) == failed_values
    assert all(tail.split(": ", 1)[1] == reason for _, tail in failed)
    assert out.exists() == bool(flags)  # a score that fails still writes the curve


def test_experiment_writes_the_curve_when_the_score_fails(tmp_path, capsys, monkeypatch):
    # both fits at 0.97 fail, so no record lies at or above MIN_M = 0.9,
    # but the m = 0 record is still written
    fits = count_fits(monkeypatch)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("grid = 0.0, 0.4, 0.8", "grid = 0.0, 0.97")
                   .replace("n = 60", "n = 40").replace("d = 40", "d = 60")
                   .replace("base_seed = 11", "base_seed = 1"))
    out = tmp_path / "c.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--compare-hypotheses", "0.9"]) == 1
    assert len(fits) == 4
    captured = capsys.readouterr()
    assert captured.out == f"wrote 1 records to {out}\n"
    assert captured.err.splitlines() == [
        "failed cell: repetition 0, grid value 0.97: column 1: cannot compute an observed mean",
        "failed cell: repetition 1, grid value 0.97: column 2: cannot compute an observed mean",
        "error: no first-component records at or above min_m",
    ]
    header, *rows = out.read_text().splitlines()  # no trailing # summary line
    assert header == ",".join(CURVE_COLUMNS)
    # sweep value, component and n_reps of the one record: m = 0, both fits
    assert [row.split(",")[:2] + row.split(",")[4:5] for row in rows] == [["0", "1", "2"]]


def test_experiment_reads_percent_as_an_ordinary_character(tmp_path, capsys):
    # the config has no interpolation, so a % is a character the grid cannot parse
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("grid = 0.0, 0.4, 0.8", "grid = 0.0, 0.4%"))
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: grid: could not convert string to float: ' 0.4%'\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_experiment_rejects_nonfinite_noise_grid(tmp_path, capsys, value):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        EXPERIMENT_CONFIG.replace("sweep_kind = missing_rate", "sweep_kind = snr_via_added_noise")
        .replace("grid = 0.0, 0.4, 0.8", f"grid = 0.0, {value}")
    )
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
    assert "grid value must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_experiment_rejects_fixed_missing_rate_on_missing_rate_sweep(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG + "fixed_missing_rate = 0.9\n")
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
    assert "fixed_missing_rate is only for" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_experiment_rejects_n_that_cannot_hold_its_components(tmp_path, monkeypatch, capsys):
    # two rows center to rank one, so no fit could find two components
    fits = count_fits(monkeypatch)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("n = 60", "n = 2").replace("d = 40", "d = 5")
                   .replace("norms = 1.0", "norms = 1.0, 0.5"))
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.endswith("n must be >= 3, got 2\n")
    assert fits == []
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "settings, bad",
    [
        # S = 1e-10 at the base noise; adding 1e300 underflows it to 0
        ("grid = 1e300\nnorms = 1e-150\nnoise_variance = 1e-290", "1e+300"),
        # sigma^2 + 1.7e308 overflows to inf, so S = 0
        ("grid = 1.7e308\nnorms = 1.0\nnoise_variance = 1e308", "1.7e+308"),
    ],
    ids=["underflow", "overflow"],
)
def test_experiment_rejects_snr_grid_value_that_drives_s_to_zero(
    tmp_path, monkeypatch, capsys, settings, bad
):
    # rejected when the file is read, before the grid's first (valid) value is fitted
    fits = count_fits(monkeypatch)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nsweep_kind = snr_via_added_noise\nn = 40\nd = 20\nrepetitions = 2\n"
        "base_seed = 1\nfixed_missing_rate = 0.2\n"
        + settings.replace("grid = ", "grid = 0.0, ") + "\n"
    )
    out = tmp_path / "c.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: snr_via_added_noise grid value {bad} leaves S at [0.0]\n")
    assert fits == []
    assert not out.exists()


def test_experiment_rejects_repeated_grid_value(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("grid = 0.0, 0.4, 0.8", "grid = 0.1, 0.1"))
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
    assert "grid must be strictly ascending" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


# each file breaks the config grammar on one line, which the error names
@pytest.mark.parametrize(
    "text, line",
    [
        ("not an ini\n", 1),
        ("[experiment]\nsweep_kind = missing_rate\nsweep_kind = missing_rate\n", 3),
        ("[experiment]\nsweep_kind\n", 2),
        ("[experiment]\n[experiment]\n", 2),
        (EXPERIMENT_CONFIG + "[fit]\nmax_iterations = 5\n", 12),
    ],
    ids=["no-section", "repeated-key", "no-equals", "second-section", "fit-section"],
)
def test_experiment_config_syntax_error_is_one_line(tmp_path, monkeypatch, capsys, text, line):
    fits = count_fits(monkeypatch)
    cfg, out = tmp_path / "exp.ini", tmp_path / "c.csv"
    cfg.write_text(text)
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    (error,) = capsys.readouterr().err.splitlines()
    assert error.startswith(f"error: {cfg}: line {line}: ") and error.count(str(cfg)) == 1
    assert fits == [] and not out.exists()


def count_fits(monkeypatch):
    """The matrices each sweep fit is handed, recorded in call order."""
    import spiked_pca.experiment

    fits = []
    fit_ppca = spiked_pca.experiment.fit_ppca

    def counting_fit(x, opts):
        fits.append(x)
        return fit_ppca(x, opts)

    monkeypatch.setattr(spiked_pca.experiment, "fit_ppca", counting_fit)
    return fits


def test_experiment_rejects_min_m_before_any_fit(tmp_path, monkeypatch, capsys):
    fits = count_fits(monkeypatch)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("grid = 0.0, 0.4, 0.8", "grid = 0.0, 0.4"))
    out = tmp_path / "c.csv"
    code = cli_main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--compare-hypotheses", "1.0"])
    assert code == 1
    assert "min_m must lie in [0, 1), got 1.0" in capsys.readouterr().err
    assert fits == []
    assert not out.exists()


@pytest.mark.parametrize(
    "out, flags, error",
    [
        # no grid value lies at or above MIN_M, so no record could be scored
        ("{tmp}/c.csv", ["--compare-hypotheses", "0.5"],
         "min_m must not exceed the largest grid value 0.2, got 0.5"),
        ("{tmp}/no_such_dir/c.csv", [], "[Errno 2] No such file or directory: '{tmp}/no_such_dir'"),
        ("", [], "[Errno 2] No such file or directory: ''"),
        ("{tmp}/outdir", [], "[Errno 21] Is a directory: '{tmp}/outdir'"),
        ("{tmp}/outdir/", [], "[Errno 21] Is a directory: '{tmp}/outdir/'"),
    ],
    ids=["min_m-above-grid", "out-in-missing-dir", "out-empty", "out-is-dir", "out-is-dir-slash"],
)
def test_experiment_rejects_what_the_sweep_cannot_finish_before_any_fit(
    tmp_path, monkeypatch, capsys, out, flags, error
):
    monkeypatch.chdir(tmp_path)
    fits = count_fits(monkeypatch)
    (tmp_path / "outdir").mkdir()
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("grid = 0.0, 0.4, 0.8", "grid = 0.0, 0.2"))
    out = out.format(tmp=tmp_path)
    assert cli_main(["experiment", "--config", str(cfg), "--out", out, *flags]) == 1
    assert capsys.readouterr().err == f"error: {error.format(tmp=tmp_path)}\n"
    assert fits == []
    assert sorted(os.listdir(tmp_path)) == ["exp.ini", "outdir"]
    assert os.listdir(tmp_path / "outdir") == []


@pytest.mark.parametrize(
    "out, error",
    [
        ("", "[Errno 2] No such file or directory: ''"),
        ("outdir", "[Errno 21] Is a directory: 'outdir'"),
        ("outdir/", "[Errno 21] Is a directory: 'outdir/'"),
        ("no_such_dir/out.csv", "[Errno 2] No such file or directory: 'no_such_dir'"),
    ],
    ids=["empty", "dir", "dir-slash", "missing-dir"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["generate", "--n", "30", "--d", "6", "--norms", "1.0", "--noise-var", "0.1",
         "--seed", "3"],
        ["mask", "--rate", "0.3", "--seed", "7", "--in", "data.csv"],
        ["fit", "--k", "1", "--in", "data.csv"],
    ],
    ids=lambda command: command[0],
)
def test_writing_commands_check_out_before_any_work(
    tmp_path, monkeypatch, capsys, command, out, error
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    (tmp_path / "data.csv").write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,10.0\n")
    work = []
    for name in ("draw_dataset", "read_masked_csv", "fit_ppca"):
        monkeypatch.setattr(spiked_pca.cli, name, lambda *args, name=name: work.append(name))
    assert cli_main([*command, "--out", out]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert work == []
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "outdir"]
    assert os.listdir(tmp_path / "outdir") == []


def test_generate_checks_its_truth_sidecar_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv.truth.csv").mkdir()
    draws = []
    monkeypatch.setattr(spiked_pca.cli, "draw_dataset", lambda *args: draws.append(args))
    assert cli_main(["generate", "--n", "30", "--d", "6", "--norms", "1.0",
                     "--noise-var", "0.1", "--seed", "3", "--out", "d.csv"]) == 1
    assert capsys.readouterr().err == "error: [Errno 21] Is a directory: 'd.csv.truth.csv'\n"
    assert draws == []
    assert os.listdir(tmp_path) == ["d.csv.truth.csv"]


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--k", "0"], "k must be >= 1, got 0"),
        (["--k", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["k", "seed"],
)
def test_fit_checks_its_options_before_reading(tmp_path, monkeypatch, capsys, flags, error):
    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(spiked_pca.cli, "read_masked_csv", no_read)
    assert cli_main(["fit", *flags, "--in", "data.csv", "--out", str(tmp_path / "m.csv")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert os.listdir(tmp_path) == []


def test_experiment_rejects_min_m_without_compare_hypotheses(tmp_path, monkeypatch, capsys):
    # min_m is the value of --compare-hypotheses; there is no flag that
    # sets it alone
    fits = count_fits(monkeypatch)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("grid = 0.0, 0.4, 0.8", "grid = 0.4"))
    out = tmp_path / "c.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out), "--min-m", "7"]) == 1
    assert "unrecognized arguments: --min-m 7" in capsys.readouterr().err
    assert fits == []
    assert not out.exists()


def test_experiment_rejects_min_m_on_snr_sweep(tmp_path, monkeypatch, capsys):
    # its sweep values are signal-to-noise ratios, not missing rates
    fits = count_fits(monkeypatch)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        EXPERIMENT_CONFIG.replace("sweep_kind = missing_rate", "sweep_kind = snr_via_added_noise")
        .replace("grid = 0.0, 0.4, 0.8", "grid = 0.0, 0.05")
    )
    out = tmp_path / "c.csv"
    argv = ["experiment", "--config", str(cfg), "--out", str(out), "--compare-hypotheses"]
    assert cli_main(argv + ["0.9"]) == 1
    assert "min_m is only for the missing_rate sweep" in capsys.readouterr().err
    assert fits == []
    assert not out.exists()
    assert cli_main(argv + ["0"]) == 0
    assert len(fits) == 2 * 2  # two repetitions x two grid values
    assert "rmse_snr_hypothesis=" in out.read_text()


def test_generate_draws_what_a_sweep_fits(tmp_path, monkeypatch):
    import spiked_pca.experiment

    out = tmp_path / "data.csv"
    assert cli_main(["generate", "--n", "30", "--d", "6", "--norms", "0.5,1.0",
                     "--noise-var", "0.2", "--seed", "17", "--out", str(out)]) == 0
    # repetition 0 of a one-rate sweep with the same seed, at rate 0
    truths = []
    component_r2 = spiked_pca.experiment.component_r2

    def recording_r2(directions, gt):
        truths.append(gt)
        return component_r2(directions, gt)

    monkeypatch.setattr(spiked_pca.experiment, "component_r2", recording_r2)
    fits = count_fits(monkeypatch)
    run_sweep(ExperimentConfig(
        sweep_kind="missing_rate", grid=(0.0,), n=30, d=6, norms=(0.5, 1.0),
        noise_variance=0.2, repetitions=1, base_seed=17, fit=FitOptions(k=2),
    ))
    (x,), (gt,) = fits, truths
    assert x.mask.all()
    written = read_masked_csv(str(out))
    np.testing.assert_allclose(written.values, x.values, rtol=1e-5, atol=0)
    lines = (tmp_path / "data.csv.truth.csv").read_text().splitlines()
    assert lines[0] == "# noise_variance=0.2 seed=17"
    directions = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(directions, gt.directions, rtol=1e-5, atol=0)
