import numpy as np
import pytest

from spiked_pca import (
    read_experiment_config,
    read_masked_csv,
    run_missing_rate_sweep,
    write_curve_csv,
)
from spiked_pca.cli import cli_main


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


def test_theory_effective_sample_flag(capsys):
    code = cli_main(
        ["theory", "--alpha", "0.6667", "--snr", "20", "--missing", "0.5", "--effective-sample"]
    )
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    assert abs(float(kv["predicted_r2"]) - 0.86305) <= 1e-4


def test_theory_domain_error_exit_code(capsys):
    code = cli_main(["theory", "--alpha", "-1", "--snr", "20"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert cli_main(["theory", "--snr", "20"]) == 1
    assert cli_main(["no-such-command"]) == 1


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


def test_mask_rejects_incomplete_input(tmp_path, capsys):
    p = tmp_path / "incomplete.csv"
    p.write_text("1.0,,2.0\n3.0,4.0,5.0\n")
    code = cli_main(["mask", "--rate", "0.5", "--seed", "1",
                     "--in", str(p), "--out", str(tmp_path / "out.csv")])
    assert code == 1


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exit_code(tmp_path, capsys):
    p = tmp_path / "huge.csv"
    rows = ["1e308," * 3 + "1e308" for _ in range(8)]
    rows[0] = "-1e308,-1e308,-1e308,-1e308"
    p.write_text("\n".join(rows) + "\n")
    code = cli_main(["fit", "--k", "1", "--in", str(p),
                     "--out", str(tmp_path / "model.csv")])
    assert code == 2


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


@pytest.mark.parametrize("step, routine", [("E-step", "cholesky"), ("M-step", "solve")])
def test_factorization_failure_exit_code(tmp_path, monkeypatch, capsys, step, routine):
    data_path = str(tmp_path / "data.csv")
    cli_main(
        ["generate", "--n", "40", "--d", "10", "--norms", "1.0",
         "--noise-var", "0.1", "--seed", "5", "--out", data_path]
    )

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, routine, fail)
    code = cli_main(["fit", "--k", "1", "--in", data_path,
                     "--out", str(tmp_path / "model.csv")])
    assert code == 2
    assert f"{step} factorization failed" in capsys.readouterr().err


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
                     "--compare-hypotheses", "--min-m", "0.0"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "rmse_snr_hypothesis=" in printed and "rmse_sample_hypothesis=" in printed
    lines = (tmp_path / "curve1.csv").read_text().splitlines()
    assert lines[0].startswith("sweep_value,")
    assert lines[-1].startswith("# rmse_snr_hypothesis=")
    assert len(lines) == 1 + 3 + 1  # header, three records, summary

    out2 = str(tmp_path / "curve2.csv")
    assert cli_main(["experiment", "--config", str(cfg), "--out", out2,
                     "--compare-hypotheses", "--min-m", "0.0"]) == 0
    assert (tmp_path / "curve1.csv").read_bytes() == (tmp_path / "curve2.csv").read_bytes()


def test_experiment_reports_unconverged_cells(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_CONFIG.replace("max_iterations = 300", "max_iterations = 2"))
    out = tmp_path / "curve.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 * 3  # two repetitions x three grid values
    assert all(line.startswith("unconverged cell: repetition ") for line in err)
    assert "sweep value 0.8: stopped at max_iterations (2)" in err[-1]
    # the flags go to stderr only; the curve CSV is the library's
    expected = tmp_path / "expected.csv"
    write_curve_csv(run_missing_rate_sweep(read_experiment_config(str(cfg))), str(expected))
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_experiment_rejects_nonfinite_noise_grid(tmp_path, capsys, value):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        EXPERIMENT_CONFIG.replace("sweep_kind = missing_rate", "sweep_kind = snr_via_added_noise")
        .replace("grid = 0.0, 0.4, 0.8", f"grid = 0.0, {value}")
    )
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
