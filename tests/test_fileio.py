import numpy as np
import pytest

from spiked_pca import (
    CurveRecord,
    DomainError,
    FormatError,
    MaskedMatrix,
    MatrixFile,
    apply_mcar_mask,
    make_ground_truth,
    read_curve_csv,
    read_experiment_config,
    read_masked_csv,
    write_curve_csv,
    write_ground_truth_csv,
    write_masked_csv,
)


def test_read_empty_cell_is_missing(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,,3.0\n")
    x = read_masked_csv(str(p))
    assert x.n_rows == 1 and x.n_cols == 3
    assert list(x.mask[0]) == [True, False, True]
    assert x.values[0, 0] == 1.0 and x.values[0, 2] == 3.0


@pytest.mark.parametrize("token", ["NaN", "nan", "NAN"])
def test_read_nan_token_is_missing(tmp_path, token):
    p = tmp_path / "m.csv"
    p.write_text(f"1.0,{token},3.0\n")
    x = read_masked_csv(str(p))
    assert list(x.mask[0]) == [True, False, True]


def test_read_rejects_unparseable_cell(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,abc\n")
    with pytest.raises(FormatError) as err:
        read_masked_csv(str(p))
    assert "row 1" in str(err.value) and "column 2" in str(err.value)


def test_read_rejects_ragged_rows(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError) as err:
        read_masked_csv(str(p))
    assert "line 2" in str(err.value)
    # a blank line is one empty cell, so it is ragged when D >= 2
    p.write_text("1.0,2.0\n\n3.0,4.0\n")
    with pytest.raises(FormatError) as err:
        read_masked_csv(str(p))
    assert "line 2 has 1 cells, expected 2" in str(err.value)


def test_read_rejects_empty_file(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        read_masked_csv(str(p))


def test_read_with_header_and_custom_settings(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a;b\n1.5;NA\n")
    x = read_masked_csv(MatrixFile(str(p), delimiter=";", missing_token="NA", header=True))
    assert x.n_rows == 1
    assert list(x.mask[0]) == [True, False]


def test_matrix_file_validation(tmp_path):
    with pytest.raises(DomainError):
        MatrixFile("x.csv", delimiter="ab")
    with pytest.raises(DomainError):
        MatrixFile("x.csv", missing_token="5.0")
    MatrixFile("x.csv", missing_token="NaN")  # non-finite token is allowed


def test_masked_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = apply_mcar_mask(rng.normal(size=(25, 8)) * 100, 0.3, seed=1)
    p = tmp_path / "round.csv"
    write_masked_csv(x, str(p))
    y = read_masked_csv(str(p))
    assert np.array_equal(y.mask, x.mask)
    # six significant digits survive the trip
    assert np.allclose(y.values[y.mask], x.values[x.mask], rtol=1e-5)
    # one column: a missing entry is written as a blank line, here the first
    mask = np.array([[False], [True], [False], [True]])
    p1 = tmp_path / "one_column.csv"
    write_masked_csv(MaskedMatrix(np.array([[0.0], [1.5], [0.0], [-2.0]]), mask), str(p1))
    assert p1.read_text() == "\n1.5\n\n-2\n"
    y1 = read_masked_csv(str(p1))
    assert np.array_equal(y1.mask, mask)
    assert y1.values[1, 0] == 1.5 and y1.values[3, 0] == -2.0


def test_masked_roundtrip_with_header(tmp_path):
    values = np.arange(12.0).reshape(4, 3) + 0.5
    mask = np.ones((4, 3), dtype=bool)
    mask[0, 1] = mask[3, 2] = False
    file = MatrixFile(str(tmp_path / "h.csv"), delimiter=";", missing_token="NA", header=True)
    write_masked_csv(MaskedMatrix(values, mask), file)
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[:2] == ["x1;x2;x3", "0.5;NA;2.5"]
    y = read_masked_csv(file)
    assert y.n_rows == 4
    assert np.array_equal(y.mask, mask)
    assert np.array_equal(y.values[mask], values[mask])


def make_records(n, m_values=None):
    out = []
    for i in range(n):
        m = m_values[i] if m_values else i / n
        out.append(
            CurveRecord(
                sweep_value=m,
                component=1 + i % 2,
                r2_mean=0.5,
                r2_std=0.01,
                n_reps=5,
                theory_r2=0.0 if m == 1.0 else 0.25,
                theory_alt_r2=0.3,
            )
        )
    return out


def test_curve_csv_line_count_and_header(tmp_path):
    p = tmp_path / "curve.csv"
    write_curve_csv(make_records(10), str(p))
    lines = p.read_text().splitlines()
    assert len(lines) == 11
    assert lines[0] == "sweep_value,component,r2_mean,r2_std,n_reps,theory_r2,theory_alt_r2"


def test_curve_csv_roundtrip(tmp_path):
    p = tmp_path / "curve.csv"
    records = make_records(10)
    write_curve_csv(records, str(p), summary="rmse_snr_hypothesis=0.1 rmse_sample_hypothesis=0.2")
    back = read_curve_csv(str(p))
    assert len(back) == 10
    original = sorted(records, key=lambda r: (r.sweep_value, r.component))
    for a, b in zip(original, back):
        assert b.component == a.component and b.n_reps == a.n_reps
        assert b.sweep_value == pytest.approx(a.sweep_value, rel=1e-5, abs=1e-9)
        assert b.r2_mean == pytest.approx(a.r2_mean, rel=1e-5)
        assert b.theory_r2 == pytest.approx(a.theory_r2, rel=1e-5, abs=1e-9)


def test_curve_csv_sorted_and_all_missing_rows_have_zero_theory(tmp_path):
    p = tmp_path / "curve.csv"
    write_curve_csv(make_records(4, m_values=[1.0, 0.5, 1.0, 0.0]), str(p))
    back = read_curve_csv(str(p))
    values = [(r.sweep_value, r.component) for r in back]
    assert values == sorted(values)
    for r in back:
        if r.sweep_value == 1.0:
            assert r.theory_r2 == 0.0


def test_curve_csv_rejects_empty(tmp_path):
    with pytest.raises(DomainError):
        write_curve_csv([], str(tmp_path / "x.csv"))


def test_curve_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n")
    with pytest.raises(FormatError):
        read_curve_csv(str(p))


def test_ground_truth_sidecar(tmp_path):
    gt = make_ground_truth(12, [1.0, 0.5], 0.05, seed=4)
    p = tmp_path / "truth.csv"
    write_ground_truth_csv(gt, str(p), seed=4)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "noise_variance=0.05" in lines[0] and "seed=4" in lines[0]
    assert len(lines) == 13  # header plus one row per feature
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(parsed, gt.directions, rtol=1e-5, atol=1e-9)


CONFIG_TEXT = """
[experiment]
sweep_kind = missing_rate
grid = linspace(0, 0.8, 5)
n = 60
d = 40
norms = 1.0, 0.5
noise_variance = 0.05
repetitions = 3
base_seed = 99
max_iterations = 250
"""


def test_read_experiment_config(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(CONFIG_TEXT)
    cfg = read_experiment_config(str(p))
    assert cfg.sweep_kind == "missing_rate"
    assert cfg.grid == pytest.approx((0.0, 0.2, 0.4, 0.6, 0.8))
    assert cfg.n == 60 and cfg.d == 40
    assert cfg.norms == (1.0, 0.5)
    assert cfg.fit.k == 2
    assert cfg.fit.max_iterations == 250
    assert cfg.fit.rel_tolerance == 1e-7
    assert cfg.fixed_missing_rate == 0.0


def test_read_experiment_config_explicit_grid(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(CONFIG_TEXT.replace("linspace(0, 0.8, 5)", "0.1, 0.3"))
    cfg = read_experiment_config(str(p))
    assert cfg.grid == (0.1, 0.3)


def test_read_experiment_config_errors(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[wrong]\nn = 3\n")
    with pytest.raises(FormatError):
        read_experiment_config(str(p))
    p.write_text(CONFIG_TEXT.replace("n = 60\n", ""))
    with pytest.raises(FormatError):
        read_experiment_config(str(p))
    p.write_text(CONFIG_TEXT.replace("n = 60", "n = sixty"))
    with pytest.raises(FormatError):
        read_experiment_config(str(p))
