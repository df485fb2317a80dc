import csv
import dataclasses
import math
import re

import numpy as np
import pytest

from spiked_pca import (
    CurveRecord,
    DomainError,
    ExperimentConfig,
    FitOptions,
    FormatError,
    MaskedMatrix,
    apply_mcar_mask,
    make_ground_truth,
    read_experiment_config,
    read_masked_csv,
    write_curve_csv,
    write_ground_truth_csv,
    write_masked_csv,
    write_model_csv,
)
from spiked_pca.fileio import _CONFIG_KEYS, CURVE_COLUMNS
from spiked_pca.ppca import PpcaModel
from spiked_pca.synthetic import GroundTruth


def test_read_empty_cell_is_missing(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,,3.0\n")
    x = read_masked_csv(str(p))
    assert x.values.shape == (1, 3)
    assert list(x.mask[0]) == [True, False, True]
    assert x.values[0, 0] == 1.0 and x.values[0, 2] == 3.0


# empty and whitespace-only cells, first, last and inner, are missing
@pytest.mark.parametrize(
    "line, observed",
    [
        (",1.0,3.0", [False, True, True]),
        ("1.0,3.0,", [True, True, False]),
        (",,", [False, False, False]),
        (" ,\t,\xa0", [False, False, False]),
        ("1.0, \xa0 ,3.0", [True, False, True]),
        ("  1.0  ,\t,3.0", [True, False, True]),
    ],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_read_blank_cell_is_missing(tmp_path, line, observed, newline):
    p = tmp_path / "m.csv"
    p.write_text(line + newline + "4.0,5.0,6.0" + newline, newline="")
    x = read_masked_csv(str(p))
    assert x.values.shape == (2, 3)
    assert list(x.mask[0]) == observed and x.mask[1].all()
    assert np.array_equal(x.values[0][observed], [1.0, 3.0][: sum(observed)])


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_read_one_column_blank_lines_are_missing(tmp_path, newline):
    p = tmp_path / "m.csv"
    p.write_text(newline.join(["", "1.5", " ", "", "-2", "\t", ""]), newline="")
    x = read_masked_csv(str(p))
    assert x.values.shape == (6, 1)
    assert list(x.mask[:, 0]) == [False, True, False, False, True, False]
    assert x.values[1, 0] == 1.5 and x.values[4, 0] == -2.0


# a signed NaN reads as missing too
@pytest.mark.parametrize("token", ["NaN", "nan", "NAN", "-nan", "+NaN"])
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
    # a quoted cell and a digit separator are not numbers in this format
    for cell in ('"7"', "1_0"):
        p.write_text(f"1.0,{cell}\n")
        with pytest.raises(FormatError, match="row 1, column 2"):
            read_masked_csv(str(p))


def test_read_passes_on_an_unlocated_parse_error(tmp_path, monkeypatch):
    # a loader error that names no cell is reported with the file's name
    def loadtxt_fails(*args, **kwargs):
        raise ValueError("no cell named")

    monkeypatch.setattr(np, "loadtxt", loadtxt_fails)
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: no cell named$"):
        read_masked_csv(str(p))


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


# tokens a matrix CSV cell may hold: numbers, blanks, NaN spellings, an
# overflowing number (observed, infinite) and junk
CELL_TOKENS = (
    "1.5", "-2", "3e-7", " 0.25 ", "", " ", "\t", "\xa0", " \xa0 ", "NaN", "nan",
    " NAN ", "-nan", "1e400", "-inf", "abc",
)


def reference_cell(token):
    """(value, observed) of one cell, or None where it does not parse."""
    cell = token.strip()
    if not cell:
        return math.nan, False
    try:
        value = float(cell)
    except ValueError:
        return None
    return value, not math.isnan(value)


def test_read_matches_per_cell_reference(tmp_path):
    rng = np.random.default_rng(20261018)
    # junk is rare so that most files parse
    weights = np.where(np.array(CELL_TOKENS) == "abc", 0.2, 1.0)
    p = tmp_path / "m.csv"
    for _ in range(300):
        n, d = rng.integers(1, 5, size=2)
        picks = rng.choice(len(CELL_TOKENS), size=(n, d), p=weights / weights.sum())
        tokens = [[CELL_TOKENS[i] for i in row] for row in picks]
        newline = ("\n", "\r\n")[rng.integers(2)]
        p.write_text("".join(",".join(row) + newline for row in tokens), newline="")
        cells = [[reference_cell(t) for t in row] for row in tokens]
        bad = [(r, c) for r, row in enumerate(cells, 1) for c, v in enumerate(row, 1) if v is None]
        if bad:
            # the first junk cell in reading order is named, 1-based
            row, col = bad[0]
            with pytest.raises(FormatError, match=f"'abc' at row {row}, column {col}$"):
                read_masked_csv(str(p))
            continue
        x = read_masked_csv(str(p))
        mask = np.array([[ok for _, ok in row] for row in cells])
        values = np.array([[v for v, _ in row] for row in cells])
        assert np.array_equal(x.mask, mask)
        assert np.array_equal(x.values[mask], values[mask])


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


def reference_matrix_csv(values, mask):
    """A matrix CSV built cell by cell: ``format(v, ".6g")`` or an empty cell."""
    return "".join(
        ",".join(format(float(v), ".6g") if ok else "" for v, ok in zip(row, row_mask))
        + "\n"
        for row, row_mask in zip(values, mask)
    )


# signed zero, a subnormal, huge and infinite values, halfway cases of the
# sixth digit, integers
WRITE_VALUES = (
    -0.0, 0.0, 1e-310, 5e-324, 1e300, -1.7976931348623157e308, math.inf, -math.inf,
    0.1234565, 123456.5, 1234565.0, 2.5e-7, 3.0, -7.0, 100000.0, 1e6,
)


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (6, 5), (3, 40)])
def test_write_matches_per_cell_reference(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    n, d = shape
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    special = rng.random(shape) < 0.5
    values[special] = rng.choice(WRITE_VALUES, size=int(special.sum()))
    mask = rng.random(shape) < 0.7
    mask[0] = False  # a fully missing row
    if d > 1:
        mask[:, -1] = False  # a fully missing column
    p = tmp_path / "w.csv"
    write_masked_csv(MaskedMatrix(values, mask), str(p))
    assert p.read_bytes() == reference_matrix_csv(values, mask).encode()
    complete = np.ones(shape, dtype=bool)
    write_masked_csv(MaskedMatrix(values, complete), str(p))
    assert p.read_bytes() == reference_matrix_csv(values, complete).encode()


def test_write_observed_nan_reads_back_missing(tmp_path):
    p = tmp_path / "w.csv"
    values = np.array([[1.0, np.nan, 2.0], [-np.nan, 3.0, np.inf]])
    write_masked_csv(MaskedMatrix(values, np.ones((2, 3), dtype=bool)), str(p))
    assert p.read_text() == "1,,2\n,3,inf\n"
    x = read_masked_csv(str(p))
    assert x.mask.tolist() == [[True, False, True], [False, True, True]]


def read_curve_rows(path):
    """The header and data rows of a curve CSV, parsed by the csv module."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    return rows[0], rows[1:]


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
    assert p.read_text().splitlines()[-1] == (
        "# rmse_snr_hypothesis=0.1 rmse_sample_hypothesis=0.2"
    )
    header, rows = read_curve_rows(str(p))
    assert tuple(header) == CURVE_COLUMNS
    assert len(rows) == 10
    original = sorted(records, key=lambda r: (r.sweep_value, r.component))
    for a, row in zip(original, rows):
        b = dict(zip(header, row))
        assert int(b["component"]) == a.component and int(b["n_reps"]) == a.n_reps
        assert float(b["sweep_value"]) == pytest.approx(a.sweep_value, rel=1e-5, abs=1e-9)
        assert float(b["r2_mean"]) == pytest.approx(a.r2_mean, rel=1e-5)
        assert float(b["r2_std"]) == pytest.approx(a.r2_std, rel=1e-5)
        assert float(b["theory_r2"]) == pytest.approx(a.theory_r2, rel=1e-5, abs=1e-9)
        assert float(b["theory_alt_r2"]) == pytest.approx(a.theory_alt_r2, rel=1e-5)


def test_curve_csv_sorted_and_all_missing_rows_have_zero_theory(tmp_path):
    p = tmp_path / "curve.csv"
    write_curve_csv(make_records(4, m_values=[1.0, 0.5, 1.0, 0.0]), str(p))
    header, rows = read_curve_rows(str(p))
    back = [dict(zip(header, row)) for row in rows]
    values = [(float(r["sweep_value"]), int(r["component"])) for r in back]
    assert values == sorted(values)
    for r in back:
        if float(r["sweep_value"]) == 1.0:
            assert float(r["theory_r2"]) == 0.0


def test_curve_csv_rejects_empty(tmp_path):
    with pytest.raises(DomainError):
        write_curve_csv([], str(tmp_path / "x.csv"))


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


def reference_line(cells):
    """One small-table line built cell by cell: ``format(v, ".6g")`` for a
    real, ``str`` for an integer, an empty cell for a NaN."""
    return ",".join(
        str(v) if isinstance(v, int) else "" if math.isnan(v) else format(float(v), ".6g")
        for v in cells
    )


def special_matrix(shape, seed):
    """Random reals of many magnitudes, about half replaced by WRITE_VALUES
    and some, the first among them, by NaN of either sign."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    special = rng.random(shape) < 0.5
    values[special] = rng.choice(WRITE_VALUES, size=int(special.sum()))
    nan = rng.random(shape) < 0.15
    nan.flat[0] = True
    values[nan] = rng.choice([math.nan, -math.nan], size=int(nan.sum()))
    return values


def test_curve_csv_matches_per_value_reference(tmp_path):
    # each special value once as a sweep value (the two zeros sort as
    # equal, so only -0.0), the reals cycling through them and NaN of
    # either sign, and counts too large for 6 digits
    sweep = sorted(set(WRITE_VALUES) - {0.0} | {-0.0})
    cycle = (*WRITE_VALUES, math.nan, -math.nan) * 2
    records = [
        CurveRecord(v, 1 + i % 3, cycle[i], cycle[i + 1], 10**i, cycle[i + 2], cycle[i + 3])
        for i, v in enumerate(sweep)
    ]
    p = tmp_path / "curve.csv"
    summary = "rmse_snr_hypothesis=0.0123457 rmse_sample_hypothesis=1e-310"
    write_curve_csv(reversed(records), str(p), summary=summary)
    expected = "sweep_value,component,r2_mean,r2_std,n_reps,theory_r2,theory_alt_r2\n"
    expected += "".join(reference_line(dataclasses.astuple(r)) + "\n" for r in records)
    expected += f"# {summary}\n"
    assert p.read_bytes() == expected.encode()


@pytest.mark.parametrize("k", [1, 3])
def test_model_csv_matches_per_value_reference(tmp_path, k):
    mean = special_matrix((7,), seed=k)
    loadings = special_matrix((7, k), seed=10 + k)
    model = PpcaModel(mean, loadings, 0.1234565, 123, False, np.array([0.0, -1e300]))
    p = tmp_path / "model.csv"
    write_model_csv(model, str(p))
    expected = (
        f"# ppca-model sigma2={format(0.1234565, '.6g')} log_likelihood={format(-1e300, '.6g')}"
        f" n_iterations=123 converged=0 k={k}\n"
    )
    for mu, row in zip(mean, loadings):
        expected += reference_line([mu, *row]) + "\n"
    assert p.read_bytes() == expected.encode()


def test_ground_truth_csv_matches_per_value_reference(tmp_path):
    directions = special_matrix((9, 2), seed=5)
    gt = GroundTruth(directions, 5e-324, np.ones(2))
    p = tmp_path / "truth.csv"
    write_ground_truth_csv(gt, str(p), seed=2**40)
    expected = f"# noise_variance={format(5e-324, '.6g')} seed={2**40}\n"
    expected += "".join(reference_line(row) + "\n" for row in directions)
    assert p.read_bytes() == expected.encode()


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
    # with every optional key omitted, the dataclass defaults apply
    p.write_text(CONFIG_TEXT.replace("max_iterations = 250\n", ""))
    cfg = read_experiment_config(str(p))
    assert cfg.fixed_missing_rate == 0.0
    assert cfg.fit == FitOptions(k=2)


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
    # a value that does not parse is named by its key
    for key, bad in (("n", "sixty"), ("grid", "0.1, x"), ("norms", "1.0,,0.5"),
                     ("noise_variance", "small"), ("max_iterations", "2.5")):
        p.write_text(re.sub(f"^{key} = .*$", f"{key} = {bad}", CONFIG_TEXT, flags=re.M))
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: {key}: "):
            read_experiment_config(str(p))
    p.write_text(CONFIG_TEXT.replace("linspace(0, 0.8, 5)", "linspace(0, 0.8)"))
    with pytest.raises(FormatError, match="linspace"):
        read_experiment_config(str(p))
    p.write_text("not an ini file\n")
    with pytest.raises(FormatError, match="section"):
        read_experiment_config(str(p))
    # unknown keys, a typo or a key that is no longer read, are errors
    for line in ("max_iteration = 2", "k = 2", "tolerance_streak = 3", "rel_tolerance = 1e-9"):
        p.write_text(CONFIG_TEXT + line + "\n")
        with pytest.raises(FormatError, match=f"unknown key '{line.split()[0]}'"):
            read_experiment_config(str(p))


def test_config_keys_match_the_dataclasses():
    # k follows from the norms and every cell's fit seed from base_seed;
    # rel_tolerance is left to library callers
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"fit"}
    fit_fields = {f.name for f in dataclasses.fields(FitOptions)} - {"k", "seed", "rel_tolerance"}
    assert set(_CONFIG_KEYS) == config_fields | fit_fields
