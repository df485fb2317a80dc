"""CSV and config-file serialization.

All real numbers are written with 6 significant digits; tests compare
them with tolerances, never string equality. Missing entries are empty
cells on disk (the token ``NaN`` is also accepted on read) and become
mask bits in memory.
"""

import configparser
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError
from .experiment import CurveRecord, ExperimentConfig
from .masked import MaskedMatrix
from .ppca import FitOptions

CURVE_COLUMNS = (
    "sweep_value",
    "component",
    "r2_mean",
    "r2_std",
    "n_reps",
    "theory_r2",
    "theory_alt_r2",
)


def _fmt(value):
    return format(float(value), ".6g")


@dataclass(frozen=True)
class MatrixFile:
    """How to read or write one matrix CSV."""

    path: str
    delimiter: str = ","
    missing_token: str = ""
    header: bool = False

    def __post_init__(self):
        if len(self.delimiter) != 1 or not self.delimiter.isprintable():
            raise DomainError("delimiter must be a single printable character")
        try:
            parsed = float(self.missing_token)
        except ValueError:
            return
        if math.isfinite(parsed):
            raise DomainError(
                f"missing token {self.missing_token!r} parses as a number"
            )


def read_masked_csv(file):
    """Read a matrix CSV into a MaskedMatrix.

    Accepts a MatrixFile or a plain path with default settings. Cells
    equal to the missing token, empty, or spelled ``NaN`` (any case) are
    masked out. Ragged rows and unparseable cells are format errors that
    name the offending line or (row, column).
    """
    if not isinstance(file, MatrixFile):
        file = MatrixFile(str(file))
    values = []
    mask = []
    width = None
    with open(file.path, newline="") as handle:
        reader = csv.reader(handle, delimiter=file.delimiter)
        for line_no, row in enumerate(reader, start=1):
            if file.header and line_no == 1:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(
                    f"{file.path}: line {line_no} has {len(row)} cells, expected {width}"
                )
            row_values = []
            row_mask = []
            data_row = len(values) + 1
            for col, cell in enumerate(row, start=1):
                cell = cell.strip()
                if cell == file.missing_token or cell == "" or cell.lower() == "nan":
                    row_values.append(float("nan"))
                    row_mask.append(False)
                    continue
                try:
                    row_values.append(float(cell))
                except ValueError:
                    raise FormatError(
                        f"{file.path}: cannot parse {cell!r} at row {data_row}, column {col}"
                    ) from None
                row_mask.append(True)
            values.append(row_values)
            mask.append(row_mask)
    if not values or width == 0:
        raise FormatError(f"{file.path}: no data")
    return MaskedMatrix(np.array(values), np.array(mask, dtype=bool))


def write_masked_csv(x, file):
    """Write a MaskedMatrix; unobserved entries become the missing token.

    With ``file.header`` the first line names the columns ``x1 .. xD``.
    """
    if not isinstance(file, MatrixFile):
        file = MatrixFile(str(file))
    with open(file.path, "w", newline="\n") as handle:
        if file.header:
            names = (f"x{j}" for j in range(1, x.n_cols + 1))
            handle.write(file.delimiter.join(names) + "\n")
        for row_values, row_mask in zip(x.values, x.mask):
            cells = [
                _fmt(v) if ok else file.missing_token
                for v, ok in zip(row_values, row_mask)
            ]
            handle.write(file.delimiter.join(cells) + "\n")


def write_curve_csv(records, path, summary=None):
    """Write aggregated sweep records, sorted by (sweep value, component).

    An optional summary string is appended as a trailing ``#`` comment
    line, which readers of the format skip.
    """
    records = list(records)
    if not records:
        raise DomainError("refusing to write an empty record set")
    records.sort(key=lambda r: (r.sweep_value, r.component))
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(CURVE_COLUMNS) + "\n")
        for r in records:
            handle.write(
                f"{_fmt(r.sweep_value)},{r.component},{_fmt(r.r2_mean)},"
                f"{_fmt(r.r2_std)},{r.n_reps},{_fmt(r.theory_r2)},"
                f"{_fmt(r.theory_alt_r2)}\n"
            )
        if summary:
            handle.write(f"# {summary}\n")


def read_curve_csv(path):
    """Read back a curve CSV written by :func:`write_curve_csv`."""
    records = []
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if header.split(",") != list(CURVE_COLUMNS):
            raise FormatError(f"{path}: unexpected header {header!r}")
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) != len(CURVE_COLUMNS):
                raise FormatError(f"{path}: line {line_no} has {len(cells)} cells")
            try:
                records.append(
                    CurveRecord(
                        sweep_value=float(cells[0]),
                        component=int(cells[1]),
                        r2_mean=float(cells[2]),
                        r2_std=float(cells[3]),
                        n_reps=int(cells[4]),
                        theory_r2=float(cells[5]),
                        theory_alt_r2=float(cells[6]),
                    )
                )
            except ValueError:
                raise FormatError(f"{path}: cannot parse line {line_no}") from None
    return records


def write_ground_truth_csv(gt, path, seed):
    """Write direction columns with a one-line metadata header."""
    with open(path, "w", newline="\n") as handle:
        handle.write(
            f"# noise_variance={_fmt(gt.noise_variance)} seed={int(seed)}\n"
        )
        for row in gt.directions:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def write_model_csv(model, path):
    """Write a fitted model: metadata header, then rows mean,loading_1..k."""
    with open(path, "w", newline="\n") as handle:
        handle.write(
            "# ppca-model"
            f" sigma2={_fmt(model.noise_variance)}"
            f" log_likelihood={_fmt(model.log_likelihood)}"
            f" n_iterations={model.n_iterations}"
            f" converged={int(model.converged)}"
            f" k={model.loadings.shape[1]}\n"
        )
        for mu, row in zip(model.mean, model.loadings):
            handle.write(_fmt(mu) + "," + ",".join(_fmt(v) for v in row) + "\n")


def _parse_grid(text):
    text = text.strip()
    if text.startswith("linspace(") and text.endswith(")"):
        parts = [p.strip() for p in text[len("linspace(") : -1].split(",")]
        if len(parts) != 3:
            raise FormatError("linspace takes exactly (start, stop, count)")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return tuple(float(v) for v in np.linspace(start, stop, count))
    return tuple(float(v) for v in text.split(","))


def read_experiment_config(path):
    """Parse an experiment config file into an ExperimentConfig.

    The format is an INI file with one ``[experiment]`` section; see the
    README for the key list. Grids are comma-separated values or
    ``linspace(start, stop, count)``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not parser.has_section("experiment"):
        raise FormatError(f"{path}: missing [experiment] section")
    section = parser["experiment"]

    def need(key):
        if key not in section:
            raise FormatError(f"{path}: missing key {key!r}")
        return section[key]

    try:
        norms = tuple(float(v) for v in need("norms").split(","))
        fit = FitOptions(
            k=section.getint("k", len(norms)),
            max_iterations=section.getint("max_iterations", FitOptions.max_iterations),
            rel_tolerance=section.getfloat("rel_tolerance", FitOptions.rel_tolerance),
            tolerance_streak=section.getint("tolerance_streak", FitOptions.tolerance_streak),
        )
        return ExperimentConfig(
            sweep_kind=need("sweep_kind"),
            grid=_parse_grid(need("grid")),
            n=int(need("n")),
            d=int(need("d")),
            norms=norms,
            noise_variance=float(need("noise_variance")),
            repetitions=int(need("repetitions")),
            base_seed=int(need("base_seed")),
            fit=fit,
            fixed_missing_rate=section.getfloat("fixed_missing_rate", 0.0),
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
