"""CSV and config-file serialization.

Every file writes its reals in ``REAL_FORMAT``, 6 significant digits,
its counts as exact integers and a NaN as an empty cell. A matrix CSV
has one fixed format: comma-separated cells, no header, one line per
sample. Missing entries are written as empty cells, so in a one-column
file as blank lines; on read, whitespace-only cells and ``NaN`` in any
case are missing too. They become mask bits in memory.
"""

import re
from contextlib import contextmanager
from dataclasses import MISSING, fields

import numpy as np

from .errors import DomainError, FormatError
from .experiment import CurveRecord, ExperimentConfig
from .masked import MaskedMatrix
from .ppca import FitOptions

REAL_FORMAT = ".6g"
CURVE_COLUMNS = tuple(f.name for f in fields(CurveRecord))

# an empty or whitespace-only cell, from its leading comma; the reader
# prepends one comma so that the first cell has one too
_BLANK_CELL = re.compile(r",\s*(?=,|$)")
_NUMPY_CELL = re.compile(r"at row (\d+), column (\d+)")
# a config comment: a '#' at the start of a line or after whitespace, to its end
_COMMENT = re.compile(r"(?:^|\s)#.*")


@contextmanager
def _reading(path):
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped,
    for the block, whose ValueErrors leave as one FormatError naming the
    path; a byte that does not decode is named by its offset in the file."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        try:  # exc.start counts from the chunk the text layer last decoded
            with open(path, "rb") as raw:
                raw.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise FormatError(f"{path}: not text: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_masked_csv(path):
    """Read a UTF-8 matrix CSV into a MaskedMatrix.

    Cells that are empty, whitespace or spelled ``NaN`` (any case, with
    or without a sign) are masked out. Every format error names the file:
    a ragged row its line, an unparseable cell its (row, column), a byte
    that does not decode its offset in the file.
    """
    with _reading(path) as handle:
        # a one-column row whose entry is missing is written as a blank line
        lines = [_BLANK_CELL.sub(",nan", "," + line.rstrip("\n"))[1:] for line in handle]
        if not lines:
            raise FormatError("no data")
        width = lines[0].count(",") + 1
        for line_no, line in enumerate(lines, start=1):
            cells = line.count(",") + 1
            if cells != width:
                raise FormatError(f"line {line_no} has {cells} cells, expected {width}")
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            where = _NUMPY_CELL.search(str(exc))
            if where is None:
                raise
            row, col = int(where[1]) + 1, int(where[2])  # no line is blank, so rows are lines
            cell = lines[row - 1].split(",")[col - 1].strip()
            raise FormatError(f"cannot parse {cell!r} at row {row}, column {col}")
    mask = ~np.isnan(values)
    values.flags.writeable = mask.flags.writeable = False  # fresh: no copies
    return MaskedMatrix(values, mask)


def _write_rows(path, types, rows, head=None, tail=None):
    """Write the line ``head``, one line per row, then the line ``tail``;
    ``head`` and ``tail`` only if given. One ``%`` call formats a row: a
    ``float`` column of ``types`` in REAL_FORMAT, an ``int`` one with
    ``%d`` so that counts stay exact, and a NaN cell as an empty cell."""
    # a NaN prints as nan, which no other cell contains, and is then blanked
    row_format = ",".join("%d" if t is int else "%" + REAL_FORMAT for t in types) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if head:
            handle.write(head + "\n")
        for row in rows:
            handle.write((row_format % tuple(row)).replace("nan", ""))
        if tail:
            handle.write(tail + "\n")


def write_masked_csv(x, path):
    """Write a MaskedMatrix; unobserved entries become empty cells.

    Observed values are written as ``format(v, REAL_FORMAT)`` would write
    them. An observed NaN is written as an empty cell too, so it reads back
    as missing.
    """
    rows = (np.where(m, v, np.nan).tolist() for v, m in zip(x.values, x.mask))
    _write_rows(path, (float,) * x.values.shape[1], rows)


def write_curve_csv(records, path, summary=None):
    """Write aggregated sweep records, sorted by (sweep value, component).

    An optional summary string is appended as a trailing ``#`` comment
    line, which readers of the format skip.
    """
    records = sorted(records, key=lambda r: (r.sweep_value, r.component))
    if not records:
        raise DomainError("refusing to write an empty record set")
    rows = ([getattr(r, name) for name in CURVE_COLUMNS] for r in records)
    types = [f.type for f in fields(CurveRecord)]
    _write_rows(path, types, rows, ",".join(CURVE_COLUMNS), f"# {summary}" if summary else None)


def write_ground_truth_csv(gt, path, seed):
    """Write direction columns with a one-line metadata header."""
    head = f"# noise_variance={float(gt.noise_variance):{REAL_FORMAT}} seed={int(seed)}"
    _write_rows(path, (float,) * gt.directions.shape[1], gt.directions.tolist(), head)


def write_model_csv(model, path):
    """Write a fitted model: metadata header, then rows mean,loading_1..k."""
    head = (
        "# ppca-model"
        f" sigma2={float(model.noise_variance):{REAL_FORMAT}}"
        f" log_likelihood={float(model.loglik_history[-1]):{REAL_FORMAT}}"
        f" n_iterations={model.n_iterations}"
        f" converged={int(model.converged)}"
        f" k={model.loadings.shape[1]}"
    )
    rows = ([mu, *row] for mu, row in zip(model.mean.tolist(), model.loadings.tolist()))
    _write_rows(path, (float,) * (model.loadings.shape[1] + 1), rows, head)


def real_list(text):
    """A comma-separated list of reals, as a tuple of floats."""
    return tuple(float(v) for v in text.split(","))


def _parse_grid(text):
    text = text.strip()
    if text.startswith("linspace(") and text.endswith(")"):
        parts = [p.strip() for p in text[len("linspace(") : -1].split(",")]
        if len(parts) != 3:
            raise FormatError("linspace takes exactly (start, stop, count)")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return tuple(float(v) for v in np.linspace(start, stop, count))
    return real_list(text)


# each config key with the parser of its value
_CONFIG_KEYS = {
    "sweep_kind": str, "grid": _parse_grid, "norms": real_list,
    "n": int, "d": int, "repetitions": int, "base_seed": int, "max_iterations": int,
    "noise_variance": float, "fixed_missing_rate": float,
}
# a key may be omitted when its field has a default; every FitOptions key has one
_REQUIRED_KEYS = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}


def read_experiment_config(path):
    """Parse a UTF-8 config file, in one pass, into an ExperimentConfig; the
    README states its grammar and keys, and a grid may be ``linspace(start,
    stop, count)``. Every error names the file once, a syntax error its line."""
    values = {}
    with _reading(path) as handle:
        lines = ((no, _COMMENT.sub("", line).strip()) for no, line in enumerate(handle, start=1))
        lines = ((no, line) for no, line in lines if line)
        no, line = next(lines, (1, ""))
        if line != "[experiment]":
            raise FormatError(f"line {no}: expected the section header [experiment], got {line!r}")
        for no, line in lines:
            if line.startswith("[") and line.endswith("]"):
                raise FormatError(f"line {no}: expected one [experiment] section, got {line!r}")
            key, equals, text = (part.strip() for part in line.partition("="))
            if not equals:
                raise FormatError(f"line {no}: expected key = value, got {line!r}")
            if key not in _CONFIG_KEYS or key in values:
                what = "repeated" if key in values else "unknown"
                raise FormatError(f"line {no}: {what} key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](text)
            except ValueError as exc:
                raise FormatError(f"{key}: {exc}")
        missing = [key for key in _CONFIG_KEYS if key in _REQUIRED_KEYS and key not in values]
        if missing:
            raise FormatError(f"missing key {missing[0]!r}")
        fit_keys = {f.name: values.pop(f.name) for f in fields(FitOptions) if f.name in values}
        return ExperimentConfig(fit=FitOptions(k=len(values["norms"]), **fit_keys), **values)
