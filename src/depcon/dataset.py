"""Dataset container and CSV/JSON loading.

A dataset is an n x m real matrix: rows are samples, columns are features.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NonFiniteValueError,
    NonNumericCellError,
    RaggedRowsError,
    TooFewFeaturesError,
    TooFewSamplesError,
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable sample matrix with optional feature names."""

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2:
            raise TooFewFeaturesError("dataset must be a 2-D matrix")
        n, m = values.shape
        if n < 2:
            raise TooFewSamplesError(f"need at least 2 samples, got {n}")
        if m < 2:
            raise TooFewFeaturesError(f"need at least 2 features, got {m}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteValueError(f"non-finite value at ({bad[0]}, {bad[1]})")
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != m:
                raise RaggedRowsError("header", m, len(names))
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def _open_text(source):
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data)
    return open(Path(source), "r", newline="", encoding="utf-8")


def load_dataset(source, has_header: bool = False) -> Dataset:
    """Parse a CSV stream or path into a Dataset.

    Comma-delimited, decimal-point floats, optional single header row.
    """
    names = None
    rows = []
    try:
        with _open_text(source) as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise TooFewSamplesError(f"CSV dataset is not UTF-8 text: {exc}") from None
    width = None
    for row in csv.reader(io.StringIO(text)):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        if has_header and names is None and not rows:
            names = [cell.strip() for cell in row]
            width = len(names)
            continue
        if width is None:
            width = len(row)
        if len(row) != width:
            raise RaggedRowsError(len(rows), width, len(row))
        parsed = []
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCellError(len(rows), col, cell.strip()) from None
            if not math.isfinite(value):
                raise NonFiniteValueError(f"non-finite value at ({len(rows)}, {col})")
            parsed.append(value)
        rows.append(parsed)
    if len(rows) < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {len(rows)}")
    if width is None or width < 2:
        raise TooFewFeaturesError(f"need at least 2 features, got {width or 0}")
    return Dataset(np.asarray(rows, dtype=np.float64), tuple(names) if names else None)


def load_dataset_json(source) -> Dataset:
    """Parse ``{"feature_names": [...], "rows": [[...], ...]}`` into a Dataset.

    Text that is not JSON, or JSON without a ``rows`` list, counts as a
    dataset with no rows.
    """
    with _open_text(source) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # undecodable bytes or JSON
            raise TooFewSamplesError(f"JSON dataset is not valid JSON: {exc}") from None
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not rows:
        raise TooFewSamplesError("JSON dataset has no rows")
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise NonNumericCellError(r, 0, repr(row))
    if len(rows) < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {len(rows)}")
    width = len(rows[0])
    if width < 2:
        raise TooFewFeaturesError(f"need at least 2 features, got {width}")
    values = np.empty((len(rows), width), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowsError(r, width, len(row))
        for c, cell in enumerate(row):
            if not isinstance(cell, (int, float)) or isinstance(cell, bool):
                raise NonNumericCellError(r, c, repr(cell))
            if not math.isfinite(cell):
                raise NonFiniteValueError(f"non-finite value at ({r}, {c})")
            values[r, c] = float(cell)
    names = payload.get("feature_names")
    if names is not None and not isinstance(names, list):
        raise RaggedRowsError("header", width, type(names).__name__)
    return Dataset(values, tuple(names) if names else None)


def dataset_to_json(data: Dataset) -> dict:
    out = {"rows": data.values.tolist()}
    if data.feature_names is not None:
        out["feature_names"] = list(data.feature_names)
    return out


def dataset_to_csv(data: Dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if data.feature_names is not None:
        writer.writerow(data.feature_names)
    writer.writerows(data.values.tolist())
    return buf.getvalue()
