"""Dataset container and the one reader of input files.

A dataset is an n x m real matrix: rows are samples, columns are features.
``_read_table`` parses every numeric table the package reads (datasets, and
Gram files through ``_load_gram``), ``_load_labels`` every labels file, and
``_decode_json`` every JSON text, so the input rules live in one place;
``_is_json`` picks each CLI file's format by its name, for readers and
writers. A Gram file that ``depcon gram`` wrote has a binary twin beside it
(``_twin_outputs`` writes it, ``_twin_gram`` reads it), which ``_load_gram``
reads in place of the text whenever the twin's checksum shows it is that
text's. ``_check_finite``, ``_integer``, ``_as_seed_sequence`` and
``_mirror_rows`` also serve the other modules.
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    GramRangeError,
    LengthMismatchError,
    NonFiniteValueError,
    NonNumericCellError,
    NotSquareError,
    OutOfRangeError,
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
        values = _matrix(self.values)
        n, m = values.shape
        if n < 2:
            raise TooFewSamplesError(f"need at least 2 samples, got {n}")
        if m < 2:
            raise TooFewFeaturesError(f"need at least 2 features, got {m}")
        _check_finite(values, "dataset")
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


def _matrix(data) -> np.ndarray:
    """``data`` as a C-contiguous float64 matrix; TooFewFeaturesError unless it is 2-D."""
    values = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if values.ndim != 2:
        raise TooFewFeaturesError("dataset must be a 2-D matrix")
    return values


def _check_finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, or NonFiniteValueError naming the first NaN or infinite cell."""
    # a finite sum proves every entry finite without a temporary of the same size
    if not math.isfinite(values.sum()):
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            raise NonFiniteValueError(f"non-finite value in {what} at {tuple(bad[0].tolist())}")
    return values


def _integer(value):
    """``value`` as an int when it is an integer or an integral float, else None."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer()
    )
    return int(value) if integral and not isinstance(value, bool) else None


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` as a SeedSequence; OutOfRangeError for a negative integer."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise OutOfRangeError(f"need seed >= 0, got {seed}")
    return np.random.SeedSequence(seed)


def _filled_rows(reader):
    """The rows of a ``csv.reader`` that are not blank or whitespace-only."""
    return (row for row in reader if len(row) > 1 or (row and row[0].strip()))


def _is_header(row) -> bool:
    """Whether ``row`` holds a cell that is not a number, so it can only be a header."""
    try:
        [float(cell) for cell in row]
    except ValueError:
        return True
    return False


def _float(r, c, cell) -> float:
    try:
        return float(cell)
    except ValueError:
        raise NonNumericCellError(r, c, cell.strip()) from None


def _is_json(path) -> bool:
    """Whether the file at ``path`` is JSON by its name: a ``.json`` suffix in any case."""
    return Path(path).suffix.lower() == ".json"


def _decode_json(text, error, name):
    """The value of the JSON ``text`` (str, or bytes read as UTF-8); ``error``,
    the caller's error class, when it is not UTF-8 JSON or nests too deep."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{name}: not valid JSON ({exc})") from None


def _read_table(source, empty, *, json_key=None, has_header=False):
    """``(header or JSON payload, finite float matrix)`` from a path or stream.

    With ``json_key`` the source is a JSON object whose ``json_key`` entry
    is a list of equal-length rows of JSON numbers; the whole object is
    returned with the matrix. Otherwise it is comma-separated text: blank
    and whitespace-only lines are skipped and, when ``has_header``, the
    first filled row is returned as the header (cells stripped); when
    ``has_header`` is None, it is the header if ``_is_header``. A source
    that is not UTF-8, not such a JSON object, not readable as CSV, or holds
    no data row raises ``empty``, the caller's error class. Non-numeric
    cells are reported before non-finite ones.
    """
    stream = hasattr(source, "read")
    name = "input" if stream else Path(source).name
    try:
        text = source.read() if stream else None
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        if json_key is None:
            head, matrix = _read_csv(source, text, name, empty, has_header)
        else:
            head = _decode_json(Path(source).read_bytes() if text is None else text, empty, name)
            rows = head.get(json_key) if isinstance(head, dict) else None
            if not isinstance(rows, list) or not rows:
                raise empty(f'{name}: no "{json_key}" list of rows')
            matrix = _json_matrix(rows)
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell beyond csv's size limit
        raise empty(f"{name}: unreadable text ({exc})") from None
    return head, _check_finite(matrix, name)


def _read_csv(path, text, name, empty, has_header):
    """Parse ``text`` if it is given, else the file at ``path``."""
    if text is None:
        handle, target = open(path, "r", newline="", encoding="utf-8"), path
    else:
        handle, target = io.StringIO(text, newline=""), io.StringIO(text, newline="")
    with handle:
        reader = csv.reader(handle)
        rows = _filled_rows(reader)
        first = next(rows, None)
        header, skip = None, 0
        if has_header or (has_header is None and _is_header(first or [])):
            header, skip = [cell.strip() for cell in first or []], reader.line_num
            first = next(rows, None)
        if first is None:
            raise empty(f"{name}: no data rows")
        try:
            # given the path, loadtxt streams the file at C speed
            matrix = np.loadtxt(target, delimiter=",", comments=None, quotechar='"',
                                ndmin=2, skiprows=skip, encoding="utf-8")
        except ValueError:
            # locate the bad cell or row; float() also takes a few spellings
            # loadtxt refuses (digit underscores, non-ASCII digits)
            matrix = _parse_rows(itertools.chain([first], rows))
    return header, matrix


def _parse_rows(rows) -> np.ndarray:
    parsed = []
    for r, row in enumerate(rows):
        if parsed and len(row) != len(parsed[0]):
            raise RaggedRowsError(r, len(parsed[0]), len(row))
        parsed.append([_float(r, c, cell) for c, cell in enumerate(row)])
    return np.asarray(parsed, dtype=np.float64)


def _json_matrix(rows) -> np.ndarray:
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise NonNumericCellError(r, 0, repr(row))
        if len(row) != len(rows[0]):
            raise RaggedRowsError(r, len(rows[0]), len(row))
        for c, cell in enumerate(row):
            if type(cell) not in (int, float):  # a JSON number; bool is not one
                raise NonNumericCellError(r, c, repr(cell))
    try:
        return np.asarray(rows, dtype=np.float64)
    except OverflowError:  # an integer beyond the float64 range
        raise NonFiniteValueError("an integer cell exceeds the float64 range") from None


def _label(r, value) -> int:
    """``value`` as a label: an integral number within the int64 range."""
    label = _integer(value)
    if label is None or not -(2**63) <= label < 2**63:
        raise NonNumericCellError(r, 0, repr(value))
    return label


def _load_labels(path) -> np.ndarray:
    """Integer labels: a JSON ``labels`` list, or the first cell of each filled CSV row.

    As in a dataset CSV, only the first filled row may be a non-numeric
    header. A file that is not UTF-8, not readable as CSV, not JSON, or has
    no ``labels`` list holds no labels at all; neither may any file hold an
    empty list. An empty name names no file (``Path`` would read it as ``.``).
    """
    if not os.fspath(path):
        raise FileNotFoundError(errno.ENOENT, "no file name", path)
    path = Path(path)
    try:
        if _is_json(path):
            payload = _decode_json(path.read_bytes(), LengthMismatchError, path)
            labels = payload.get("labels") if isinstance(payload, dict) else None
            if not isinstance(labels, list):
                raise LengthMismatchError(f"{path}: no 'labels' list")
        else:
            with open(path, "r", newline="", encoding="utf-8") as handle:
                cells = [row[0] for row in _filled_rows(csv.reader(handle))]
            cells = cells[1:] if _is_header(cells[:1]) else cells
            labels = [_float(r, 0, cell) for r, cell in enumerate(cells)]
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell beyond csv's size limit
        raise LengthMismatchError(f"{path}: unreadable text ({exc})") from None
    if not labels:
        raise LengthMismatchError(f"{path}: no labels")
    return np.asarray([_label(r, value) for r, value in enumerate(labels)], dtype=np.int64)


def load_dataset(source, has_header: bool = False) -> Dataset:
    """Parse a CSV stream or path into a Dataset.

    Comma-delimited, decimal-point floats, optional single header row (the
    first filled row); blank lines are skipped.
    """
    names, values = _read_table(source, TooFewSamplesError, has_header=bool(has_header))
    return Dataset(values, tuple(names) if names else None)


def load_dataset_json(source) -> Dataset:
    """Parse ``{"feature_names": [...], "rows": [[...], ...]}`` into a Dataset.

    Text that is not JSON, or JSON without a ``rows`` list, counts as a
    dataset with no rows.
    """
    payload, values = _read_table(source, TooFewSamplesError, json_key="rows")
    names = payload.get("feature_names")
    if names is not None and not isinstance(names, list):
        raise RaggedRowsError("header", values.shape[1], type(names).__name__)
    return Dataset(values, tuple(names) if names else None)


def _load_any_dataset(path) -> Dataset:
    """The CLI's dataset: JSON by its extension, else CSV whose first filled
    row is a header when ``_is_header``."""
    if _is_json(path):
        return load_dataset_json(path)
    names, values = _read_table(path, TooFewSamplesError, has_header=None)
    return Dataset(values, tuple(names) if names else None)


#: A twin's first 8 bytes, as a native uint64: "DEPCONG" and version 2 on a
#: little-endian machine. Another byte order reads another number.
TWIN_MAGIC = int.from_bytes(b"DEPCONG\x02", "little")
#: A twin's last bytes: the CRC32 of the text and the twin before it, a native uint32.
_TWIN_CHECK_BYTES = 4


def _twin_check(crc) -> bytes:
    return np.array(crc, dtype=np.uint32).tobytes()


def _mirror_rows(square, start, stop):
    """Copy the upper-triangle cells of rows start..stop-1 of ``square`` to
    their mirror cells below the diagonal, a block at a time."""
    square[stop:, start:stop] = square[start:stop, stop:].T
    block = square[start:stop, start:stop]
    np.copyto(block, block.T, where=np.tri(stop - start, k=-1, dtype=bool))


def _twin_path(path) -> str:
    return f"{path}.twin"


def _twin_outputs(output, n, bands):
    """``_publish``'s pairs for the Gram file ``output``, a ``(path, chunks)``
    pair streaming an n-row Gram as text, and for its twin at ``_twin_path``.

    The twin holds ``TWIN_MAGIC`` and n (native uint64), the Gram's upper
    triangle row by row from the diagonal on (native float64), and the CRC32
    of the text's bytes as streamed followed by the twin's own header and
    values (``_twin_check``). Its values come from ``bands``, ``(start,
    band)`` pairs as ``kernel._gram_bands`` yields them, iterated only once
    the text is written: they are the cells the text holds as reprs, bit for
    bit.
    """
    path, text = output
    crc = 0

    def checked(chunks):
        nonlocal crc
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            yield chunk

    def values():
        yield np.array([TWIN_MAGIC, n], dtype=np.uint64).tobytes()
        for _, band in bands:
            yield b"".join(row[r:].tobytes() for r, row in enumerate(band))

    def twin():
        yield from checked(values())
        yield _twin_check(crc)

    return (path, checked(text)), (_twin_path(path), twin())


def _twin_gram(path):
    """The Gram held by the twin of the Gram file at ``path``, or None when
    that twin is missing, not a regular file, not of its header's size or
    its CRC32 is not that of the file's bytes and its own. The size is
    checked before anything is allocated or read."""
    twin_path = _twin_path(path)
    if not os.path.isfile(twin_path):  # opening a FIFO would block
        return None
    try:
        with open(twin_path, "rb") as twin:
            head = twin.read(16)
            if len(head) < 16:
                return None
            magic, n = map(int, np.frombuffer(head, dtype=np.uint64))
            size = 16 + 8 * (n * (n + 1) // 2) + _TWIN_CHECK_BYTES  # header, values, CRC32
            if magic != TWIN_MAGIC or os.fstat(twin.fileno()).st_size != size:
                return None
            crc = 0
            with open(path, "rb") as text:
                for chunk in iter(lambda: text.read(1 << 20), b""):
                    crc = zlib.crc32(chunk, crc)
            crc = zlib.crc32(head, crc)
            gram = np.empty((n, n))
            for i in range(n):
                row = gram[i, i:]
                if twin.readinto(row) != row.nbytes:
                    return None
                crc = zlib.crc32(row, crc)
            if twin.read() != _twin_check(crc):
                return None
    except OSError:
        return None
    for start in range(0, n, 128):
        _mirror_rows(gram, start, min(start + 128, n))
    return gram


def _load_gram(path) -> np.ndarray:
    """A kappa Gram file: a finite matrix, CSV or JSON ``{"values": rows}`` by
    ``_is_json``, with entries in [-1, 1] up to rounding. Read from its twin
    when ``_twin_gram`` finds one, else parsed."""
    gram = _twin_gram(path)
    if gram is None:
        gram = _read_table(path, NotSquareError, json_key="values" if _is_json(path) else None)[1]
    else:
        _check_finite(gram, Path(path).name)
    # max and min first, so an in-range Gram needs no n x n mask
    bound = 1.0 + 1e-9
    if gram.max(initial=-bound) > bound or gram.min(initial=bound) < -bound:
        r, c = np.argwhere(np.abs(gram) > bound)[0]
        raise GramRangeError(
            f"{Path(path).name}: kappa value {float(gram[r, c])!r} at ({r}, {c}) outside [-1, 1]"
        )
    return gram
