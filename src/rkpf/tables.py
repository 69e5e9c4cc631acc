"""The one CSV dialect of the engine's table files.

UTF-8, LF line ends, `csv` quoting, one header row, floats written with
repr. Only an empty cell is missing (NaN); any other number must be finite.
Names (regions, variables, subject areas) follow check_names, so a table
the engine writes reads back with the same names.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np

from .errors import EngineError, MissingColumn, MissingData, NonNumericCell


def check_names(names, error, what: str) -> None:
    """Raise `error` naming the first of `names` (each a `what`) that a table file
    would not give back as it is: one that repeats, one with surrounding whitespace
    (the reader strips cells) or one holding a NUL (a unicode array drops a
    trailing one)."""
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{what} {name!r} appears more than once")
        if name != name.strip() or "\x00" in name:
            raise error(f"{what} {name!r} has surrounding whitespace or a NUL")
        seen.add(name)


def read_table(path):
    """(stripped header, lazy iterator of (line number, stripped cells)).

    Blank rows are skipped. An empty file, a repeated column name, a file
    without data rows and a row whose cell count differs from the header's raise.
    """
    rows = _rows(path)
    return next(rows), rows


def _rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header[:1] and header[0].startswith("\ufeff"):
                raise byte_order_mark(path)
            header = [h.strip() for h in header]
            if not reader.line_num:  # not even a header line
                raise MissingData(f"{path}: file is empty")
            if len(set(header)) != len(header):
                raise MissingColumn(f"{path}: a column name repeats in the header")
            yield header
            header_only = True
            for row in reader:
                cells = list(map(str.strip, row))
                if not any(cells):
                    continue
                if len(cells) != len(header):
                    raise NonNumericCell(
                        f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(cells)}"
                    )
                header_only = False
                yield reader.line_num, cells
        except csv.Error as exc:  # such as a stray quote that runs past the field size limit
            raise NonNumericCell(f"{path}:{reader.line_num}: {exc}") from None
    if header_only:
        raise MissingData(f"{path}: header only, no data rows")


def byte_order_mark(path) -> NonNumericCell:
    """The error for a text file that starts with a UTF-8 byte-order mark, which the
    engine's readers would otherwise keep in the first name."""
    return NonNumericCell(f"{path}: starts with a UTF-8 byte-order mark")


def not_utf8(path) -> NonNumericCell:
    """The error for a text file that does not decode, naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # text mode ends a line at \n, \r or \r\n, as bytes.splitlines does
        line = len((raw[: exc.start] + b"x").splitlines())
        return NonNumericCell(
            f"{path}:{line}: not UTF-8 text: {exc.reason} at byte {raw[exc.start]:#04x}"
        )
    return NonNumericCell(f"{path}: not UTF-8 text")


def parse_floats(cells, columns, where) -> np.ndarray:
    """Float array of one row's cells; `columns` and `where` (file:line) name a bad cell."""
    with contextlib.suppress(ValueError):
        values = np.array([c or "nan" for c in cells] if "" in cells else cells, dtype=float)
        # an empty cell parses to NaN, so this holds iff every other cell is finite
        if np.count_nonzero(np.isfinite(values)) == len(cells) - cells.count(""):
            return values
    # numpy parses a string exactly as float() does, so some cell fails here
    for name, cell in zip(columns, cells):
        with contextlib.suppress(ValueError):
            if not cell or math.isfinite(float(cell)):
                continue
        raise NonNumericCell(f"{where}: column {name!r}: cannot parse {cell!r} as a finite number")


def read_matrix(path, label_columns, check_labels=None):
    """(value column names, label cells per row, float matrix) of a table.

    `label_columns(header)` checks the stripped header, raising the caller's
    error, and returns the indices of the text columns; every other column
    holds numbers, read as parse_floats reads them. `check_labels(line
    number, label cells)`, if given, sees each row in order before its
    numbers are read. The file is parsed in C when its label columns come
    first and it holds no quote, empty cell or non-finite number. Otherwise
    read_table and parse_floats read it row by row, and they give the
    file:line messages.
    """
    check_labels = check_labels or (lambda lineno, labels: None)
    parsed = None
    with contextlib.suppress(ValueError, csv.Error, EngineError):
        parsed = _read_matrix_c(path, label_columns)
    if parsed is not None:
        columns, lines, labels, values = parsed
        for lineno, row_labels in zip(lines, labels):
            check_labels(lineno, row_labels)
        return columns, labels, values
    header, rows = read_table(path)
    label_idx = label_columns(header)
    value_idx = [j for j in range(len(header)) if j not in label_idx]
    columns = [header[j] for j in value_idx]
    labels, values = [], []
    for lineno, cells in rows:
        labels.append(tuple(cells[i] for i in label_idx))
        check_labels(lineno, labels[-1])
        values.append(parse_floats([cells[j] for j in value_idx], columns, f"{path}:{lineno}"))
    return columns, labels, np.stack(values)


def _read_matrix_c(path, label_columns):
    """(columns, line numbers, labels, matrix) by np.loadtxt, or None or an
    exception where the file needs the per-row path."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if len(set(header)) != len(header):
            return None
        label_idx = list(label_columns(header))
        n = len(label_idx)
        if label_idx != list(range(n)) or n == len(header):
            return None
        lines, labels = [], []

        def numbers():
            # physical lines are records, since no line holds a quote
            for lineno, line in enumerate(fh, start=reader.line_num + 1):
                if not line.strip():
                    continue
                if '"' in line:
                    raise ValueError("quoted cell")
                *cells, rest = line.split(",", n)
                if len(cells) < n or not rest.strip():  # loadtxt would skip an empty rest
                    raise ValueError("too few cells")
                lines.append(lineno)
                labels.append(tuple(map(str.strip, cells)))
                yield rest

        rows = numbers()
        first = next(rows, None)
        if first is None:
            return None
        values = np.loadtxt(
            itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2
        )
    if values.shape != (len(labels), len(header) - n) or not np.isfinite(values).all():
        return None
    return header[n:], lines, labels, values


def format_rows(values):
    """Each row of a 2-D float array as repr strings, NaN (a missing cell) as ""."""
    if not np.isnan(values).any():
        return (list(map(repr, row.tolist())) for row in values)
    return (["" if x != x else repr(x) for x in row.tolist()] for row in values)


def write_table(path, header, rows) -> str:
    """Write a header and rows of (label cells, numbers already formatted as text);
    return the sha256 of the bytes written.

    Only the header and labels are `csv`-quoted (a CR or LF too); numbers are joined as is.
    A header that check_names refuses, such as one that repeats a name, raises before
    the file is opened.
    """
    check_names(header, lambda message: MissingColumn(f"{path}: {message}"), "header name")
    line = []
    quoted = csv.writer(SimpleNamespace(write=line.append), lineterminator="\r\n")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def write(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        quoted.writerow(header)
        write(line.pop()[:-2] + "\n")
        for labels, numbers in rows:
            quoted.writerow([*labels, ""])  # "a,b,\r\n" for labels a and b
            write(line.pop()[:-2] + ",".join(numbers) + "\n")
    return digest.hexdigest()
