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
import sys
from types import SimpleNamespace

import numpy as np

from .errors import MissingColumn, MissingData, NonNumericCell


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
        yield from _csv_rows(path, csv.reader(fh))


def _csv_rows(path, reader, width=None, before: int = 0, found: bool = False):
    """The stripped header that a table's csv reader reads first, unless the table's
    `width` is given; then (line number, stripped cells) of each row, after `before`
    lines, blank rows skipped. An empty file, a byte-order mark, a repeated column
    name, a row of other than `width` cells, and a table without data rows (unless
    some were `found` before) raise."""
    try:
        if width is None:
            header = next(reader, [])
            if header[:1] and header[0].startswith("\ufeff"):
                raise byte_order_mark(path)
            header = [h.strip() for h in header]
            if not reader.line_num:  # not even a header line
                raise MissingData(f"{path}: file is empty")
            if len(set(header)) != len(header):
                raise MissingColumn(f"{path}: a column name repeats in the header")
            yield header
            width = len(header)
        for row in reader:
            cells = list(map(str.strip, row))
            if not any(cells):
                continue
            if len(cells) != width:
                raise NonNumericCell(
                    f"{path}:{before + reader.line_num}: expected {width} cells, got {len(cells)}"
                )
            found = True
            yield before + reader.line_num, cells
    except csv.Error as exc:  # such as a stray quote that runs past the field size limit
        raise NonNumericCell(f"{path}:{before + reader.line_num}: {exc}") from None
    if not found:
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
    """(value column names, label cells per row, float matrix) of a table: the one
    block of read_matrix_rows."""
    columns, blocks = read_matrix_rows(path, label_columns, sys.maxsize, check_labels)
    [(labels, values)] = blocks
    return columns, labels, values


def read_matrix_rows(path, label_columns, block_rows: int, check_labels=None):
    """(value column names, lazy iterator of (label cells per row, float block)) of a
    table: the header is read here, and then a block of each block_rows data rows
    (blank rows are none) as the iterator reaches it.

    `label_columns(header)` checks the stripped header, raising the caller's
    error, and returns the indices of the text columns; every other column
    holds numbers, read as parse_floats reads them. `check_labels(line number,
    label cells)`, if given, sees each row in order before its numbers are read.
    A block is parsed in C when the label columns come first and it holds no
    quote, empty cell or non-finite number. From the first block that does, csv
    and parse_floats read the rest row by row, and give the file:line messages.
    """
    blocks = _matrix_blocks(path, label_columns, block_rows, check_labels)
    return next(blocks), blocks


def _matrix_blocks(path, label_columns, block_rows, check_labels):
    check_labels = check_labels or (lambda lineno, labels: None)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        # lines by readline, not next(fh), which would disable fh.tell()
        reader = csv.reader(iter(fh.readline, ""))
        header = next(_csv_rows(path, reader))
        label_idx = list(label_columns(header))
        value_idx = [j for j in range(len(header)) if j not in label_idx]
        columns = [header[j] for j in value_idx]
        yield columns
        # before: the lines ahead of the next block; found: whether a data row was read
        n, before, found = len(label_idx), reader.line_num, False

        def numbers():
            # physical lines are records, since no line holds a quote
            for lineno, line in enumerate(iter(fh.readline, ""), start=before + 1):
                if not line.strip():
                    continue
                if '"' in line:
                    raise ValueError("quoted cell")
                *cells, rest = line.split(",", n)
                if len(cells) < n or not rest.strip():  # loadtxt would skip an empty rest
                    raise ValueError("too few cells")
                linenos.append(lineno)
                labels.append(tuple(map(str.strip, cells)))
                yield rest
                if len(labels) == block_rows:
                    return

        while label_idx == list(range(n)) and value_idx:  # the C parse of a block
            at, linenos, labels, values = fh.tell(), [], [], None
            rests = numbers()
            with contextlib.suppress(ValueError):
                first = next(rests, None)
                if first is not None:
                    values = np.loadtxt(
                        itertools.chain([first], rests), delimiter=",", comments=None, ndmin=2
                    )
                    if values.shape != (len(labels), len(columns)) or not np.isfinite(values).all():
                        values = None
            if values is None:  # csv reads the rest, from this block's first line
                fh.seek(at)
                break
            for lineno, row_labels in zip(linenos, labels):
                check_labels(lineno, row_labels)
            before, found = linenos[-1], True
            yield labels, values
            del values  # before the next block is read
        labels, values = [], []
        rows = _csv_rows(path, csv.reader(iter(fh.readline, "")), len(header), before, found)
        for lineno, cells in rows:
            labels.append(tuple(cells[i] for i in label_idx))
            check_labels(lineno, labels[-1])
            values.append(parse_floats([cells[j] for j in value_idx], columns, f"{path}:{lineno}"))
            if len(labels) == block_rows:
                yield labels, np.stack(values)
                labels, values = [], []
        if labels:
            yield labels, np.stack(values)


def format_rows(values):
    """Each row of a 2-D float array as one text: its numbers' reprs joined by commas,
    NaN (a missing cell) as an empty cell. A float's repr holds no comma."""
    if not np.isnan(values).any():
        return (",".join(map(repr, row.tolist())) for row in values)
    return (",".join(["" if x != x else repr(x) for x in row.tolist()]) for row in values)


def write_table(path, header, rows) -> str:
    """Write a header and rows of (label cells, the row's numbers as one text, as
    format_rows gives it); return the sha256 of the bytes written.

    Only the header and labels are `csv`-quoted (a CR or LF too); numbers are written as is.
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
            write(line.pop()[:-2] + numbers + "\n")
    return digest.hexdigest()
