"""The one CSV dialect of the engine's table files.

UTF-8, LF line ends, `csv` quoting, one header row, floats written with
repr. Only an empty cell is missing (NaN); any other number must be finite.
"""
from __future__ import annotations

import contextlib
import csv
import math

import numpy as np

from .errors import MissingColumn, MissingData, NonNumericCell


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
            header = [h.strip() for h in next(reader, [])]
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


def write_table(path, header, rows) -> None:
    """Write a header and rows of cells: strings, ints, floats, or None for empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
