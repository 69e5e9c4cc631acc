"""Region-level scientometric indicators from publication records.

Full counting attributes a co-authored publication once to every region on
it. FWCI is the mean ratio of citations to the expected field baseline;
quartile shares are percentages of a region-year's output in first-quartile
and in unranked sources. Thematic profiles are subject-area incidence
shares and feed the proximity weights.

A publications file is read once, a run of records at a time, and each run
is checked and then counted by one fold (`_fold`) into `Publications`, the
counts these computations read, and no record. A run is checked one record at
a time by `_record_columns`, the reference, which names a bad record by its
file:line; a JSON-lines run whose records are all in the canonical shape is
checked in bulk instead (`_canonical_columns`). `ingest` leaves the incidence counts in the bundle as
`publications.npz`, keyed by the sha256 of the publications file and of its
vocabulary, so that `weights` builds its profiles without decoding the file
again (see rkpf.manifest).
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from array import array
from collections import Counter
from dataclasses import dataclass, field
from json.decoder import WHITESPACE

import numpy as np

from .errors import (
    EngineError,
    MissingColumn,
    MissingData,
    NonNumericCell,
    UnknownSubjectArea,
)
from .manifest import read_sidecar, recorded_digest, write_sidecar
from .tables import byte_order_mark, check_names, read_table, write_table

QUARTILES = ("Q1", "Q2", "Q3", "Q4", "NONE")
# panel column -> RegionYearIndicators field, for indicators.csv and ingest's merge
INDICATOR_COLUMNS = {"PUBS": "pub_count", "FWCI": "fwci", "Q1SH": "q1_share", "NQSH": "nq_share"}


@dataclass
class Publications:
    """Checked publication records, folded into the counts the indicators and the
    thematic profiles read; `len()` is the number of records. load_publications
    fills it, and _fold is the one code that writes `cells` and `incidences`.

    `cells` maps each (region, year) that a record lists to [the citation ratios
    of its records in record order, its Q1 count, its NONE count]. `incidences`
    counts each (region, subject area) that a record lists together, so it
    covers every region and every subject area the records list.
    """

    records: int = 0
    cells: dict = field(default_factory=dict)
    incidences: Counter = field(default_factory=Counter)

    def __len__(self) -> int:
        return self.records


@dataclass(frozen=True)
class RegionYearIndicators:
    region: str
    year: int
    pub_count: int
    fwci: float
    q1_share: float  # percent, 0-100
    nq_share: float  # percent, 0-100


def region_year_indicators(pubs: Publications) -> list[RegionYearIndicators]:
    """All region-year indicator rows derivable from the records, in (region, year) order.

    Full counting: a record counts once in the cell of every region it lists.
    FWCI is the mean of the cell's citation ratios, taken in record order, and
    a quartile share is 100 * count / the cell's record count.
    """
    rows = []
    with np.errstate(over="ignore"):  # a mean that overflows is named below
        for (region, year), (ratios, q1, nq) in sorted(pubs.cells.items()):
            fwci = float(np.mean(np.frombuffer(ratios)))
            if not math.isfinite(fwci):
                raise NonNumericCell(
                    f"FWCI of {region!r}, {year} is {fwci}: its mean ratio overflows"
                )
            total = len(ratios)
            rows.append(RegionYearIndicators(
                region, year, total, fwci, 100.0 * q1 / total, 100.0 * nq / total
            ))
    return rows


# ---------------------------------------------------------------------------
# i/o
# ---------------------------------------------------------------------------

_FIELDS = frozenset({"id", "year", "regions", "subject_areas", "citations",
                     "expected_citations", "journal_quartile"})
_raw_decode = json.JSONDecoder().raw_decode
_first_character = operator.itemgetter(0)
_TAKE_FIELD = {name: operator.itemgetter(name) for name in sorted(_FIELDS)}
_QUARTILE_CODES = {q: i for i, q in enumerate(QUARTILES)}
# lines of a JSON-lines file decoded and folded at a time: enough to spread numpy's
# per-call cost, few enough that the run's decoded values stay small
CHUNK_LINES = 256


def _json_line(line: str):
    """json.loads of a stripped line, with its errors, minus its per-call dispatch."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    obj, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, WHITESPACE.match(line, end).end())
    return obj


def _record_columns(obj, vocabulary) -> tuple:
    """(year, regions, subject_areas, ratio, quartile) of one record mapping, names
    stripped as a table cell is. The reference check of a record: an EngineError if
    it is invalid, in the order the checks run here."""
    if not isinstance(obj, dict):
        raise NonNumericCell(f"publication record must be an object, got {type(obj).__name__}")
    if not obj.keys() >= _FIELDS:
        missing = sorted(_FIELDS - obj.keys())
        raise MissingColumn(f"publication record missing fields {missing}")
    regions = obj["regions"]
    areas = obj["subject_areas"]
    if isinstance(regions, str):
        regions = [r for r in regions.split(";") if r.strip()]
    if isinstance(areas, str):
        areas = [a for a in areas.split(";") if a.strip()]
    if not (
        isinstance(regions, list)
        and isinstance(areas, list)
        and {str}.issuperset(map(type, regions + areas))
    ):
        raise NonNumericCell("regions and subject_areas must be lists of strings")
    regions = frozenset(map(str.strip, regions))
    areas = frozenset(map(str.strip, areas))
    if vocabulary is not None and not vocabulary.issuperset(areas):
        unknown = sorted(areas - vocabulary)
        raise UnknownSubjectArea(f"subject areas {unknown} not in the vocabulary")
    year = obj["year"]
    citations = obj["citations"]
    # JSON integers, the common case, need no check; a bool is no integer here
    if type(year) is not int or type(citations) is not int:
        for key, value in (("year", year), ("citations", citations)):
            if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
                raise NonNumericCell(f"{key} must be an integer, got {value!r}")
    try:
        rid = str(obj["id"])
        year = int(year)
        citations = int(citations)
        expected = float(obj["expected_citations"])
        quartile = str(obj["journal_quartile"]).strip() or "NONE"
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonNumericCell(str(exc)) from None
    if not regions:
        raise NonNumericCell(f"record {rid!r}: regions must be nonempty")
    if not areas:
        raise NonNumericCell(f"record {rid!r}: subject_areas must be nonempty")
    if citations < 0:
        raise NonNumericCell(f"record {rid!r}: citations must be >= 0")
    if not 0 < expected < math.inf:
        raise NonNumericCell(f"record {rid!r}: expected_citations must be finite and > 0")
    try:
        ratio = citations / expected
    except OverflowError:  # an int too large for a float
        ratio = math.inf
    if not math.isfinite(ratio):
        raise NonNumericCell(
            f"record {rid!r}: citations / expected_citations is not a finite float")
    if quartile not in QUARTILES:
        raise NonNumericCell(f"record {rid!r}: journal_quartile {quartile!r} not in {QUARTILES}")
    return year, regions, areas, ratio, quartile


def _json_chunks(path):
    """(number of the first line, stripped lines) of each run of up to CHUNK_LINES lines
    of a JSON-lines file; a blank line stays in the run as "". The lines read before a
    byte that is not UTF-8 come as a run before its error, so that a bad record among
    them is still named first."""
    with open(path, "r", encoding="utf-8") as fh:
        first, lines = 1, []
        try:
            for line in fh:
                lines.append(line.strip())
                if len(lines) == CHUNK_LINES:
                    yield first, lines
                    first, lines = first + CHUNK_LINES, []
        except UnicodeDecodeError:
            if lines:
                yield first, lines
            raise
        if lines:
            yield first, lines


def _json_values(path, first, lines):
    """(line number, decoded value) of each nonblank line of a run, one line at a time."""
    for lineno, line in enumerate(lines, start=first):
        if not line:
            continue
        try:
            obj = _json_line(line)
        # a JSONDecodeError, an integer of over 4300 digits, or nesting too deep
        except (ValueError, RecursionError) as exc:
            raise NonNumericCell(f"{path}:{lineno}: bad JSON: {exc}") from None
        yield lineno, obj


def _name_codes(lists):
    """(distinct stripped names, the code of each listed name in order, the number of
    names in each list) of a column of name lists; None unless every list is a
    nonempty list of strings that lists no stripped name twice."""
    sizes = np.fromiter(map(len, lists), np.intp, len(lists))
    if not sizes.all():
        return None
    # each listed name, as the position in the column of its first listing
    first = {}
    try:  # a name that is no string: a list or an object, or one with no str.strip
        at = np.fromiter(map(first.setdefault, itertools.chain.from_iterable(lists),
                             itertools.count()), np.intp, sizes.sum())
        names = {}
        stripped = [names.setdefault(raw.strip(), len(names)) for raw in first]
    except (TypeError, AttributeError):
        return None
    code = np.empty(len(at), np.intp)
    code[list(first.values())] = stripped
    codes = code[at]
    # at most one of each name per list: every (list, name) pair counted at most once
    if np.bincount(np.repeat(np.arange(len(lists)), sizes) * len(names) + codes).max() > 1:
        return None
    return list(names), codes, sizes


def _checked_columns(path, objects, vocabulary):
    """The columns of the (line number, record mapping) pairs of `objects`, one or
    more, as _canonical_columns gives them; each record is checked by _record_columns
    as it is read, so an invalid one is named by its file:line."""
    records = []
    for lineno, obj in objects:
        try:
            records.append(_record_columns(obj, vocabulary))
        except EngineError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    years, regions, areas, ratios, quartiles = zip(*records)
    return years, _name_codes(regions), _name_codes(areas), np.array(ratios), quartiles


def _json_run(lines: list):
    """The value of each nonblank line of a run, as _json_line decodes it; None if a line
    is not one JSON value, which the caller then names line by line.

    The lines that open with their only "{" are decoded together, as one array, and any
    other line on its own. The array holds those lines' own values if it holds one
    object per line: those objects then take every "{", so no separator sits in a
    nested array, nor in a string, which holds no newline, nor in an object, where a
    key, not a line's "{", follows a comma. So each line holds at least one of the
    values, and with as many values as lines, exactly its own.
    """
    lines = [line for line in lines if line] if "" in lines else lines
    text = "[" + "\n,".join(lines) + "]"
    alone = []
    if text.count("{") != len(lines) or set(map(_first_character, lines)) != {"{"}:
        alone = [i for i, line in enumerate(lines) if line[0] != "{" or line.count("{") != 1]
        skip = set(alone)
        text = "[" + "\n,".join(line for i, line in enumerate(lines) if i not in skip) + "]"
    try:
        values = json.loads(text)
        if len(values) != len(lines) - len(alone) or set(map(type, values)) - {dict}:
            return None
        for i in alone:  # in ascending order, so each lands at its own line's place
            values.insert(i, _json_line(lines[i]))
    # a JSONDecodeError, an integer of over 4300 digits, or nesting too deep
    except (ValueError, RecursionError):
        return None
    return values


def _canonical_columns(values: list, vocabulary):
    """The columns of a run of decoded JSON-lines records, checked all at once:
    (years, the _name_codes of the regions and of the subject areas, citation ratios,
    quartiles). None if any value is not a record in the canonical shape (an object
    that lists its names as lists of strings, its year and citations as integers, its
    expected_citations as a number and its quartile as QUARTILES writes it) or fails a
    check; the caller then checks the run record by record (_checked_columns), which
    gives the same columns for valid records and names the first bad one.
    """
    if set(map(type, values)) != {dict}:
        return None
    try:
        columns = {name: list(map(take, values)) for name, take in _TAKE_FIELD.items()}
    except KeyError:
        return None
    years, quartiles = columns["year"], columns["journal_quartile"]
    if not (
        set(map(type, years)) == set(map(type, columns["citations"])) == {int}
        and {float, int}.issuperset(map(type, columns["expected_citations"]))
        and set(map(type, quartiles)) == {str}
        and _QUARTILE_CODES.keys() >= set(quartiles)
        and set(map(type, columns["regions"])) == set(map(type, columns["subject_areas"]))
        == {list}
    ):
        return None
    regions, areas = _name_codes(columns["regions"]), _name_codes(columns["subject_areas"])
    if regions is None or areas is None:
        return None
    if vocabulary is not None and not vocabulary.issuperset(areas[0]):
        return None
    try:  # an integer past int64, or an expected_citations past the floats
        citations = np.array(columns["citations"], dtype=np.int64)
        expected = np.array(columns["expected_citations"], dtype=float)
    except OverflowError:
        return None
    if not ((citations >= 0).all() and (expected > 0).all() and (expected < math.inf).all()):
        return None
    with np.errstate(over="ignore"):  # a ratio that overflows is the record path's to name
        ratios = citations / expected
    if not np.isfinite(ratios).all():
        return None
    return years, regions, areas, ratios, quartiles


def _fold(pubs: Publications, columns: tuple) -> None:
    """Count a run of checked records, given as columns (see _canonical_columns), into
    pubs: full counting, each record once in the cell of every region it lists."""
    years, regions, areas, ratios, quartiles = columns
    region_names, region_codes, region_sizes = regions
    area_names, area_codes, area_sizes = areas
    n = len(years)
    year_codes = {year: i for i, year in enumerate(dict.fromkeys(years))}
    # one entry per (record, region it lists), in record order
    record = np.repeat(np.arange(n), region_sizes)
    cell = region_codes * len(year_codes) + np.fromiter(
        map(year_codes.__getitem__, years), np.intp, n)[record]
    quartile = np.fromiter(map(_QUARTILE_CODES.__getitem__, quartiles), np.intp, n)[record]
    size = np.bincount(cell)
    q1 = np.bincount(cell[quartile == _QUARTILE_CODES["Q1"]], minlength=len(size))
    nq = np.bincount(cell[quartile == _QUARTILE_CODES["NONE"]], minlength=len(size))
    # a stable sort keeps each cell's ratios in record order, so its FWCI keeps its bits
    grouped = ratios[record][np.argsort(cell, kind="stable")]
    as_bytes = memoryview(grouped).cast("B")  # what array.frombytes takes
    stop = np.cumsum(size) * grouped.itemsize
    start = stop - size * grouped.itemsize
    present = np.flatnonzero(size)
    region, year = np.divmod(present, len(year_codes))
    keys = zip(map(region_names.__getitem__, region.tolist()),
               map(list(year_codes).__getitem__, year.tolist()))
    cells = pubs.cells
    for key, a, b, q, none in zip(keys, start[present].tolist(), stop[present].tolist(),
                                  q1[present].tolist(), nq[present].tolist()):
        entry = cells.get(key)
        if entry is None:
            entry = cells[key] = [array("d"), 0, 0]
        entry[0].frombytes(as_bytes[a:b])
        entry[1] += q
        entry[2] += none

    # every (region, subject area) of a record: each region entry once per area it lists,
    # the pairs of an entry in a row
    per_region = area_sizes[record]
    first_pair = np.cumsum(per_region) - per_region
    area_start = np.cumsum(area_sizes) - area_sizes
    area_at = np.arange(first_pair[-1] + per_region[-1]) - np.repeat(
        first_pair - area_start[record], per_region)
    pairs = np.repeat(region_codes * len(area_names), per_region) + area_codes[area_at]
    counts = np.bincount(pairs)
    present = np.flatnonzero(counts)
    region, area = np.divmod(present, len(area_names))
    keys = zip(map(region_names.__getitem__, region.tolist()),
               map(area_names.__getitem__, area.tolist()))
    incidences = pubs.incidences
    for key, k in zip(keys, counts[present].tolist()):
        incidences[key] += k
    pubs.records += n


def load_publications(path, vocabulary=None) -> Publications:
    """Read publication records from JSON-lines (.jsonl) or CSV.

    CSV multi-valued cells (regions, subject_areas) are semicolon-separated.
    With a vocabulary, a record listing a subject area outside it is an error.
    An invalid record is named by its file:line; a name that holds a NUL (names
    are stripped, as table cells are) is named with the file.

    The file is read in runs of CHUNK_LINES lines (of a CSV file, data rows), and each
    run is checked and counted by the one fold, _fold, before the next is read. The
    record path, _record_columns on each record in turn, is the reference and names
    every bad record; it checks a CSV file. A JSON-lines run is decoded once, and
    checked all at once if every record of it is in the canonical shape (see
    _canonical_columns), else record by record from the same values.
    """
    path = str(path)
    vocabulary = None if vocabulary is None else frozenset(vocabulary)
    pubs = Publications()
    if path.endswith(".jsonl") or path.endswith(".json"):
        for first, lines in _json_chunks(path):
            values = _json_run(lines)
            if values is None:
                _fold(pubs, _checked_columns(path, _json_values(path, first, lines), vocabulary))
            elif values:  # none for a run of blank lines
                _fold(pubs, _canonical_columns(values, vocabulary) or _checked_columns(
                    path, zip(itertools.compress(itertools.count(first), lines), values),
                    vocabulary))
    else:
        header, rows = read_table(path)
        objects = ((lineno, dict(zip(header, cells))) for lineno, cells in rows)
        for head in objects:  # each row read once the rows before it are checked
            run = itertools.chain([head], itertools.islice(objects, CHUNK_LINES - 1))
            _fold(pubs, _checked_columns(path, run, vocabulary))
    if not len(pubs):
        raise MissingData(f"{path}: no publication records")
    # once over the distinct names, not per record: the incidences list every one
    regions, areas = map(set, zip(*pubs.incidences))
    for what, names in (("region", regions), ("subject area", areas)):
        check_names(sorted(names), lambda message: NonNumericCell(f"{path}: {message}"), what)
    return pubs


def load_vocabulary(path) -> list[str]:
    """Subject-area vocabulary: one code per line, order preserved."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(fh)
    if lines and lines[0].startswith("\ufeff"):
        raise byte_order_mark(path)
    codes = [line.strip() for line in lines if line.strip()]
    if not codes:
        raise MissingData(f"{path}: empty vocabulary")
    check_names(codes, lambda message: NonNumericCell(f"{path}: {message}"), "subject-area code")
    return codes


def write_indicator_csv(rows: list[RegionYearIndicators], path) -> None:
    """CSV compatible with panel ingestion (region,year,PUBS,FWCI,Q1SH,NQSH)."""
    fields = INDICATOR_COLUMNS.values()
    body = (((r.region, r.year), ",".join([repr(getattr(r, f)) for f in fields])) for r in rows)
    write_table(path, ["region", "year", *INDICATOR_COLUMNS], body)


# ---------------------------------------------------------------------------
# the incidence sidecar
# ---------------------------------------------------------------------------

SIDECAR_NAME = "publications.npz"
# (dtype kind, ndim) of each array of the sidecar: incidences is regions x subject areas
SIDECAR_LAYOUT = {"regions": ("U", 1), "subject_areas": ("U", 1), "incidences": ("i", 2)}


def sidecar_sources(pubs_path, vocab_path=None, digests: dict | None = None) -> dict:
    """The key of the incidence sidecar of a publications file read with a vocabulary
    file: the sha256 of each, "none" without a vocabulary. `digests`, if given,
    receives each sha256 under its path."""
    return {
        "pubs_sha256": recorded_digest(pubs_path, digests),
        "vocab_sha256": "none" if vocab_path is None else recorded_digest(vocab_path, digests),
    }


def write_incidence_sidecar(pubs: Publications, path, sources: dict) -> None:
    """Write pubs.incidences to `path`, keyed by `sources` (see sidecar_sources): the
    sorted regions by the sorted subject areas. None is written where a unicode array
    would not give a name back: one holding a NUL."""
    regions = sorted({region for region, _ in pubs.incidences})
    areas = sorted({area for _, area in pubs.incidences})
    if any("\x00" in name for name in (*regions, *areas)):
        return
    row = {region: i for i, region in enumerate(regions)}
    column = {area: j for j, area in enumerate(areas)}
    counts = np.zeros((len(regions), len(areas)), dtype=np.int64)
    for (region, area), n in pubs.incidences.items():
        counts[row[region], column[area]] = n
    write_sidecar(path, sources, SIDECAR_LAYOUT,
                  regions=regions, subject_areas=areas, incidences=counts)


def read_incidence_sidecar(path, sources: dict, digests: dict | None = None):
    """The incidences that load_publications(...).incidences gives for the files
    `sources` names, from the sidecar at `path` if it records them and its counts
    fit its names; otherwise None, and the caller decodes the publications file.
    `digests`, if given, receives the sidecar's own sha256 under its path if it was
    opened."""
    arrays = read_sidecar(path, sources, SIDECAR_LAYOUT, digests)
    if arrays is None:
        return None
    regions, areas = arrays["regions"].tolist(), arrays["subject_areas"].tolist()
    counts = arrays["incidences"]
    if counts.shape != (len(regions), len(areas)):
        return None
    rows, columns = np.nonzero(counts)
    return {
        (regions[i], areas[j]): n
        for i, j, n in zip(rows.tolist(), columns.tolist(), counts[rows, columns].tolist())
    }
