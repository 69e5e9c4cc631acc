"""Region-level scientometric indicators from publication records.

Full counting attributes a co-authored publication once to every region on
it. FWCI is the mean ratio of citations to the expected field baseline;
quartile shares are percentages of a region-year's output in first-quartile
and in unranked sources. Thematic profiles are subject-area incidence
shares and feed the proximity weights.

A publications file is read in one pass, and each record is checked and
folded into `Publications` as it is decoded: the counts these computations
read, and no record. `ingest` leaves the incidence counts in the bundle as
`publications.npz`, keyed by the sha256 of the publications file and of its
vocabulary, so that `weights` builds its profiles without decoding the file
again (see rkpf.manifest).
"""
from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields
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


def _check_record(rid, regions, subject_areas, citations, expected_citations, journal_quartile):
    """The record's citations / expected_citations; ValueError naming the record if a
    value is invalid. PublicationRecord and load_publications both check through this."""
    if not regions:
        raise ValueError(f"record {rid!r}: regions must be nonempty")
    if not subject_areas:
        raise ValueError(f"record {rid!r}: subject_areas must be nonempty")
    if citations < 0:
        raise ValueError(f"record {rid!r}: citations must be >= 0")
    if not 0 < expected_citations < math.inf:
        raise ValueError(f"record {rid!r}: expected_citations must be finite and > 0")
    try:
        ratio = citations / expected_citations
    except OverflowError:  # an int too large for a float
        ratio = math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"record {rid!r}: citations / expected_citations is not a finite float")
    if journal_quartile not in QUARTILES:
        raise ValueError(
            f"record {rid!r}: journal_quartile {journal_quartile!r} not in {QUARTILES}"
        )
    return ratio


@dataclass(frozen=True)
class PublicationRecord:
    id: str
    year: int
    regions: frozenset[str]
    subject_areas: frozenset[str]
    citations: int
    expected_citations: float
    journal_quartile: str

    def __post_init__(self):
        _check_record(
            self.id, self.regions, self.subject_areas,
            self.citations, self.expected_citations, self.journal_quartile,
        )
        # no name that reading it from a file would change: load_publications strips them
        check_names(self.regions, ValueError, f"record {self.id!r}: region")
        check_names(self.subject_areas, ValueError, f"record {self.id!r}: subject area")


@dataclass
class Publications:
    """Checked publication records, folded into the counts the indicators and the
    thematic profiles read; `len()` is the number of records.

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

    def add(self, year: int, regions, subject_areas, ratio: float, quartile: str) -> None:
        """Count one checked record: full counting, once per region it lists."""
        self.records += 1
        q1, nq = quartile == "Q1", quartile == "NONE"
        cells, incidences = self.cells, self.incidences
        for region in regions:
            cell = cells.get((region, year))
            if cell is None:
                cell = cells[region, year] = [array("d"), 0, 0]
            cell[0].append(ratio)
            cell[1] += q1
            cell[2] += nq
            for area in subject_areas:
                incidences[region, area] += 1

    @classmethod
    def from_records(cls, records) -> "Publications":
        pubs = cls()
        for r in records:
            pubs.add(r.year, r.regions, r.subject_areas,
                     r.citations / r.expected_citations, r.journal_quartile)
        return pubs


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

_FIELDS = frozenset(f.name for f in fields(PublicationRecord))
_raw_decode = json.JSONDecoder().raw_decode


def _json_line(line: str):
    """json.loads of a stripped line, with its errors, minus its per-call dispatch."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    obj, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, WHITESPACE.match(line, end).end())
    return obj


def _record_columns(obj, vocabulary) -> tuple:
    """(year, regions, subject_areas, ratio, quartile) of one checked record mapping,
    names stripped as a table cell is."""
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
        ratio = _check_record(rid, regions, areas, citations, expected, quartile)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonNumericCell(str(exc)) from None
    return year, regions, areas, ratio, quartile


def _json_objects(path):
    """(line number, decoded value) of each nonblank line of a JSON-lines file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _json_line(line)
            # a JSONDecodeError, an integer of over 4300 digits, or nesting too deep
            except (ValueError, RecursionError) as exc:
                raise NonNumericCell(f"{path}:{lineno}: bad JSON: {exc}") from None
            yield lineno, obj


def _csv_objects(path):
    """(line number, header -> cell mapping) of each data row of a CSV file."""
    header, rows = read_table(path)
    return ((lineno, dict(zip(header, cells))) for lineno, cells in rows)


def load_publications(path, vocabulary=None) -> Publications:
    """Read publication records from JSON-lines (.jsonl) or CSV in one pass.

    CSV multi-valued cells (regions, subject_areas) are semicolon-separated.
    With a vocabulary, a record listing a subject area outside it is an error.
    An invalid record is named by its file:line; a name that holds a NUL (names
    are stripped, as table cells are) is named with the file.
    """
    path = str(path)
    vocabulary = None if vocabulary is None else frozenset(vocabulary)
    json_lines = path.endswith(".jsonl") or path.endswith(".json")
    pubs = Publications()
    for lineno, obj in (_json_objects if json_lines else _csv_objects)(path):
        try:
            columns = _record_columns(obj, vocabulary)
        except EngineError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        pubs.add(*columns)
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
    body = (((r.region, r.year), [repr(getattr(r, f)) for f in fields]) for r in rows)
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
