"""Region-level scientometric indicators from publication records.

Full counting attributes a co-authored publication once to every region on
it. FWCI is the mean ratio of citations to the expected field baseline;
quartile shares are percentages of a region-year's output in first-quartile
and in unranked sources. Thematic profiles are subject-area incidence
shares and feed the proximity weights. A publications file is read in one
pass into `Publications`, the columns these computations read.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from json.decoder import WHITESPACE

import numpy as np

from .errors import (
    EngineError,
    MissingColumn,
    MissingData,
    NonNumericCell,
    UnknownSubjectArea,
)
from .tables import check_names, read_table, write_table

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


@dataclass(frozen=True)
class Publications:
    """Checked publication records as columns, one entry per record in file order.

    Only what the indicators and the thematic profiles read: the year, the
    region set, the subject-area set, citations / expected_citations and the
    journal quartile.
    """

    years: tuple[int, ...]
    regions: tuple[frozenset[str], ...]
    subject_areas: tuple[frozenset[str], ...]
    ratios: np.ndarray
    quartiles: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.years)

    @classmethod
    def from_records(cls, records) -> "Publications":
        records = list(records)
        return cls(
            tuple(r.year for r in records),
            tuple(r.regions for r in records),
            tuple(r.subject_areas for r in records),
            np.array([r.citations / r.expected_citations for r in records], dtype=float),
            tuple(r.journal_quartile for r in records),
        )


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
    cells: dict[tuple[str, int], list[int]] = {}
    for i, (regions, year) in enumerate(zip(pubs.regions, pubs.years)):
        for region in regions:
            cells.setdefault((region, year), []).append(i)
    quartiles = np.array(pubs.quartiles)
    is_q1, is_nq = quartiles == "Q1", quartiles == "NONE"
    rows = []
    with np.errstate(over="ignore"):  # a mean that overflows is named below
        for (region, year), members in sorted(cells.items()):
            fwci = float(np.mean(pubs.ratios[members]))
            if not math.isfinite(fwci):
                raise NonNumericCell(
                    f"FWCI of {region!r}, {year} is {fwci}: its mean ratio overflows"
                )
            total = len(members)
            q1 = 100.0 * int(np.count_nonzero(is_q1[members])) / total
            nq = 100.0 * int(np.count_nonzero(is_nq[members])) / total
            rows.append(RegionYearIndicators(region, year, total, fwci, q1, nq))
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


def _stripped(names: frozenset, shared: dict) -> frozenset:
    """`names`, each stripped as a table cell is. The result is kept in `shared`
    under both sets, so that equal sets come out as one and a set met again is
    looked up there, not stripped again."""
    stripped = frozenset(map(str.strip, names))
    stripped = shared[names] = shared.setdefault(stripped, stripped)
    return stripped


def _record_columns(obj, vocabulary, shared: dict) -> tuple:
    """(year, regions, subject_areas, ratio, quartile) of one checked record mapping.

    Names are stripped; equal region and subject-area sets come out as one
    frozenset (see _stripped).
    """
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
    regions, areas = frozenset(regions), frozenset(areas)
    regions = shared.get(regions) or _stripped(regions, shared)
    areas = shared.get(areas) or _stripped(areas, shared)
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
    An invalid record is named by its file:line.
    """
    path = str(path)
    vocabulary = None if vocabulary is None else frozenset(vocabulary)
    json_lines = path.endswith(".jsonl") or path.endswith(".json")
    years, regions, areas, ratios, quartiles = [], [], [], [], []
    shared: dict[frozenset, frozenset] = {}
    for lineno, obj in (_json_objects if json_lines else _csv_objects)(path):
        try:
            year, record_regions, record_areas, ratio, quartile = _record_columns(
                obj, vocabulary, shared
            )
        except EngineError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        years.append(year)
        regions.append(record_regions)
        areas.append(record_areas)
        ratios.append(ratio)
        quartiles.append(quartile)
    if not years:
        raise MissingData(f"{path}: no publication records")
    return Publications(
        tuple(years), tuple(regions), tuple(areas), np.array(ratios), tuple(quartiles)
    )


def load_vocabulary(path) -> list[str]:
    """Subject-area vocabulary: one code per line, order preserved."""
    with open(path, "r", encoding="utf-8") as fh:
        codes = [line.strip() for line in fh if line.strip()]
    if not codes:
        raise MissingData(f"{path}: empty vocabulary")
    if len(set(codes)) != len(codes):
        raise NonNumericCell(f"{path}: duplicate subject-area codes")
    return codes


def write_indicator_csv(rows: list[RegionYearIndicators], path) -> None:
    """CSV compatible with panel ingestion (region,year,PUBS,FWCI,Q1SH,NQSH)."""
    fields = INDICATOR_COLUMNS.values()
    body = (((r.region, r.year), [repr(getattr(r, f)) for f in fields]) for r in rows)
    write_table(path, ["region", "year", *INDICATOR_COLUMNS], body)
