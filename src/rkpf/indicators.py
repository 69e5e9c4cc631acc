"""Region-level scientometric indicators from publication records.

Full counting attributes a co-authored publication once to every region on
it. FWCI is the mean ratio of citations to the expected field baseline;
quartile shares are percentages of a region-year's output in first-quartile
and in unranked sources. Thematic profiles are subject-area incidence
shares and feed the proximity weights.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCell,
    EmptyRegion,
    MissingColumn,
    MissingData,
    NonNumericCell,
    UnknownSubjectArea,
)
from .tables import not_utf8, read_table, write_table

QUARTILES = ("Q1", "Q2", "Q3", "Q4", "NONE")
# panel column -> RegionYearIndicators field, for indicators.csv and ingest's merge
INDICATOR_COLUMNS = {"PUBS": "pub_count", "FWCI": "fwci", "Q1SH": "q1_share", "NQSH": "nq_share"}


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
        if not self.regions:
            raise ValueError(f"record {self.id!r}: regions must be nonempty")
        if not self.subject_areas:
            raise ValueError(f"record {self.id!r}: subject_areas must be nonempty")
        if self.citations < 0:
            raise ValueError(f"record {self.id!r}: citations must be >= 0")
        if not 0 < self.expected_citations < math.inf:
            raise ValueError(f"record {self.id!r}: expected_citations must be finite and > 0")
        if not math.isfinite(self.citations / self.expected_citations):  # may raise OverflowError
            raise ValueError(f"record {self.id!r}: citations / expected_citations is not finite")
        if self.journal_quartile not in QUARTILES:
            raise ValueError(
                f"record {self.id!r}: journal_quartile {self.journal_quartile!r} "
                f"not in {QUARTILES}"
            )


@dataclass(frozen=True)
class RegionYearIndicators:
    region: str
    year: int
    pub_count: int
    fwci: float
    q1_share: float  # percent, 0-100
    nq_share: float  # percent, 0-100


def attribute_full_counting(
    pubs: list[PublicationRecord],
) -> dict[tuple[str, int], list[PublicationRecord]]:
    """Group records by (region, year); each record counted once per region."""
    cells: dict[tuple[str, int], list[PublicationRecord]] = {}
    for rec in pubs:
        for region in sorted(rec.regions):
            cells.setdefault((region, rec.year), []).append(rec)
    return cells


def compute_fwci(records: list[PublicationRecord]) -> float:
    """Mean of citations / expected_citations over the cell's records."""
    if not records:
        raise EmptyCell("FWCI undefined for a region-year with no publications")
    ratios = [rec.citations / rec.expected_citations for rec in records]
    with np.errstate(over="ignore"):  # region_year_indicators names a mean that overflows
        return float(np.mean(ratios))


def compute_quartile_shares(records: list[PublicationRecord]) -> tuple[float, float]:
    """(q1_share, nq_share) in percent of the cell's records."""
    if not records:
        raise EmptyCell("quartile shares undefined for a region-year with no publications")
    total = len(records)
    n_q1 = sum(1 for rec in records if rec.journal_quartile == "Q1")
    n_nq = sum(1 for rec in records if rec.journal_quartile == "NONE")
    return 100.0 * n_q1 / total, 100.0 * n_nq / total


def compute_thematic_profile(
    records: list[PublicationRecord], vocabulary: list[str]
) -> np.ndarray:
    """Subject-area incidence shares over a fixed vocabulary.

    A record listing k subject areas contributes one incidence to each of
    them; shares are incidences divided by total incidences and sum to 1.
    """
    if not records:
        raise EmptyRegion("thematic profile undefined for a region with no publications")
    index = {code: j for j, code in enumerate(vocabulary)}
    counts = np.zeros(len(vocabulary))
    for rec in records:
        for code in rec.subject_areas:
            if code not in index:
                raise UnknownSubjectArea(
                    f"record {rec.id!r}: subject area {code!r} not in vocabulary"
                )
            counts[index[code]] += 1
    return counts / counts.sum()


def region_year_indicators(
    pubs: list[PublicationRecord],
) -> list[RegionYearIndicators]:
    """All region-year indicator rows derivable from the records."""
    cells = attribute_full_counting(pubs)
    rows = []
    for (region, year), records in sorted(cells.items()):
        fwci = compute_fwci(records)
        if not math.isfinite(fwci):
            raise NonNumericCell(f"FWCI of {region!r}, {year} is {fwci}: its mean ratio overflows")
        q1, nq = compute_quartile_shares(records)
        rows.append(
            RegionYearIndicators(
                region=region,
                year=year,
                pub_count=len(records),
                fwci=fwci,
                q1_share=q1,
                nq_share=nq,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# i/o
# ---------------------------------------------------------------------------

_FIELDS = frozenset(
    {
        "id",
        "year",
        "regions",
        "subject_areas",
        "citations",
        "expected_citations",
        "journal_quartile",
    }
)


def _record_from_mapping(obj: dict, where: str) -> PublicationRecord:
    if not isinstance(obj, dict):
        raise NonNumericCell(
            f"{where}: publication record must be an object, got {type(obj).__name__}"
        )
    missing = _FIELDS - obj.keys()
    if missing:
        raise MissingColumn(f"{where}: publication record missing fields {sorted(missing)}")
    regions = obj["regions"]
    areas = obj["subject_areas"]
    if isinstance(regions, str):
        regions = [r for r in regions.split(";") if r]
    if isinstance(areas, str):
        areas = [a for a in areas.split(";") if a]
    if not (
        isinstance(regions, list)
        and isinstance(areas, list)
        and {str}.issuperset(map(type, regions + areas))
    ):
        raise NonNumericCell(f"{where}: regions and subject_areas must be lists of strings")
    # JSON integers, the common case, need no check; a bool is no integer here
    if type(obj["year"]) is not int or type(obj["citations"]) is not int:
        for key in ("year", "citations"):
            value = obj[key]
            if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
                raise NonNumericCell(f"{where}: {key} must be an integer, got {value!r}")
    try:
        return PublicationRecord(
            id=str(obj["id"]),
            year=int(obj["year"]),
            regions=frozenset(regions),
            subject_areas=frozenset(areas),
            citations=int(obj["citations"]),
            expected_citations=float(obj["expected_citations"]),
            journal_quartile=str(obj["journal_quartile"]).strip() or "NONE",
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonNumericCell(f"{where}: {exc}") from None


def load_publications(path) -> list[PublicationRecord]:
    """Read publication records from JSON-lines (.jsonl) or CSV.

    CSV multi-valued cells (regions, subject_areas) are semicolon-separated.
    """
    path = str(path)
    records: list[PublicationRecord] = []
    if path.endswith(".jsonl") or path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise NonNumericCell(f"{path}:{lineno}: bad JSON: {exc}") from None
                    records.append(_record_from_mapping(obj, f"{path}:{lineno}"))
            except UnicodeDecodeError:
                raise not_utf8(path) from None
    else:
        header, rows = read_table(path)
        for lineno, cells in rows:
            records.append(_record_from_mapping(dict(zip(header, cells)), f"{path}:{lineno}"))
    if not records:
        raise MissingData(f"{path}: no publication records")
    return records


def load_vocabulary(path) -> list[str]:
    """Subject-area vocabulary: one code per line, order preserved."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            codes = [line.strip() for line in fh if line.strip()]
        except UnicodeDecodeError:
            raise not_utf8(path) from None
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
