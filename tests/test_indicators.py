"""Scientometric indicators against brute-force enumeration oracles."""
import json
import math
import random
import tempfile
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rkpf.indicators as loader
from rkpf.errors import (
    EmptyRegion,
    EngineError,
    MissingData,
    NonNumericCell,
    UnknownSubjectArea,
)
from rkpf.indicators import (
    Publications,
    load_publications,
    load_vocabulary,
    region_year_indicators,
    write_indicator_csv,
)
from rkpf.weights import build_profile_matrix

VOCAB = ["bio", "chem", "econ", "math", "phys"]


def rec(
    rid="p1",
    year=2019,
    regions=("A",),
    areas=("bio",),
    citations=10,
    expected=10.0,
    quartile="Q2",
):
    """One publication record, as a JSON-lines file holds it."""
    return {
        "id": rid,
        "year": year,
        "regions": list(regions),
        "subject_areas": list(areas),
        "citations": citations,
        "expected_citations": expected,
        "journal_quartile": quartile,
    }


def load(records, vocabulary=None):
    """load_publications of the records, written one a line to a JSON-lines file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pubs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return load_publications(path, vocabulary)


def indicators(records):
    """region_year_indicators of the records, keyed by (region, year)."""
    rows = region_year_indicators(load(records))
    return {(r.region, r.year): r for r in rows}


def one_cell(records):
    """The indicator row of the records, all moved into region A, 2019."""
    (row,) = indicators([{**r, "regions": ["A"], "year": 2019} for r in records]).values()
    return row


def fwci(records):
    return one_cell(records).fwci


def quartile_shares(records):
    row = one_cell(records)
    return row.q1_share, row.nq_share


def profile(records, vocabulary=VOCAB):
    """The thematic profile of the records, all moved into region A."""
    incidences = load([{**r, "regions": ["A"]} for r in records]).incidences
    return build_profile_matrix(incidences, vocabulary).shares[0]


def ratio(record) -> float:
    return record["citations"] / record["expected_citations"]


def counted(records):
    """Brute-force counts of records as load_publications reads them, one record at a
    time: (record count, per (region, year) the bytes of its citation ratios in record
    order, its Q1 count and its NONE count, per (region, subject area) its incidences)."""
    cells, incidences = {}, Counter()
    for r in records:
        for region in r["regions"]:
            ratios, q1, nq = cells.get((region, r["year"]), (b"", 0, 0))
            cells[region, r["year"]] = (ratios + array("d", [ratio(r)]).tobytes(),
                                        q1 + (r["journal_quartile"] == "Q1"),
                                        nq + (r["journal_quartile"] == "NONE"))
            for area in r["subject_areas"]:
                incidences[region, area] += 1
    return len(records), cells, dict(incidences)


def counts_of(pubs):
    """The counts of a Publications in the form counted gives them."""
    cells = {key: (ratios.tobytes(), q1, nq) for key, (ratios, q1, nq) in pubs.cells.items()}
    regions, areas, counts = pubs.incidences
    incidences = {(regions[i], areas[j]): n for (i, j), n in np.ndenumerate(counts) if n}
    return len(pubs), cells, incidences


def random_records(rng, n, year_range=(2018, 2020)):
    records = []
    for i in range(n):
        regions = rng.choice(["A", "B", "C", "D"], size=rng.integers(1, 4), replace=False)
        areas = rng.choice(VOCAB, size=rng.integers(1, 4), replace=False)
        records.append(
            rec(
                rid=f"p{i}",
                year=int(rng.integers(*year_range)),
                regions=regions.tolist(),
                areas=areas.tolist(),
                citations=int(rng.integers(0, 60)),
                expected=float(rng.uniform(0.5, 25.0)),
                quartile=str(rng.choice(["Q1", "Q2", "Q3", "Q4", "NONE"])),
            )
        )
    return records


class TestRecordValidation:
    """Each check of a record names the record, after the file:line that holds it."""

    @pytest.mark.parametrize(
        "record, message",
        [
            (rec(regions=()), "regions must be nonempty"),
            (rec(citations=-1), "citations must be >= 0"),
            (rec(expected=0.0), "expected_citations must be finite and > 0"),
        ],
        ids=["empty-regions", "negative-citations", "zero-expected"],
    )
    def test_invalid_record_rejected(self, record, message):
        with pytest.raises(NonNumericCell, match=rf"pubs.jsonl:1: record 'p1': {message}$"):
            load([record])

    @pytest.mark.parametrize(
        "citations, expected",
        [(10**400, 1.0), (10**300, 1e-300)],
        ids=["too-large-for-a-float", "infinite-ratio"],
    )
    def test_non_finite_ratio_rejected(self, citations, expected):
        # an int too large for a float fails like a ratio that overflows, naming the record
        message = "record 'p1': citations / expected_citations is not a finite float"
        with pytest.raises(NonNumericCell, match=rf"pubs.jsonl:1: {message}$"):
            load([rec(citations=citations, expected=expected)])

    def test_a_padded_name_is_counted_stripped(self):
        pubs = load([rec(regions=(" R1", "R2 "), areas=(" bio",))])
        assert set(counts_of(pubs)[2]) == {("R1", "bio"), ("R2", "bio")}

    def test_a_name_with_a_nul_is_named_with_the_file(self):
        message = r"pubs.jsonl: subject area 'bio\\x00' has surrounding whitespace or a NUL$"
        with pytest.raises(NonNumericCell, match=message):
            load([rec(areas=("bio\x00",))])

    def test_fwci_whose_mean_overflows_names_the_cell(self):
        records = [rec(rid=f"p{i}", citations=17 * 10**307, expected=1.0) for i in (1, 2)]
        with pytest.raises(NonNumericCell, match="FWCI of 'A', 2019 is inf"):
            indicators(records)


class TestFullCounting:
    def test_two_region_record_counted_in_both(self):
        cells = indicators([rec(regions=("A", "B"))])
        assert cells[("A", 2019)].pub_count == 1
        assert cells[("B", 2019)].pub_count == 1

    def test_multiple_authors_same_region_count_once(self):
        # a record lists each region once regardless of author multiplicity
        cells = indicators([rec(regions=("A",))])
        assert cells[("A", 2019)].pub_count == 1

    def test_shared_record_counts(self):
        records = [
            rec(rid="p1", regions=("A",)),
            rec(rid="p2", regions=("A", "B")),
        ]
        cells = indicators(records)
        assert cells[("A", 2019)].pub_count == 2
        assert cells[("B", 2019)].pub_count == 1

    def test_total_attributions_vs_distinct_records(self):
        rng = np.random.default_rng(0)
        records = random_records(rng, 40)
        cells = indicators(records)
        total = sum(row.pub_count for row in cells.values())
        assert total >= len(records)
        spans_two = any(len(r["regions"]) > 1 for r in records)
        assert (total > len(records)) == spans_two


class TestFwci:
    def test_thirty_percent_above_expected(self):
        assert fwci([rec(citations=13, expected=10.0)]) == pytest.approx(1.30)

    def test_all_at_expected_is_one(self):
        records = [rec(rid=f"p{i}", citations=7, expected=7.0) for i in range(5)]
        assert fwci(records) == pytest.approx(1.0)

    def test_mean_of_ratios(self):
        records = [
            rec(rid="p1", citations=5, expected=10.0),
            rec(rid="p2", citations=15, expected=10.0),
        ]
        assert fwci(records) == pytest.approx(1.0)

    def test_empty_cell(self):
        # no records: no cell, so no FWCI to take
        assert region_year_indicators(Publications()) == []

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        records = random_records(rng, 20)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert fwci(records) == pytest.approx(fwci(shuffled), abs=1e-12)

    @given(factor=st.integers(1, 50), n=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_scaling_citations_and_expected_together(self, factor, n):
        # multiplying every record's citations and expected citations by the
        # same positive constant leaves FWCI unchanged
        rng = np.random.default_rng(n)
        base = [
            rec(rid=f"p{i}", citations=int(c), expected=float(e))
            for i, (c, e) in enumerate(
                zip(rng.integers(0, 30, n), rng.uniform(1, 15, n))
            )
        ]
        scaled = [
            rec(
                rid=r["id"],
                citations=r["citations"] * factor,
                expected=r["expected_citations"] * factor,
            )
            for r in base
        ]
        assert fwci(scaled) == pytest.approx(fwci(base), rel=1e-12)

    @given(scale=st.floats(min_value=0.01, max_value=100.0), n=st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_common_scaling_invariance(self, scale, n):
        rng = np.random.default_rng(n)
        base = [
            rec(rid=f"p{i}", citations=int(c), expected=float(e))
            for i, (c, e) in enumerate(
                zip(rng.integers(0, 40, n), rng.uniform(1, 20, n))
            )
        ]
        # expected_citations scale freely; citations stay integers, so scale
        # both through the ratio directly
        scaled = [
            rec(rid=r["id"], citations=r["citations"], expected=r["expected_citations"] / scale)
            for r in base
        ]
        assert fwci(scaled) == pytest.approx(scale * fwci(base), rel=1e-9)


class TestQuartileShares:
    def test_basic_counts(self):
        records = [
            rec(rid="1", quartile="Q1"),
            rec(rid="2", quartile="Q1"),
            rec(rid="3", quartile="Q3"),
            rec(rid="4", quartile="NONE"),
        ]
        assert quartile_shares(records) == (50.0, 25.0)

    def test_all_none(self):
        records = [rec(rid=str(i), quartile="NONE") for i in range(4)]
        assert quartile_shares(records) == (0.0, 100.0)

    def test_two_q1_three_none_of_eight(self):
        quartiles = ["Q1", "Q1", "NONE", "NONE", "NONE", "Q2", "Q3", "Q4"]
        records = [rec(rid=str(i), quartile=q) for i, q in enumerate(quartiles)]
        assert quartile_shares(records) == (25.0, 37.5)

    def test_empty_cell(self):
        # a region-year without records gets no row, so no shares
        cells = indicators([rec(rid="1", regions=("A",)), rec(rid="2", regions=("B",), year=2020)])
        assert set(cells) == {("A", 2019), ("B", 2020)}

    def test_bounds_and_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            records = random_records(rng, int(rng.integers(1, 30)))
            q1, nq = quartile_shares(records)
            assert 0.0 <= q1 <= 100.0
            assert 0.0 <= nq <= 100.0
            assert q1 + nq <= 100.0 + 1e-12


class TestThematicProfile:
    def test_single_area(self):
        records = [rec(rid=str(i), areas=("math",)) for i in range(3)]
        shares = profile(records)
        assert shares[VOCAB.index("math")] == 1.0
        assert shares.sum() == pytest.approx(1.0)

    def test_two_singleton_records(self):
        records = [rec(rid="1", areas=("bio",)), rec(rid="2", areas=("chem",))]
        shares = profile(records)
        assert shares[VOCAB.index("bio")] == pytest.approx(0.5)
        assert shares[VOCAB.index("chem")] == pytest.approx(0.5)

    def test_multi_area_incidences(self):
        # {a,b} + {a}: a gets 2 of 3 incidences
        records = [rec(rid="1", areas=("bio", "chem")), rec(rid="2", areas=("bio",))]
        shares = profile(records)
        assert shares[VOCAB.index("bio")] == pytest.approx(2.0 / 3.0)
        assert shares[VOCAB.index("chem")] == pytest.approx(1.0 / 3.0)

    def test_empty_region(self):
        pubs = load([rec(regions=("A",))])
        with pytest.raises(EmptyRegion, match="region 'Z' has no publication records"):
            build_profile_matrix(pubs.incidences, VOCAB, ["A", "Z"])

    def test_unknown_area(self):
        with pytest.raises(UnknownSubjectArea, match=r"region 'A': subject areas \['alchemy'\]"):
            profile([rec(areas=("alchemy",))])

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(3)
        records = random_records(rng, 50)
        shares = profile(records)
        assert np.all(shares >= 0)
        assert abs(shares.sum() - 1.0) < 1e-12


class TestBruteForceOracles:
    """Exact-rational enumeration over randomized record sets."""

    def test_indicators_match_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            records = random_records(rng, int(rng.integers(5, 50)))
            rows = indicators(records)

            # oracle: walk records one by one
            cells = {}
            for record in records:
                for region in record["regions"]:
                    cells.setdefault((region, record["year"]), []).append(record)
            assert set(rows) == set(cells)
            for key, members in cells.items():
                row = rows[key]
                assert row.pub_count == len(members)
                q1 = Fraction(
                    100 * sum(1 for m in members if m["journal_quartile"] == "Q1"),
                    len(members),
                )
                nq = Fraction(
                    100 * sum(1 for m in members if m["journal_quartile"] == "NONE"),
                    len(members),
                )
                # engine computes (100*count)/total in one correctly rounded
                # division, so it must equal the rational exactly at double
                # precision
                assert row.q1_share == float(q1)
                assert row.nq_share == float(nq)
                fwci = sum(map(ratio, members)) / len(members)
                assert abs(row.fwci - fwci) < 1e-12

    def test_profile_matches_exact_fractions(self):
        rng = np.random.default_rng(9)
        records = random_records(rng, 30)
        profiles = build_profile_matrix(load(records).incidences, VOCAB)
        assert profiles.regions == tuple(sorted({r for rec in records for r in rec["regions"]}))
        for i, region in enumerate(profiles.regions):
            counts = {code: 0 for code in VOCAB}
            for record in records:
                if region in record["regions"]:
                    for code in record["subject_areas"]:
                        counts[code] += 1
            total = sum(counts.values())
            for j, code in enumerate(VOCAB):
                assert profiles.shares[i, j] == float(Fraction(counts[code], total))


class TestIo:
    def test_jsonl_round_trip(self):
        records = random_records(np.random.default_rng(4), 8)
        assert counts_of(load(records)) == counted(records)

    def test_csv_semicolon_fields(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text(
            "id,year,regions,subject_areas,citations,expected_citations,journal_quartile\n"
            "p1,2019,A;B,bio;math,13,10,Q1\n",
            encoding="utf-8",
        )
        cell = (array("d", [1.3]).tobytes(), 1, 0)
        assert counts_of(load_publications(path)) == (
            1,
            {("A", 2019): cell, ("B", 2019): cell},
            {("A", "bio"): 1, ("A", "math"): 1, ("B", "bio"): 1, ("B", "math"): 1},
        )

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MissingData):
            load_publications(path)

    def test_vocabulary(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("bio\nchem\n\nmath\n", encoding="utf-8")
        assert load_vocabulary(path) == ["bio", "chem", "math"]

    def test_a_repeated_vocabulary_code_is_named(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("bio\nchem\n bio\n", encoding="utf-8")
        with pytest.raises(NonNumericCell,
                           match=rf"^{path}: subject-area code 'bio' appears more than once$"):
            load_vocabulary(path)

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_area_outside_the_vocabulary_names_the_line(self, tmp_path, suffix):
        path = tmp_path / f"pubs{suffix}"
        rows = [("p1", "bio"), ("p2", "bio;alchemy")]
        if suffix == ".csv":
            header = "id,year,regions,subject_areas,citations,expected_citations,journal_quartile"
            lines = [header] + [f"{i},2019,A,{areas},1,1.0,Q1" for i, areas in rows]
        else:
            lines = [json.dumps({"id": i, "year": 2019, "regions": ["A"],
                                 "subject_areas": areas.split(";"), "citations": 1,
                                 "expected_citations": 1.0, "journal_quartile": "Q1"})
                     for i, areas in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(load_publications(path, ["bio", "alchemy"])) == 2
        line = 3 if suffix == ".csv" else 2
        with pytest.raises(
            UnknownSubjectArea, match=rf"^{path}:{line}: subject areas \['alchemy'\] not in"
        ):
            load_publications(path, ["bio", "chem"])

    def test_indicator_csv_ingestable(self, tmp_path):
        from rkpf.panel import load_panel_csv

        records = random_records(np.random.default_rng(6), 25, year_range=(2018, 2019))
        rows = region_year_indicators(load(records))
        path = tmp_path / "indicators.csv"
        write_indicator_csv(rows, path)
        d = load_panel_csv(path)
        assert {"PUBS", "FWCI", "Q1SH", "NQSH"} <= set(d.variables)


# one raw publication record, as a file holds it: repeated regions, integral-float
# years and citations, every quartile, a blank quartile (read as NONE) and padding
_RAW_RECORD = st.fixed_dictionaries(
    {
        "year": st.integers(2015, 2018) | st.integers(2015, 2018).map(float),
        "regions": st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=4),
        "subject_areas": st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3),
        "citations": st.integers(0, 10**6) | st.integers(0, 500).map(float),
        "expected_citations": st.floats(1e-3, 1e3),
        "journal_quartile": st.sampled_from(["Q1", "Q2", "Q3", "Q4", "NONE", "", " Q1 "]),
    }
)


def _records(raw):
    """The raw records as load_publications reads them: integer years and citations,
    a blank quartile read as NONE, each name listed once."""
    return [
        rec(
            rid=f"p{i}",
            year=int(r["year"]),
            regions=dict.fromkeys(r["regions"]),
            areas=dict.fromkeys(r["subject_areas"]),
            citations=int(r["citations"]),
            expected=float(r["expected_citations"]),
            quartile=r["journal_quartile"].strip() or "NONE",
        )
        for i, r in enumerate(raw)
    ]


def _seed_way(raw):
    """Indicator rows and profile shares computed record by record: each cell's mean of
    ratios taken in record order, counts accumulated one incidence at a time."""
    records = _records(raw)
    cells = {}
    for record in records:
        for region in record["regions"]:
            cells.setdefault((region, record["year"]), []).append(record)
    rows = []
    for (region, year), members in sorted(cells.items()):
        ratios = list(map(ratio, members))
        q1 = sum(m["journal_quartile"] == "Q1" for m in members)
        nq = sum(m["journal_quartile"] == "NONE" for m in members)
        total = len(members)
        rows.append((region, year, total, float(np.mean(ratios)),
                     100.0 * q1 / total, 100.0 * nq / total))
    regions = sorted({region for region, _ in cells})
    shares = np.zeros((len(regions), len(VOCAB)))
    for i, region in enumerate(regions):
        counts = np.zeros(len(VOCAB))
        for record in records:
            if region in record["regions"]:
                for code in record["subject_areas"]:
                    counts[VOCAB.index(code)] += 1
        shares[i] = counts / counts.sum()
    return rows, shares


def _write_jsonl(raw, path):
    lines = [json.dumps({"id": f"p{i}", **r}) for i, r in enumerate(raw)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(raw, path):
    header = "id,year,regions,subject_areas,citations,expected_citations,journal_quartile"
    lines = [header] + [
        f"p{i},{int(r['year'])},{';'.join(r['regions'])},{';'.join(r['subject_areas'])},"
        f"{int(r['citations'])},{r['expected_citations']!r},{r['journal_quartile']}"
        for i, r in enumerate(raw)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestColumnarReader:
    @pytest.mark.parametrize("write, suffix", [(_write_jsonl, ".jsonl"), (_write_csv, ".csv")])
    @given(raw=st.lists(_RAW_RECORD, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_record_by_record(self, tmp_path_factory, write, suffix, raw):
        path = tmp_path_factory.mktemp("pubs") / f"pubs{suffix}"
        write(raw, path)
        pubs = load_publications(path, VOCAB)
        assert len(pubs) == len(raw)
        rows, shares = _seed_way(raw)
        got = [(r.region, r.year, r.pub_count, r.fwci, r.q1_share, r.nq_share)
               for r in region_year_indicators(pubs)]
        # repr tells every float bit apart, -0.0 from 0.0 included
        assert repr(got) == repr(rows)
        profiles = build_profile_matrix(pubs.incidences, VOCAB)
        assert profiles.shares.tobytes() == shares.tobytes()

    @pytest.mark.parametrize("write, suffix", [(_write_jsonl, ".jsonl"), (_write_csv, ".csv")])
    @given(raw=st.lists(_RAW_RECORD, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_counts_of_a_file_equal_those_of_its_records(self, tmp_path_factory, write,
                                                         suffix, raw):
        path = tmp_path_factory.mktemp("pubs") / f"pubs{suffix}"
        write(raw, path)
        assert counts_of(load_publications(path, VOCAB)) == counted(_records(raw))


@pytest.mark.parametrize("year", [int, str], ids=["canonical", "string-year"])
def test_loading_holds_counts_not_records(tmp_path, year):
    """While load_publications reads 20,000 records over 40 regions and 3 years,
    tracemalloc's peak stays under 64 bytes a record: the fold keeps each record's
    citation ratio once per region it lists, and nothing else of it. Records held as
    columns peaked at about 305 bytes a record. A string year sends every record
    through the record path, which folds a run of records at a time too."""
    rng = random.Random(5)
    regions = [f"R{i:02d}" for i in range(40)]
    n = 20_000
    lines = [
        json.dumps({
            "id": f"p{i}", "year": year(rng.randrange(2018, 2021)),
            "regions": rng.sample(regions, rng.randint(1, 3)),
            "subject_areas": rng.sample(VOCAB, rng.randint(1, 3)),
            "citations": rng.randrange(60), "expected_citations": rng.uniform(0.5, 25.0),
            "journal_quartile": rng.choice(["Q1", "Q2", "Q3", "Q4", "NONE"]),
        })
        for i in range(n)
    ]
    path = tmp_path / "pubs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(load_publications(path, VOCAB)) == n  # warm-up
    tracemalloc.start()
    try:
        pubs = load_publications(path, VOCAB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pubs) == n
    assert peak / n < 64, f"{peak / n:.0f} bytes a record"


# ---------------------------------------------------------------------------
# the chunked JSON-lines loader against the record-by-record path
# ---------------------------------------------------------------------------

_CANONICAL = {"id": "p", "year": 2019, "regions": ["A", "B"], "subject_areas": ["bio", "math"],
              "citations": 7, "expected_citations": 3.3, "journal_quartile": "Q1"}
_LINES = 10  # records in each file below: two runs of 4 and one of 2


def _record_line(i: int) -> str:
    rng = random.Random(i)
    return json.dumps({
        **_CANONICAL, "id": f"p{i}", "year": 2018 + i % 3,
        "regions": rng.sample(["A", "B", "C", "D"], rng.randint(1, 3)),
        "subject_areas": rng.sample(VOCAB, rng.randint(1, 3)),
        "citations": rng.randrange(40), "expected_citations": rng.uniform(0.5, 9.0),
        "journal_quartile": rng.choice(["Q1", "Q2", "Q3", "Q4", "NONE"]),
    })


def _loaded(path, vocabulary=VOCAB):
    """What load_publications gives: the counts, ratio bytes included, or the error."""
    try:
        pubs = load_publications(path, vocabulary)
    except EngineError as exc:
        return type(exc).__name__, str(exc)
    return counts_of(pubs)


def _record_by_record(monkeypatch, path, vocabulary=VOCAB):
    """What the record path gives reading the file a line at a time."""
    with monkeypatch.context() as patch:
        patch.setattr(loader, "_json_run", lambda lines: None)
        return _loaded(path, vocabulary)


def _decoded_record_by_record(monkeypatch, path, vocabulary=VOCAB):
    """What the record path gives on the values of each run decoded at once."""
    with monkeypatch.context() as patch:
        patch.setattr(loader, "_canonical_columns", lambda *args: None)
        return _loaded(path, vocabulary)


# one line each, read alike by the record path whether or not it is in the canonical shape
_VARIANTS = {
    "canonical": lambda r: json.dumps(r),
    "extra-field": lambda r: json.dumps({"title": "t", **r}),
    "keys-reordered": lambda r: json.dumps(dict(reversed(r.items()))),
    "joined-regions": lambda r: json.dumps({**r, "regions": "A; B"}),
    "int-expected": lambda r: json.dumps({**r, "expected_citations": 3}),
    "string-year": lambda r: json.dumps({**r, "year": "2019"}),
    "float-year": lambda r: json.dumps({**r, "year": 2019.0}),
    "padded-names": lambda r: json.dumps(
        {**r, "regions": [" A", "B "], "subject_areas": [" bio"]}),
    "blank-quartile": lambda r: json.dumps({**r, "journal_quartile": ""}),
    "padded-quartile": lambda r: json.dumps({**r, "journal_quartile": " NONE "}),
    "repeated-region": lambda r: json.dumps({**r, "regions": ["A", "B", "A"]}),
    "region-repeated-once-stripped": lambda r: json.dumps({**r, "regions": ["A", " A"]}),
    "repeated-area": lambda r: json.dumps({**r, "subject_areas": ["bio", "bio"]}),
    "brace-in-id": lambda r: json.dumps({**r, "id": "p{1}"}),
    "brace-in-title": lambda r: json.dumps({"title": "On {x} and {y}", **r}),
    "nested-extra-field": lambda r: json.dumps({**r, "venue": {"name": "J", "issn": None}}),
    "int-expected-past-2**53": lambda r: json.dumps({**r, "expected_citations": 2**60 + 1}),
    "citations-past-2**53": lambda r: json.dumps(
        {**r, "citations": 2**60 + 1, "expected_citations": 3e17}),
    "blank-line": lambda r: "\n" + json.dumps(r),
    "bool-expected": lambda r: json.dumps({**r, "expected_citations": True}),
    # invalid: each is named by its file:line, or by the file
    "negative-citations": lambda r: json.dumps({**r, "citations": -1}),
    "negative-citations-after-a-blank-line": lambda r: "\n" + json.dumps({**r, "citations": -1}),
    "zero-expected": lambda r: json.dumps({**r, "expected_citations": 0.0}),
    "nan-expected": lambda r: json.dumps({**r, "expected_citations": math.nan}),
    "ratio-overflows": lambda r: json.dumps({**r, "expected_citations": 1e-320}),
    "int-expected-past-the-floats": lambda r: json.dumps({**r, "expected_citations": 10**400}),
    "zero-int-expected": lambda r: json.dumps({**r, "expected_citations": 0}),
    "bool-citations": lambda r: json.dumps({**r, "citations": True}),
    "missing-field": lambda r: json.dumps({k: v for k, v in r.items() if k != "year"}),
    "unknown-quartile": lambda r: json.dumps({**r, "journal_quartile": "Q5"}),
    "area-outside-vocabulary": lambda r: json.dumps({**r, "subject_areas": ["bio", "art"]}),
    "no-regions": lambda r: json.dumps({**r, "regions": []}),
    "number-as-region": lambda r: json.dumps({**r, "regions": ["A", 1]}),
    "object-as-area": lambda r: json.dumps({**r, "subject_areas": [{"bio": 1}]}),
    "nul-in-region": lambda r: json.dumps({**r, "regions": ["A\x00"]}),
    "not-an-object": lambda r: "[1, 2]",
    "null": lambda r: "null",
    "bad-json": lambda r: json.dumps(r)[:-1],
    "two-records": lambda r: json.dumps(r) + ", " + json.dumps(r),
    "bom": lambda r: "\ufeff" + json.dumps(r),
}


@pytest.mark.parametrize("at", [0, 4, _LINES - 1], ids=["first", "first-of-second-run", "last"])
@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_chunked_loader_counts_or_fails_as_record_by_record(tmp_path, monkeypatch, variant, at):
    monkeypatch.setattr(loader, "CHUNK_LINES", 4)
    lines = [_record_line(i) for i in range(_LINES)]
    lines[at] = _VARIANTS[variant]({**json.loads(lines[at]), "id": f"p{at}"})
    path = tmp_path / "pubs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = _record_by_record(monkeypatch, path)
    assert _loaded(path) == want
    assert _decoded_record_by_record(monkeypatch, path) == want
    assert _loaded(path, None) == _record_by_record(monkeypatch, path, None)


# lines that are each no JSON value, but that a parse of the run joined as one array
# could read as records: a record split over two lines, and one that a repeated key
# hides in an array spanning two lines
_SPANNING = {
    "split-record": ['{"id": "a", "year": 2019, "regions": ["A"]',
                     '"subject_areas": ["bio"], "citations": 1, "expected_citations": 1.0, '
                     '"journal_quartile": "Q1"}'],
    "hidden-by-repeated-key": ['{"regions": [1',
                               '{"x": 1}], ' + json.dumps(_CANONICAL)[1:]],
}
# the line after them: a record, or a line of two values that would make up the count
_AFTER_SPANNING = {
    "record": _record_line(2),
    "two-records": json.dumps(_CANONICAL) + ", " + json.dumps(_CANONICAL),
    "record-and-number": json.dumps(_CANONICAL) + ", 5",
}


@pytest.mark.parametrize("after", list(_AFTER_SPANNING))
@pytest.mark.parametrize("case", list(_SPANNING))
def test_a_value_spanning_lines_is_bad_json_as_record_by_record(
        tmp_path, monkeypatch, case, after):
    monkeypatch.setattr(loader, "CHUNK_LINES", 4)
    path = tmp_path / "pubs.jsonl"
    path.write_text("\n".join([*_SPANNING[case], _AFTER_SPANNING[after], _record_line(3)])
                    + "\n", encoding="utf-8")
    want = _record_by_record(monkeypatch, path)
    assert want[0] == "NonNumericCell" and f"{path}:1: bad JSON" in want[1]
    assert _loaded(path) == want


def test_a_file_shorter_than_a_run_is_read_in_one(tmp_path, monkeypatch):
    path = tmp_path / "pubs.jsonl"
    path.write_text("".join(_record_line(i) + "\n" for i in range(3)), encoding="utf-8")
    assert loader.CHUNK_LINES > 3
    runs = []
    canonical = loader._canonical_columns

    def checking(*args):
        runs.append(canonical(*args))
        return runs[-1]

    monkeypatch.setattr(loader, "_canonical_columns", checking)
    got = _loaded(path)
    assert len(runs) == 1 and runs[0] is not None
    monkeypatch.undo()
    assert got == _record_by_record(monkeypatch, path)


def test_canonical_records_are_counted_without_the_record_path(tmp_path, monkeypatch):
    """The benchmark's shape of record takes the chunked path, and so do an integer
    expected_citations and a "{" in a field the loader does not read: no record is read
    one by one. A record not in the canonical shape sends only its own run there, and
    no line is decoded twice."""
    monkeypatch.setattr(loader, "CHUNK_LINES", 4)
    lines = [_record_line(i) for i in range(_LINES)]
    lines[1] = json.dumps({**json.loads(lines[1]), "expected_citations": 3})
    lines[2] = json.dumps({"title": "On {x}", **json.loads(lines[2])})
    lines[5] = json.dumps({**json.loads(lines[5]), "year": "2019"})
    path = tmp_path / "pubs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read, decoded = [], []
    checked, line = loader._checked_columns, loader._json_line

    def checking(path, objects, vocabulary):
        objects = list(objects)
        read.extend(lineno for lineno, _ in objects)
        return checked(path, objects, vocabulary)

    def decoding(text):
        decoded.append(text)
        return line(text)

    monkeypatch.setattr(loader, "_checked_columns", checking)
    monkeypatch.setattr(loader, "_json_line", decoding)
    assert len(load_publications(path, VOCAB)) == _LINES
    assert read == [5, 6, 7, 8]
    assert decoded == [lines[2]]


def test_a_bad_record_before_a_byte_that_is_not_utf8_is_named_first(tmp_path):
    """As when the file is read line by line: the bad record on line 2 is named, though
    the byte on line 201 belongs to the same run of lines."""
    lines = [_record_line(i).encode() for i in range(300)]
    lines[1] = json.dumps({**_CANONICAL, "citations": -1}).encode()
    path = tmp_path / "pubs.jsonl"
    path.write_bytes(b"\n".join([*lines[:200], "\"é\"".encode("latin-1"), *lines[201:]]))
    assert loader.CHUNK_LINES > 200
    with pytest.raises(NonNumericCell, match=f"^{path}:2: record 'p': citations must be >= 0$"):
        load_publications(path, VOCAB)
    lines[1] = lines[0]
    path.write_bytes(b"\n".join([*lines[:200], "\"é\"".encode("latin-1"), *lines[201:]]))
    with pytest.raises(UnicodeDecodeError):
        load_publications(path, VOCAB)
