"""Scientometric indicators against brute-force enumeration oracles."""
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkpf.errors import (
    EmptyCell,
    EmptyRegion,
    MissingData,
    NonNumericCell,
    UnknownSubjectArea,
)
from rkpf.indicators import (
    PublicationRecord,
    attribute_full_counting,
    compute_fwci,
    compute_quartile_shares,
    compute_thematic_profile,
    load_publications,
    load_vocabulary,
    region_year_indicators,
    write_indicator_csv,
)

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
    return PublicationRecord(
        id=rid,
        year=year,
        regions=frozenset(regions),
        subject_areas=frozenset(areas),
        citations=citations,
        expected_citations=expected,
        journal_quartile=quartile,
    )


def random_records(rng, n, year_range=(2018, 2020)):
    records = []
    for i in range(n):
        regions = rng.choice(["A", "B", "C", "D"], size=rng.integers(1, 4), replace=False)
        areas = rng.choice(VOCAB, size=rng.integers(1, 4), replace=False)
        records.append(
            rec(
                rid=f"p{i}",
                year=int(rng.integers(*year_range)),
                regions=tuple(regions),
                areas=tuple(areas),
                citations=int(rng.integers(0, 60)),
                expected=float(rng.uniform(0.5, 25.0)),
                quartile=str(rng.choice(["Q1", "Q2", "Q3", "Q4", "NONE"])),
            )
        )
    return records


class TestRecordValidation:
    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            rec(regions=())

    def test_negative_citations_rejected(self):
        with pytest.raises(ValueError):
            rec(citations=-1)

    def test_zero_expected_rejected(self):
        with pytest.raises(ValueError):
            rec(expected=0.0)

    @pytest.mark.parametrize(
        "citations, expected",
        [(10**400, 1.0), (10**300, 1e-300)],
        ids=["too-large-for-a-float", "infinite-ratio"],
    )
    def test_non_finite_ratio_rejected(self, citations, expected):
        # an int too large for a float fails like a ratio that overflows, naming the record
        message = "record 'p1': citations / expected_citations is not a finite float"
        with pytest.raises(ValueError, match=message):
            rec(citations=citations, expected=expected)

    def test_fwci_whose_mean_overflows_names_the_cell(self):
        records = [rec(rid=f"p{i}", citations=17 * 10**307, expected=1.0) for i in (1, 2)]
        with pytest.raises(NonNumericCell, match="FWCI of 'A', 2019 is inf"):
            region_year_indicators(records)


class TestFullCounting:
    def test_two_region_record_counted_in_both(self):
        cells = attribute_full_counting([rec(regions=("A", "B"))])
        assert len(cells[("A", 2019)]) == 1
        assert len(cells[("B", 2019)]) == 1

    def test_multiple_authors_same_region_count_once(self):
        # a record lists each region once regardless of author multiplicity
        cells = attribute_full_counting([rec(regions=("A",))])
        assert len(cells[("A", 2019)]) == 1

    def test_shared_record_counts(self):
        records = [
            rec(rid="p1", regions=("A",)),
            rec(rid="p2", regions=("A", "B")),
        ]
        cells = attribute_full_counting(records)
        assert len(cells[("A", 2019)]) == 2
        assert len(cells[("B", 2019)]) == 1

    def test_total_attributions_vs_distinct_records(self):
        rng = np.random.default_rng(0)
        records = random_records(rng, 40)
        cells = attribute_full_counting(records)
        total = sum(len(v) for v in cells.values())
        assert total >= len(records)
        spans_two = any(len(r.regions) > 1 for r in records)
        assert (total > len(records)) == spans_two


class TestFwci:
    def test_thirty_percent_above_expected(self):
        assert compute_fwci([rec(citations=13, expected=10.0)]) == pytest.approx(1.30)

    def test_all_at_expected_is_one(self):
        records = [rec(rid=f"p{i}", citations=7, expected=7.0) for i in range(5)]
        assert compute_fwci(records) == pytest.approx(1.0)

    def test_mean_of_ratios(self):
        records = [
            rec(rid="p1", citations=5, expected=10.0),
            rec(rid="p2", citations=15, expected=10.0),
        ]
        assert compute_fwci(records) == pytest.approx(1.0)

    def test_empty_cell(self):
        with pytest.raises(EmptyCell):
            compute_fwci([])

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        records = random_records(rng, 20)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert compute_fwci(records) == pytest.approx(compute_fwci(shuffled), abs=1e-12)

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
                rid=r.id,
                citations=r.citations * factor,
                expected=r.expected_citations * factor,
            )
            for r in base
        ]
        assert compute_fwci(scaled) == pytest.approx(compute_fwci(base), rel=1e-12)

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
            rec(rid=r.id, citations=r.citations, expected=r.expected_citations / scale)
            for r in base
        ]
        assert compute_fwci(scaled) == pytest.approx(scale * compute_fwci(base), rel=1e-9)


class TestQuartileShares:
    def test_basic_counts(self):
        records = [
            rec(rid="1", quartile="Q1"),
            rec(rid="2", quartile="Q1"),
            rec(rid="3", quartile="Q3"),
            rec(rid="4", quartile="NONE"),
        ]
        assert compute_quartile_shares(records) == (50.0, 25.0)

    def test_all_none(self):
        records = [rec(rid=str(i), quartile="NONE") for i in range(4)]
        assert compute_quartile_shares(records) == (0.0, 100.0)

    def test_two_q1_three_none_of_eight(self):
        quartiles = ["Q1", "Q1", "NONE", "NONE", "NONE", "Q2", "Q3", "Q4"]
        records = [rec(rid=str(i), quartile=q) for i, q in enumerate(quartiles)]
        assert compute_quartile_shares(records) == (25.0, 37.5)

    def test_empty_cell(self):
        with pytest.raises(EmptyCell):
            compute_quartile_shares([])

    def test_bounds_and_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            records = random_records(rng, int(rng.integers(1, 30)))
            q1, nq = compute_quartile_shares(records)
            assert 0.0 <= q1 <= 100.0
            assert 0.0 <= nq <= 100.0
            assert q1 + nq <= 100.0 + 1e-12


class TestThematicProfile:
    def test_single_area(self):
        records = [rec(rid=str(i), areas=("math",)) for i in range(3)]
        profile = compute_thematic_profile(records, VOCAB)
        assert profile[VOCAB.index("math")] == 1.0
        assert profile.sum() == pytest.approx(1.0)

    def test_two_singleton_records(self):
        records = [rec(rid="1", areas=("bio",)), rec(rid="2", areas=("chem",))]
        profile = compute_thematic_profile(records, VOCAB)
        assert profile[VOCAB.index("bio")] == pytest.approx(0.5)
        assert profile[VOCAB.index("chem")] == pytest.approx(0.5)

    def test_multi_area_incidences(self):
        # {a,b} + {a}: a gets 2 of 3 incidences
        records = [rec(rid="1", areas=("bio", "chem")), rec(rid="2", areas=("bio",))]
        profile = compute_thematic_profile(records, VOCAB)
        assert profile[VOCAB.index("bio")] == pytest.approx(2.0 / 3.0)
        assert profile[VOCAB.index("chem")] == pytest.approx(1.0 / 3.0)

    def test_empty_region(self):
        with pytest.raises(EmptyRegion):
            compute_thematic_profile([], VOCAB)

    def test_unknown_area(self):
        with pytest.raises(UnknownSubjectArea):
            compute_thematic_profile([rec(areas=("alchemy",))], VOCAB)

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(3)
        records = random_records(rng, 50)
        profile = compute_thematic_profile(records, VOCAB)
        assert np.all(profile >= 0)
        assert abs(profile.sum() - 1.0) < 1e-12


class TestBruteForceOracles:
    """Exact-rational enumeration over randomized record sets."""

    def test_indicators_match_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            records = random_records(rng, int(rng.integers(5, 50)))
            rows = {(r.region, r.year): r for r in region_year_indicators(records)}

            # oracle: walk records one by one
            cells = {}
            for record in records:
                for region in record.regions:
                    cells.setdefault((region, record.year), []).append(record)
            assert set(rows) == set(cells)
            for key, members in cells.items():
                row = rows[key]
                assert row.pub_count == len(members)
                q1 = Fraction(
                    100 * sum(1 for m in members if m.journal_quartile == "Q1"),
                    len(members),
                )
                nq = Fraction(
                    100 * sum(1 for m in members if m.journal_quartile == "NONE"),
                    len(members),
                )
                # engine computes (100*count)/total in one correctly rounded
                # division, so it must equal the rational exactly at double
                # precision
                assert row.q1_share == float(q1)
                assert row.nq_share == float(nq)
                fwci = sum(m.citations / m.expected_citations for m in members) / len(members)
                assert abs(row.fwci - fwci) < 1e-12

    def test_profile_matches_exact_fractions(self):
        rng = np.random.default_rng(9)
        records = random_records(rng, 30)
        profile = compute_thematic_profile(records, VOCAB)
        counts = {code: 0 for code in VOCAB}
        for record in records:
            for code in record.subject_areas:
                counts[code] += 1
        total = sum(counts.values())
        for j, code in enumerate(VOCAB):
            assert profile[j] == float(Fraction(counts[code], total))


class TestIo:
    def test_jsonl_round_trip(self, tmp_path):
        records = random_records(np.random.default_rng(4), 8)
        path = tmp_path / "pubs.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(
                    json.dumps(
                        {
                            "id": r.id,
                            "year": r.year,
                            "regions": sorted(r.regions),
                            "subject_areas": sorted(r.subject_areas),
                            "citations": r.citations,
                            "expected_citations": r.expected_citations,
                            "journal_quartile": r.journal_quartile,
                        }
                    )
                    + "\n"
                )
        loaded = load_publications(path)
        assert sorted(r.id for r in loaded) == sorted(r.id for r in records)

    def test_csv_semicolon_fields(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text(
            "id,year,regions,subject_areas,citations,expected_citations,journal_quartile\n"
            "p1,2019,A;B,bio;math,13,10,Q1\n",
            encoding="utf-8",
        )
        (loaded,) = load_publications(path)
        assert loaded.regions == frozenset({"A", "B"})
        assert loaded.subject_areas == frozenset({"bio", "math"})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MissingData):
            load_publications(path)

    def test_vocabulary(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("bio\nchem\n\nmath\n", encoding="utf-8")
        assert load_vocabulary(path) == ["bio", "chem", "math"]

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
        rows = region_year_indicators(records)
        path = tmp_path / "indicators.csv"
        write_indicator_csv(rows, path)
        d = load_panel_csv(path)
        assert {"PUBS", "FWCI", "Q1SH", "NQSH"} <= set(d.variables)
