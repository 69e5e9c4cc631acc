"""Seeded inputs for the benchmark workloads.

The engine only ever receives the files written here. Publications are drawn
per region-year cell of a simulated panel so that every cell is covered
(otherwise `rkpf ingest` fails its balance check) and so that the
publication-derived indicators track the simulated FWCI and quartile shares.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# ASJC-style top-level subject areas: 1000, 1100, ..., 3600
VOCABULARY = tuple(str(code) for code in range(1000, 3700, 100))
QUARTILES = ("Q1", "Q2", "Q3", "Q4", "NONE")
# records per region-year, counting a co-authored record once per region
RECORDS_PER_CELL = 100
# share of records with 1, 2 or 3 regions (co-authorship)
REGION_COUNT_P = (0.6, 0.3, 0.1)
# share of records with 1, 2 or 3 subject areas
AREA_COUNT_P = (0.5, 0.35, 0.15)
# indicator columns ingest derives from publications; left out of the panel CSV
INDICATOR_COLUMNS = ("FWCI", "Q1SH", "NQSH")


@dataclass(frozen=True)
class Publications:
    """Generated records, kept as arrays for the oracle.

    Record i belongs to year `years[i]`, lists the regions `regions[i]`
    (indices into the panel's region order) and the subject areas
    `areas[i]` (indices into VOCABULARY).
    """

    years: np.ndarray
    regions: list[tuple[int, ...]]
    areas: list[tuple[int, ...]]
    citations: np.ndarray
    expected: np.ndarray
    quartile: np.ndarray  # index into QUARTILES


def generate_publications(dataset, seed: int) -> Publications:
    """About RECORDS_PER_CELL records per region-year, counting co-authored ones.

    Each cell leads `RECORDS_PER_CELL / E[regions per record]` records. Citations are
    Poisson around expected * the cell's simulated FWCI; quartiles follow the
    cell's simulated Q1SH and NQSH (Q2-Q4 share the rest). Subject areas come
    from a per-region Dirichlet preference, so thematic profiles differ.
    """
    rng = np.random.default_rng([seed, 2311])
    n, t = dataset.n_regions, dataset.n_years
    n_areas = len(VOCABULARY)
    mean_regions = float(np.dot(REGION_COUNT_P, (1, 2, 3)))
    leads = max(1, round(RECORDS_PER_CELL / mean_regions))
    log_pref = np.log(rng.dirichlet(np.full(n_areas, 0.35), size=n) + 1e-300)
    fwci = dataset.var("FWCI")
    q1 = dataset.var("Q1SH") / 100.0
    nq = dataset.var("NQSH") / 100.0

    years, regions, areas, citations, expected, quartile = [], [], [], [], [], []
    for i in range(n):
        for j in range(t):
            n_regions = rng.choice(3, size=leads, p=REGION_COUNT_P) + 1
            first = rng.integers(1, n, size=leads)
            second = rng.integers(1, n - 1, size=leads)
            second = second + (second >= first)  # distinct from `first`
            n_area = rng.choice(3, size=leads, p=AREA_COUNT_P) + 1
            # Gumbel top-k: distinct areas drawn from the region's preference
            keys = log_pref[i] + rng.gumbel(size=(leads, n_areas))
            ranked = np.argsort(-keys, axis=1)
            exp_cit = np.exp(rng.normal(np.log(8.0), 0.5, size=leads))
            cites = rng.poisson(exp_cit * fwci[i, j])
            p_q1, p_nq = q1[i, j], nq[i, j]
            if p_q1 + p_nq > 0.9:
                p_q1, p_nq = 0.9 * p_q1 / (p_q1 + p_nq), 0.9 * p_nq / (p_q1 + p_nq)
            rest = (1.0 - p_q1 - p_nq) / 3.0
            quart = rng.choice(5, size=leads, p=(p_q1, rest, rest, rest, p_nq))
            for k in range(leads):
                members = [i, (i + first[k]) % n, (i + second[k]) % n][: n_regions[k]]
                regions.append(tuple(sorted(members)))
                areas.append(tuple(sorted(ranked[k, : n_area[k]].tolist())))
            years.append(np.full(leads, j))
            citations.append(cites)
            expected.append(exp_cit)
            quartile.append(quart)
    return Publications(
        years=np.concatenate(years),
        regions=regions,
        areas=areas,
        citations=np.concatenate(citations),
        expected=np.concatenate(expected),
        quartile=np.concatenate(quartile),
    )


def write_publications(pubs: Publications, dataset, path) -> None:
    """JSON-lines in the shape `rkpf ingest --pubs` reads."""
    region_ids, years = dataset.region_ids, dataset.years
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for k in range(len(pubs.regions)):
            record = {
                "id": f"P{k:07d}",
                "year": years[pubs.years[k]],
                "regions": [region_ids[r] for r in pubs.regions[k]],
                "subject_areas": [VOCABULARY[a] for a in pubs.areas[k]],
                "citations": int(pubs.citations[k]),
                "expected_citations": float(pubs.expected[k]),
                "journal_quartile": QUARTILES[pubs.quartile[k]],
            }
            fh.write(json.dumps(record) + "\n")


def write_vocabulary(path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(VOCABULARY) + "\n")
