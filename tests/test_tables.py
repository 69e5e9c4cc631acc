"""Table files: round trips of awkward names, and a fuzz of every file loader."""
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkpf.cli import main
from rkpf.panel import write_panel_csv
from rkpf.simulate import DgpConfig, generate_panel
from rkpf.weights import (
    ThematicProfileMatrix,
    build_weights,
    correlation_matrix,
    load_profiles_csv,
    load_weights_csv,
    write_profiles_csv,
    write_weights_csv,
)


def test_names_with_comma_and_quote_round_trip(tmp_path):
    regions = ('North, "upper"', 'say "hi"', "a,b,c")
    m = ThematicProfileMatrix(
        regions, ("bio", 'math, "pure"'), np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1]])
    )
    write_profiles_csv(m, tmp_path / "profiles.csv")
    profiles = load_profiles_csv(tmp_path / "profiles.csv")
    assert profiles.regions == regions and profiles.subject_areas == m.subject_areas
    np.testing.assert_array_equal(profiles.shares, m.shares)

    w = build_weights(correlation_matrix(m), regions)
    write_weights_csv(w, tmp_path / "weights.csv")
    loaded = load_weights_csv(tmp_path / "weights.csv")
    assert loaded.regions == regions
    np.testing.assert_array_equal(loaded.w, w.w)


# ---------------------------------------------------------------------------
# fuzz: corrupted input files exit 0 or 2 from every command, never 1
# ---------------------------------------------------------------------------

VOCABULARY = ("SA01", "SA02", "SA03")
_FIELDS = ("id", "year", "regions", "subject_areas", "citations", "expected_citations",
           "journal_quartile")


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """Valid inputs for a 3-region, 5-year panel, named as the fuzz writes them."""
    root = tmp_path_factory.mktemp("good")
    g = generate_panel(DgpConfig(n_regions=3, n_years=5, seed=3))
    d = g.dataset
    (root / "bundle").mkdir()
    write_panel_csv(d, root / "bundle" / "dataset.csv")
    write_weights_csv(g.weights, root / "weights.csv")
    write_profiles_csv(g.profiles, root / "profiles.csv")
    records = [
        {"id": f"p{i}{year}", "year": year, "regions": [region],
         "subject_areas": [VOCABULARY[(i + year) % 3], VOCABULARY[i]],
         "citations": i + year % 4, "expected_citations": 1.5, "journal_quartile": "Q1"}
        for i, region in enumerate(d.region_ids)
        for year in d.years
    ]
    (root / "pubs.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    csv_rows = [",".join(_FIELDS)] + [
        ",".join(
            ";".join(r[f]) if isinstance(r[f], list) else str(r[f]) for f in _FIELDS
        )
        for r in records
    ]
    (root / "pubs.csv").write_text("\n".join(csv_rows) + "\n", encoding="utf-8")
    (root / "vocab.txt").write_text("\n".join(VOCABULARY) + "\n", encoding="utf-8")
    return root


# every command that reads the inputs, as argv relative to the input directory
COMMANDS = (
    ["ingest", "--panel", "bundle/dataset.csv", "--pubs", "pubs.jsonl", "--vocab", "vocab.txt"],
    ["ingest", "--panel", "bundle/dataset.csv", "--pubs", "pubs.csv"],
    ["weights", "--profiles", "profiles.csv", "--bundle", "bundle"],
    ["weights", "--pubs", "pubs.jsonl", "--vocab", "vocab.txt", "--bundle", "bundle"],
    ["fit", "--bundle", "bundle", "--spec", "fe.ow.q", "--weights", "weights.csv"],
    ["suite", "--bundle", "bundle", "--specs", "fe.ow,fe.tw", "--weights", "weights.csv"],
    ["stats", "--bundle", "bundle"],
)
FILES = ("bundle/dataset.csv", "weights.csv", "profiles.csv", "pubs.jsonl", "pubs.csv",
         "vocab.txt")
CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "1e400", "1e200", "-1", "0",
                     "abc", "2019.7", "true", '"', "R1", "SA01", "Q5"]),
    st.integers(2005, 2015).map(str),
)
JSON_VALUES = st.sampled_from(
    [None, True, "nan", "inf", "x", 2019.7, -1, 0, math.nan, math.inf, 1e300, [], {}, "R1;R9",
     ["SA09"], [1]]
)


@st.composite
def corruptions(draw, text: str, jsonl: bool) -> str:
    kind = draw(st.sampled_from(
        ["truncate", "drop_cell", "add_cell", "cell", "duplicate_row", "empty", "bom"]
        + (["json_field"] if jsonl else [])
    ))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "empty":
        return ""
    if kind == "bom":
        return "\ufeff" + text
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate_row":
        lines.insert(i, lines[i])
    elif kind == "json_field":
        record = json.loads(lines[i])
        record[draw(st.sampled_from(_FIELDS))] = draw(JSON_VALUES)
        lines[i] = json.dumps(record)
    else:
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if kind == "drop_cell":
            del cells[j]
        elif kind == "add_cell":
            cells.insert(j, draw(CELLS))
        else:
            cells[j] = draw(CELLS)
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_inputs_exit_0_or_2(good_files, data):
    name = data.draw(st.sampled_from(FILES))
    text = (good_files / name).read_text(encoding="utf-8")
    corrupted = data.draw(corruptions(text, name.endswith(".jsonl")))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "in"
        shutil.copytree(good_files, root)
        (root / name).write_text(corrupted, encoding="utf-8")
        for k, argv in enumerate(COMMANDS):
            argv = [str(root / a) if (root / a).exists() else a for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--output-dir", str(Path(tmp) / f"out{k}")])
            assert code in (0, 2), f"{argv[0]} on bad {name} exited {code}:\n{err.getvalue()}"
