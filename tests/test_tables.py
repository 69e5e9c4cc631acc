"""Table files: round trips of awkward names, the C and per-row readers against each
other, the table writers against the csv and json modules, and a fuzz of every file
loader."""
import contextlib
import csv
import io
import json
import math
import random
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkpf import panel
from rkpf.cli import main
from rkpf.errors import (
    DuplicateRow,
    EngineError,
    MissingColumn,
    NonConsecutiveYears,
    NonNumericCell,
    RegionOrderMismatch,
)
from rkpf.indicators import RegionYearIndicators, load_vocabulary, write_indicator_csv
from rkpf.panel import RESERVED_COLUMNS, PanelDataset, load_panel_csv, write_panel_csv
from rkpf.tables import parse_floats, read_matrix_rows, read_table, write_table
from rkpf.weights import (
    SpatialWeights,
    StreamedWeights,
    ThematicProfileMatrix,
    build_weights,
    correlation_matrix,
    load_profiles_csv,
    load_weights_csv,
    write_profiles_csv,
    write_weight_rows,
    write_weights_csv,
)


def test_names_with_comma_and_quote_round_trip(tmp_path):
    regions = ('North, "upper"', 'say "hi"', "a,b,c", "line\nbreak", "carriage\rreturn")
    m = ThematicProfileMatrix(
        regions, ("bio", 'math, "pure"'),
        np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1], [0.6, 0.4], [0.2, 0.8]]),
    )
    write_profiles_csv(m, tmp_path / "profiles.csv")
    profiles = load_profiles_csv(tmp_path / "profiles.csv")
    assert profiles.regions == regions and profiles.subject_areas == m.subject_areas
    np.testing.assert_array_equal(profiles.shares, m.shares)

    w = build_weights(correlation_matrix(m), regions)
    write_weights_csv(w, tmp_path / "weights.csv")
    loaded = load_weights_csv(tmp_path / "weights.csv")
    assert loaded.regions == regions
    np.testing.assert_array_equal(np.concatenate(list(loaded.text_rows())), w.w)


# ---------------------------------------------------------------------------
# the writers: the bytes of the csv and json modules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "regions, rows",
    [
        # exponent reprs, names that need quoting or escaping, and two isolated rows
        # whose names sort in the other order
        (("Zürich", 'North, "upper"', "a,b", "B"),
         [[0.0] * 4, [1e-05, 0.0, 1 - 1e-05, 0.0], [5e-324, 0.0, 0.0, 1.0], [0.0] * 4]),
        (("B", "A"), [[0.0, 1.0], [1.0, 0.0]]),  # no isolated row
    ],
)
def test_weights_files_are_the_csv_and_json_modules_bytes(tmp_path, regions, rows):
    w = SpatialWeights(regions, np.array(rows))
    write_weight_rows(w.regions, [w.w], tmp_path / "w.csv", tmp_path / "w.json")
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["region", *regions])
    writer.writerows([region, *row] for region, row in zip(regions, rows))
    assert (tmp_path / "w.csv").read_bytes() == want.getvalue().encode("utf-8")
    payload = {"regions": list(regions), "w": rows,
               "isolated": sorted(regions[i] for i in w.isolated)}
    assert (tmp_path / "w.json").read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def csv_module_bytes(header, rows) -> bytes:
    """What csv.writer writes for a header and rows of cells (None for an empty cell)."""
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return want.getvalue().encode("utf-8")


# names that need quoting or escaping, or start with the comment character of other readers
LABELS = ("a,b", 'say "hi"', "#north", "line\nbreak")
# reprs with a sign, an exponent or a subnormal
AWKWARD_FLOATS = (-0.0, 1e-05, 1e16, 5e-324)


def test_write_table_is_the_csv_modules_bytes(tmp_path):
    rows = [(("a,b", 2009), [1e16, -0.0, 5e-324]), (('say "hi"', 2010), [1e-05, 0.1, 2.5])]
    write_table(tmp_path / "m.csv", ["region", "year", "x", "y", "z"],
                ((labels, ",".join(map(repr, values))) for labels, values in rows))
    want = csv_module_bytes(["region", "year", "x", "y", "z"],
                            [[*labels, *values] for labels, values in rows])
    assert (tmp_path / "m.csv").read_bytes() == want


def test_panel_file_is_the_csv_modules_bytes(tmp_path):
    values = np.array([[*AWKWARD_FLOATS, np.nan, 0.5, np.nan, 2.0]]).reshape(len(LABELS), 2)
    d = PanelDataset(LABELS, (2009, 2010), {"v": values})
    write_panel_csv(d, tmp_path / "d.csv")
    rows = [
        [region, year, None if np.isnan(x) else float(x)]
        for region, row in zip(d.region_ids, values)
        for year, x in zip(d.years, row)
    ]
    assert (tmp_path / "d.csv").read_bytes() == csv_module_bytes(["region", "year", "v"], rows)


def test_indicator_file_is_the_csv_modules_bytes(tmp_path):
    rows = [
        RegionYearIndicators(region, 2009 + i, 3 * i, fwci, 100.0 * i / 3, 12.5)
        for i, (region, fwci) in enumerate(zip(LABELS, AWKWARD_FLOATS))
    ]
    write_indicator_csv(rows, tmp_path / "i.csv")
    want = csv_module_bytes(
        ["region", "year", "PUBS", "FWCI", "Q1SH", "NQSH"],
        [[r.region, r.year, r.pub_count, r.fwci, r.q1_share, r.nq_share] for r in rows],
    )
    assert (tmp_path / "i.csv").read_bytes() == want


@pytest.mark.parametrize("name, load, text", [
    ("panel.csv", load_panel_csv, "region,year,v\nR1,2019,1.5\nR2,2019,2.5\n"),
    ("profiles.csv", load_profiles_csv, "region,a,b\nR1,0.5,0.5\nR2,0.25,0.75\n"),
    ("weights.csv", load_weights_csv, "region,R1,R2\nR1,0.0,1.0\nR2,1.0,0.0\n"),
    ("vocab.txt", load_vocabulary, "1000\n1100\n"),
], ids=["panel", "profiles", "weights", "vocabulary"])
def test_a_byte_order_mark_is_named(tmp_path, name, load, text):
    """Each reader refuses a leading UTF-8 byte-order mark by name, rather than keep it
    in the first name read; the C parse of a table falls back to the same message."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    load(path)
    path.write_text("\ufeff" + text, encoding="utf-8")
    message = f"{path}: starts with a UTF-8 byte-order mark"
    with pytest.raises(NonNumericCell, match=f"^{re.escape(message)}$"):
        load(path)
    if name == "panel.csv":
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["ingest", "--panel", str(path), "--output-dir", str(tmp_path / "b")])
        assert (code, err.getvalue()) == (2, f"error: {message}\n")


# ---------------------------------------------------------------------------
# the C parse of read_matrix against the per-row reader
# ---------------------------------------------------------------------------


def reference_weights(path) -> SpatialWeights:
    """load_weights_csv, row by row through read_table and parse_floats."""
    header, rows = read_table(path)
    if header[:1] != ["region"]:
        raise MissingColumn(f"{path}: first header cell must be 'region'")
    regions, matrix = [], []
    for lineno, cells in rows:
        regions.append(cells[0])
        matrix.append(parse_floats(cells[1:], header[1:], f"{path}:{lineno}"))
    if regions != header[1:]:
        raise RegionOrderMismatch(f"{path}: row and column region order differ")
    return SpatialWeights(tuple(regions), np.stack(matrix))


def reference_panel(path) -> PanelDataset:
    """load_panel_csv, row by row through read_table and parse_floats."""
    header, rows = read_table(path)
    for col in RESERVED_COLUMNS:
        if col not in header:
            raise MissingColumn(f"{path}: required column {col!r} missing")
    var_names = [h for h in header if h not in RESERVED_COLUMNS]
    if not var_names:
        raise MissingColumn(f"{path}: no variable columns beyond region,year")
    region_col, year_col = header.index("region"), header.index("year")
    cells_by_key = {}
    for lineno, cells in rows:
        try:
            year = int(cells[year_col])
        except ValueError:
            raise NonNumericCell(
                f"{path}:{lineno}: year column: cannot parse {cells[year_col]!r}"
            ) from None
        key = (cells[region_col], year)
        if key in cells_by_key:
            raise DuplicateRow(f"{path}:{lineno}: duplicate row for {key[0]!r}, {year}")
        cells_by_key[key] = parse_floats(
            [cells[header.index(name)] for name in var_names], var_names, f"{path}:{lineno}"
        )
    years = [year for _, year in cells_by_key]
    first, last = min(years), max(years)
    if last - first >= len(years):
        raise NonConsecutiveYears(f"{path}: years {first}-{last} outnumber the data rows")
    region_ids = sorted({region for region, _ in cells_by_key})
    table = np.full((len(var_names), len(region_ids), last - first + 1), np.nan)
    for (region, year), values in cells_by_key.items():
        table[:, region_ids.index(region), year - first] = values
    return PanelDataset(tuple(region_ids), tuple(range(first, last + 1)),
                        dict(zip(var_names, table)))


def outcome(load, path):
    """What a loader gives: its error, or its labels and the bytes of its arrays; the
    W of streamed weights is joined from the checked blocks of rows of the text."""
    try:
        result = load(path)
        if isinstance(result, StreamedWeights):
            result = SpatialWeights(result.regions, np.concatenate(list(result.text_rows())))
    except EngineError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, SpatialWeights):
        return result.regions, result.w.tobytes()
    return result.region_ids, result.years, {k: v.tobytes() for k, v in result.variables.items()}


NAMES = ["R1", "R2", "#north", "a,b", 'say "hi"', "Zürich", " padded "]
# cell texts that float() and np.loadtxt may read differently, or not at all
AWKWARD = ["1_000", "１", "٣", "nan", "inf", "-inf", "1e400", "", '"0.5"', " 0.25 ", "0.5\t",
           "+.5", "0_0", "-0.0", " 0 ", "０", "1e-400", "abc", "1#2"]


def csv_cell(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


@st.composite
def table_text(draw, header, rows):
    """A table file of header and rows of cell texts, with awkward cells and layout drawn."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(AWKWARD))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", ","])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" if draw(st.integers(0, 9)) == 9 else ""
    return bom + end.join(lines) + end


@pytest.mark.parametrize("cell", AWKWARD)
def test_readers_agree_on_each_awkward_cell(tmp_path, cell):
    path = tmp_path / "panel.csv"
    path.write_text(f"region,year,v,w\n#north,2009,0.5,{cell}\n#north,2010,1.5,2.5\n",
                    encoding="utf-8")
    assert outcome(load_panel_csv, path) == outcome(reference_panel, path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_weights_readers_agree(tmp_path_factory, data):
    regions = data.draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=4, unique=True))
    n = len(regions)
    raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n)))
    w = raw.reshape(n, n) * (1 - np.eye(n))
    w /= w.sum(axis=1, keepdims=True)
    names = [csv_cell(r) for r in regions]
    text = data.draw(table_text(["region", *names],
                                [[name, *map(repr, row.tolist())] for name, row in zip(names, w)]))
    path = tmp_path_factory.mktemp("w") / "weights.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_weights_csv, path) == outcome(reference_weights, path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_panel_readers_agree(tmp_path_factory, data):
    regions = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    n_years = data.draw(st.integers(1, 3))
    n_vars = data.draw(st.integers(1, 2))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [
        [csv_cell(region), data.draw(st.sampled_from([str(year), f" {year} "])),
         *(data.draw(finite) for _ in range(n_vars))]
        for region in regions
        for year in range(2009, 2009 + n_years)
    ]
    header = ["region", "year", *(f"v{k}" for k in range(n_vars))]
    path = tmp_path_factory.mktemp("p") / "panel.csv"
    path.write_bytes(data.draw(table_text(header, rows)).encode("utf-8"))
    assert outcome(load_panel_csv, path) == outcome(reference_panel, path)


def read_joined(path, block_rows):
    """read_matrix_rows of a table whose label columns come first, its blocks joined,
    and the calls of check_labels: (columns, labels, bytes of the values, calls), or the
    error's type and message with the calls."""
    calls = []
    try:
        columns, blocks = read_matrix_rows(path, lambda header: [0, 1], block_rows,
                                           lambda *call: calls.append(call))
        labels, values = [], []
        for block_labels, block in blocks:
            assert 0 < len(block_labels) <= block_rows and len(block) == len(block_labels)
            labels += block_labels
            values.append(block)
        return columns, labels, np.concatenate(values).tobytes(), calls
    except EngineError as exc:
        return type(exc).__name__, str(exc), calls


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_blocks_of_rows_join_to_the_whole_table(tmp_path_factory, data):
    """read_matrix_rows by blocks of a few data rows gives the labels, bits, line
    numbers and errors of the one block of the whole table, whatever a block holds:
    a quote, a cell across lines, a blank line, an awkward cell, CRLF line ends."""
    names = data.draw(st.lists(st.sampled_from([*NAMES, "line\nbreak"]), min_size=1,
                               max_size=3, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [[csv_cell(name), str(year), data.draw(finite), data.draw(finite)]
            for name in names for year in (2009, 2010)]
    path = tmp_path_factory.mktemp("m") / "m.csv"
    path.write_bytes(data.draw(table_text(["region", "year", "a", "b"], rows)).encode("utf-8"))
    whole = read_joined(path, len(rows))
    for block_rows in (1, 2, 3):
        assert read_joined(path, block_rows) == whole, block_rows


# ---------------------------------------------------------------------------
# the panel parsed by blocks of rows
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def panel_blocks(rows):
    """Within, load_panel_csv parses its text by blocks of `rows` data rows."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(panel, "read_matrix_rows",
                            lambda path, columns, _, check=None: read_matrix_rows(
                                path, columns, rows, check))
        yield


# data rows of a 2-region, 3-year panel; blocks of 3 rows end after R1's last year
PANEL_ROWS = ["R1,2009,1.5,2", "R1,2010,2.5,3", "R1,2011,3.5,4",
              "R2,2009,4.5,5", "R2,2010,5.5,6", "R2,2011,6.5,7"]


@pytest.mark.parametrize("rows, message", [
    (PANEL_ROWS[:3] + ["R1,2010,9,9"] + PANEL_ROWS[3:],
     "{path}:5: duplicate row for 'R1', 2010"),
    (PANEL_ROWS[:3] + ["R2,20x0,9,9"] + PANEL_ROWS[3:],
     "{path}:5: year column: cannot parse '20x0'"),
    (PANEL_ROWS[:4] + ["R2,2010,abc,6"] + PANEL_ROWS[5:],
     "{path}:6: column 'v': cannot parse 'abc' as a finite number"),
    # the first fault of the file wins, whichever block holds the next
    (PANEL_ROWS[:3] + ["R1,2009,9,9", "R2,2009,4.5,inf"] + PANEL_ROWS[4:],
     "{path}:5: duplicate row for 'R1', 2009"),
    (PANEL_ROWS[:3] + ["R2,2009,4.5,nan", "R1,2009,9,9"] + PANEL_ROWS[4:],
     "{path}:5: column 'w': cannot parse 'nan' as a finite number"),
    (PANEL_ROWS[:2] + ["R1,2011,3.5,4,5"] + PANEL_ROWS[3:] + ["R1,2009,1,1"],
     "{path}:4: expected 4 cells, got 5"),
], ids=["duplicate-across-blocks", "bad-year", "non-numeric-cell", "duplicate-then-inf",
        "nan-then-duplicate", "wide-row-then-duplicate"])
@pytest.mark.parametrize("block_rows", [1, 3, 4])
def test_a_fault_past_a_block_boundary_has_the_message_of_the_whole_text(
        tmp_path, rows, message, block_rows):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["region,year,v,w", *rows]) + "\n", encoding="utf-8")
    want = ("DuplicateRow" if "duplicate" in message else "NonNumericCell",
            message.format(path=path))
    assert outcome(load_panel_csv, path) == outcome(reference_panel, path) == want
    with panel_blocks(block_rows):
        assert outcome(load_panel_csv, path) == want


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4])
def test_crlf_and_a_blank_line_at_a_block_boundary_read_as_the_text(tmp_path, block_rows):
    path = tmp_path / "panel.csv"
    lines = ["region,year,v,w", *PANEL_ROWS[:3], "", *PANEL_ROWS[3:], " ", ""]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    want = outcome(load_panel_csv, path)
    assert want == outcome(reference_panel, path) and want[0] == ("R1", "R2")
    with panel_blocks(block_rows):
        assert outcome(load_panel_csv, path) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_panel_readers_agree_by_blocks_of_rows(tmp_path_factory, data):
    """load_panel_csv by blocks of 1-3 data rows gives what the per-row reader gives,
    a repeated row and an unparsable year among the faults drawn."""
    regions = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [[csv_cell(region), str(year), data.draw(finite)]
            for region in regions for year in (2009, 2010)]
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(rows) - 1))
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(i + 1, len(rows))), list(rows[i]))
        else:
            rows[i][1] = data.draw(st.sampled_from(["20O9", "", "2009.0", "1e3"]))
    path = tmp_path_factory.mktemp("p") / "panel.csv"
    path.write_bytes(data.draw(table_text(["region", "year", "v"], rows)).encode("utf-8"))
    want = outcome(reference_panel, path)
    for block_rows in (1, 2, 3):
        with panel_blocks(block_rows):
            assert outcome(load_panel_csv, path) == want, block_rows


# ---------------------------------------------------------------------------
# fuzz: corrupted input files exit 0 or 2 from every command, never 1
# ---------------------------------------------------------------------------

VOCABULARY = ("SA01", "SA02", "SA03")
_FIELDS = ("id", "year", "regions", "subject_areas", "citations", "expected_citations",
           "journal_quartile")


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """Valid inputs for a 3-region, 5-year panel, named as the fuzz writes them. The
    bundle's dataset.csv and weights.csv come from `rkpf simulate`, each with the
    binary sidecar the CLI writes beside it."""
    root = tmp_path_factory.mktemp("good")
    (root / "small.yaml").write_text("panel: {n_regions: 3, n_years: 5}\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(root / "small.yaml"), "--seed", "3",
                     "--output-dir", str(root / "sim")]) == 0
    (root / "bundle").mkdir()
    for name in ("dataset.csv", "dataset.npz"):
        (root / "sim" / name).rename(root / "bundle" / name)
    for name in ("weights.csv", "weights.npz", "profiles.csv"):
        (root / "sim" / name).rename(root / name)
    shutil.rmtree(root / "sim")
    (root / "small.yaml").unlink()
    d = load_panel_csv(root / "bundle" / "dataset.csv")
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
    [None, True, "nan", "inf", "x", 2019.7, -1, 0, math.nan, math.inf, 1e300, 10**400, 5e-324,
     [], {}, "R1;R9", ["SA09"], [1]]
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
    """Each command exits 0 or 2 on a corrupted input. The sidecars beside the bundle's
    dataset.csv and weights.csv change nothing: with them deleted, every command exits
    with the same code and the same error line."""
    name = data.draw(st.sampled_from(FILES))
    text = (good_files / name).read_text(encoding="utf-8")
    corrupted = data.draw(corruptions(text, name.endswith(".jsonl")))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "in"
        shutil.copytree(good_files, root)
        (root / name).write_text(corrupted, encoding="utf-8")

        def run_all():
            ends = []
            for k, argv in enumerate(COMMANDS):
                argv = [str(root / a) if (root / a).exists() else a for a in argv]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([*argv, "--output-dir", str(Path(tmp) / f"out{k}")])
                assert code in (0, 2), f"{argv[0]} on bad {name} exited {code}:\n{err.getvalue()}"
                ends.append((code, err.getvalue()))
            return ends

        with_sidecars = run_all()
        for npz in ("bundle/dataset.npz", "weights.npz"):
            (root / npz).unlink()
        assert with_sidecars == run_all()


# ---------------------------------------------------------------------------
# mutations of ingest's panel: exit 0 or 2, the same by blocks of rows
# ---------------------------------------------------------------------------

PANEL_MUTATIONS = ("truncate", "bit-flip", "duplicate-line", "drop-line", "swap-lines", "bom",
                   "crlf", "byte-ff", "empty", "drop-column", "nan", "inf", "1e400",
                   "empty-cell")


def mutated(data: bytes, kind: str, rng) -> bytes:
    """data, a table's bytes ending in a newline, with one mutation of `kind`."""
    lines = data.split(b"\n")[:-1]
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "bit-flip":
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1 :]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "byte-ff":
        i = rng.randrange(len(data) + 1)
        return data[:i] + b"\xff" + data[i:]
    if kind == "empty":
        return b""
    if kind == "drop-column":
        j = rng.randrange(len(lines[0].split(b",")))
        lines = [b",".join(c for k, c in enumerate(line.split(b",")) if k != j) for line in lines]
    elif kind in ("duplicate-line", "drop-line", "swap-lines"):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == "duplicate-line":
            lines.insert(j, lines[i])
        elif kind == "drop-line":
            del lines[i]
        else:
            lines[i], lines[j] = lines[j], lines[i]
    else:  # a number cell becomes nan, inf, 1e400 or empty
        i = rng.randrange(1, len(lines))
        cells = lines[i].split(b",")
        cells[rng.randrange(2, len(cells))] = {"empty-cell": b""}.get(kind, kind.encode())
        lines[i] = b",".join(cells)
    return b"\n".join(lines) + b"\n"


def _run_main(argv, out: Path):
    """(exit code, stdout, stderr, {name: bytes} of the files out holds but the
    manifest) of main(argv) into a fresh output directory out; the exit 0 or 2 of a
    run is checked against its stderr and manifest."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv] + ["--output-dir", str(out)])
    err = stderr.getvalue()
    assert code in (0, 2), err
    if code == 2:  # one `error:` line, and no manifest
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not (out / "manifest.json").exists()
    else:
        assert (out / "manifest.json").exists()
    files = {f.name: f.read_bytes() for f in sorted(out.glob("*")) if f.name != "manifest.json"}
    return code, stdout.getvalue(), err, files


def test_ingest_of_a_mutated_panel_exits_0_or_2(tmp_path):
    """150 mutations of a panel.csv of 20 rows, at a pinned seed: ingest exits 0 or 2,
    an exit 2 (an unbalanced panel's too) gives one `error: ` line and no manifest, and
    parsing by blocks of 3 rows gives the same exit, output and bundle as parsing it
    whole."""
    from rkpf.simulate import DgpConfig, generate_panel

    source = tmp_path / "source.csv"
    write_panel_csv(generate_panel(DgpConfig(n_regions=5, n_years=4, seed=2)).dataset, source)
    data, rng = source.read_bytes(), random.Random(7)
    path, out = tmp_path / "panel.csv", tmp_path / "bundle"

    for trial in range(150):
        kind = PANEL_MUTATIONS[trial % len(PANEL_MUTATIONS)]
        path.write_bytes(mutated(data, kind, rng))
        ended = _run_main(["ingest", "--panel", path], out)
        with panel_blocks(3):
            assert _run_main(["ingest", "--panel", path], out) == ended, kind


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """simulate's bundle of 6 regions x 4 years: dataset, profiles and weights."""
    config = tmp_path_factory.mktemp("config") / "c.yaml"
    config.write_text("panel: {n_regions: 6, n_years: 4}\n", encoding="utf-8")
    out = tmp_path_factory.mktemp("small")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", "--config", str(config), "--seed", "1", "--output-dir", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("name, argv", [
    ("profiles.csv", ["weights", "--profiles", "IN/profiles.csv"]),
    # beside weights.npz, stale, so fit reads the mutated text
    ("weights.csv", ["fit", "--bundle", "SIM", "--weights", "IN/weights.csv",
                     "--spec", "fe.tw.q.sl"]),
    # beside dataset.npz, stale, so stats reads the mutated text
    ("dataset.csv", ["stats", "--bundle", "IN"]),
], ids=["weights-profiles", "fit-weights", "stats-dataset"])
def test_a_mutated_input_exits_0_or_2(small_bundle, tmp_path, name, argv):
    """100 mutations of one input of a 6 x 4 bundle, at a pinned seed: the step exits
    0 with a manifest, or 2 with one `error: ` line and no manifest."""
    inputs = tmp_path / "in"
    shutil.copytree(small_bundle, inputs)
    argv = [a.replace("IN", str(inputs)).replace("SIM", str(small_bundle)) for a in argv]
    data, rng = (small_bundle / name).read_bytes(), random.Random(11)
    for trial in range(100):
        kind = PANEL_MUTATIONS[trial % len(PANEL_MUTATIONS)]
        (inputs / name).write_bytes(mutated(data, kind, rng))
        _run_main(argv, tmp_path / "out")
