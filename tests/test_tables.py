"""Table files: round trips of awkward names, the C and per-row readers against each
other, the table writers against the csv and json modules, and a fuzz of every file
loader."""
import contextlib
import csv
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rkpf.tables import parse_floats, read_table, write_table
from rkpf.weights import (
    SpatialWeights,
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
    np.testing.assert_array_equal(loaded.w, w.w)


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
    """What a loader gives: its error, or its labels and the bytes of its arrays."""
    try:
        result = load(path)
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
