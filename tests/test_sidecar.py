"""Binary sidecars: the `.npz` beside a CSV the CLI wrote gives exactly what parsing the
text gives for every name the table name rule admits, and a sidecar that is missing,
stale or broken changes nothing. A name the rule refuses never reaches a writer: the
types refuse it when they are built, and write_table a header that repeats one."""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkpf import indicators, panel, weights
from rkpf.cli import main
from rkpf.errors import DuplicateRow, EngineError, InvalidProfiles, InvalidWeights, MissingColumn
from rkpf.indicators import Publications
from rkpf.manifest import file_digest, sidecar_path, write_sidecar
from rkpf.panel import PanelDataset, load_panel_csv, write_panel_csv, write_panel_sidecar
from rkpf.weights import SpatialWeights, ThematicProfileMatrix, load_weights_csv
from rkpf.weights import write_weight_rows

# every name the rule admits: with a comma, a quote, CR/LF or inner spaces, none around
NAMES = st.text(st.sampled_from(["a", "b", "é", ",", '"', "\r", "\n", " ", "\t"]),
                max_size=5).map(str.strip)
AWKWARD = (5e-324, 0.1 + 0.2, -0.0, 0.0, 1.0, 1e308, -2.5e-300)
VALUES = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False))


def _fingerprint(loaded):
    """A loaded panel or weights as something == compares bit for bit; the W of
    weights streamed from a sidecar is read whole from that sidecar."""
    if isinstance(loaded, weights.StreamedWeights):
        with np.load(sidecar_path(loaded.path)) as npz:
            loaded = SpatialWeights(loaded.regions, npz["w"])
    if isinstance(loaded, SpatialWeights):
        return loaded.regions, loaded.w.shape, loaded.w.tobytes()
    return (loaded.region_ids, loaded.years, list(loaded.variables),
            [v.tobytes() for v in loaded.variables.values()])


def _outcome(load, path):
    """The fingerprint of load(path), or the type and message of its error."""
    try:
        return _fingerprint(load(path))
    except EngineError as exc:
        return type(exc).__name__, str(exc)


def _both_paths(load, path):
    """(outcome with the sidecar, outcome of the text alone); the sidecar must exist."""
    assert sidecar_path(path).exists()
    with_sidecar = _outcome(load, path)
    sidecar_path(path).unlink(missing_ok=True)
    return with_sidecar, _outcome(load, path)


@st.composite
def panels(draw):
    regions = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    variables = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    shape = (len(variables), len(regions), draw(st.integers(1, 3)))
    # a missing cell; either NaN sign parses back as the one NaN an empty cell gives
    cells = draw(st.lists(st.one_of(VALUES, st.sampled_from([np.nan, -np.nan])),
                          min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return regions, variables, np.array(cells, dtype=float).reshape(shape)


def test_panel_sidecar_holds_its_values_about_twice(tmp_path):
    """write_panel_sidecar fills one array in region order and the writer copies it
    once more: tracemalloc's peak stays under 2.5 times the values, where a stack, a
    reorder and a NaN-canonical copy before the writer's made it 4."""
    rng = np.random.default_rng(0)
    n, t = 1000, 20
    regions = tuple(f"R{i:04d}" for i in rng.permutation(n))  # out of order: a reorder
    values = rng.standard_normal((5, n, t))
    values[0, 3, 4] = -np.nan
    d = PanelDataset(regions, tuple(range(2000, 2000 + t)), dict(zip("abcde", values)))
    path = tmp_path / "dataset.csv"
    tracemalloc.start()
    try:
        write_panel_sidecar(d, path, "0" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * values.nbytes
    with np.load(sidecar_path(path)) as npz:
        order = np.argsort(regions)
        np.testing.assert_array_equal(npz["values"], values[:, order])
        assert not np.signbit(npz["values"][np.isnan(npz["values"])]).any()


@settings(max_examples=60, deadline=None)
@given(panels())
@example((["b,", '"q"', "cr\rlf", "z"], ["x,y", '"v"', "pad"],
          np.resize(np.array(AWKWARD + (np.nan, -np.nan)), (3, 4, 2))))
def test_panel_sidecar_matches_text(tmp_path_factory, panel_values):
    regions, variables, values = panel_values
    d = PanelDataset(tuple(regions), tuple(range(2009, 2009 + values.shape[2])),
                     dict(zip(variables, values)))
    path = tmp_path_factory.mktemp("panel") / "dataset.csv"
    write_panel_sidecar(d, path, write_panel_csv(d, path))
    with_sidecar, text = _both_paths(load_panel_csv, path)
    assert with_sidecar == text


@st.composite
def weight_matrices(draw):
    """(regions, w): rows of nonnegative draws, scaled to sum to 1 where they can be."""
    regions = draw(st.lists(NAMES, min_size=2, max_size=4, unique=True))
    n = len(regions)
    w = np.array(draw(st.lists(VALUES.map(abs), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(w, draw(st.sampled_from([0.0, -0.0])))
    with np.errstate(over="ignore", invalid="ignore"):
        sums = w.sum(axis=1, keepdims=True)
        w = np.where((sums > 0) & np.isfinite(sums), w / sums, 0.0 * w)
    return regions, w


@settings(max_examples=60, deadline=None)
@given(weight_matrices())
@example((["a,", '"q"', "b\r\nc", "a b"],
          np.array([[-0.0, 5e-324, 1.0, 0.0], [0.1 + 0.2, 0.0, 0.7, -0.0],
                    [0.0, -0.0, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0]])))
def test_weights_sidecar_matches_text(tmp_path_factory, matrix):
    regions, w = matrix
    sw = SpatialWeights(tuple(regions), w)
    path = tmp_path_factory.mktemp("w") / "weights.csv"
    write_weight_rows(sw.regions, [sw.w], path, path.with_name("w.json"), sidecar=True)
    with_sidecar, text = _both_paths(load_weights_csv, path)
    assert with_sidecar == text


@pytest.mark.parametrize("regions", [(" a", "b"), ("a\x00", "b"), ("region", "b")])
def test_names_the_text_would_not_give_back_leave_no_sidecar(tmp_path, regions):
    """Text strips names and a unicode array drops a NUL; a header with a repeated
    name does not load at all. SpatialWeights refuses the first two and
    write_weight_rows the third, so neither a table nor a sidecar is written."""
    path = tmp_path / "weights.csv"
    error = MissingColumn if "region" in regions else InvalidWeights
    with pytest.raises(error):
        sw = SpatialWeights(regions, np.array([[0.0, 1.0], [1.0, 0.0]]))
        write_weight_rows(sw.regions, [sw.w], path, tmp_path / "w.json", sidecar=True)
    assert not sidecar_path(path).exists()
    assert list(tmp_path.iterdir()) == []


# names the rule refuses: surrounding whitespace, or a NUL anywhere
REFUSED = st.tuples(NAMES, st.sampled_from([" ", "\t", "\r\n", "\x00"]), NAMES).map(
    lambda parts: "".join(parts)).filter(lambda n: n != n.strip() or "\x00" in n)
# per type, the error of its constructor and a builder from one list of names
CONSTRUCTORS = {
    "panel regions": (DuplicateRow, lambda names: PanelDataset(
        tuple(names), (2009,), {"v": np.zeros((len(names), 1))})),
    "panel variables": (DuplicateRow, lambda names: PanelDataset(
        ("r",), (2009,), {name: [[0.0]] for name in names})),
    "weights regions": (InvalidWeights, lambda names: SpatialWeights(
        tuple(names), np.zeros((len(names), len(names))))),
    "profile regions": (InvalidProfiles, lambda names: ThematicProfileMatrix(
        tuple(names), ("s",), np.ones((len(names), 1)))),
    "profile subject areas": (InvalidProfiles, lambda names: ThematicProfileMatrix(
        ("r",), tuple(names), np.full((1, len(names)), 1 / len(names)))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CONSTRUCTORS)),
       st.lists(NAMES, min_size=1, max_size=4, unique=True),
       st.one_of(REFUSED, st.none()), st.integers(0, 4))
@example("weights regions", ["a", "b"], "b\x00", 2)  # a sidecar would drop its NUL
@example("profile regions", ["a", "b"], " a", 0)  # the reader would strip it
@example("panel regions", ["a", "b"], None, 1)  # a repeat
def test_every_name_the_rule_refuses_raises_at_construction(kind, names, bad, at):
    """`bad` (None: a repeat of an admitted name) goes in at position `at`."""
    error, build = CONSTRUCTORS[kind]
    build(names)  # the admitted names alone construct
    if bad is None:
        assume(kind != "panel variables")  # a dict holds no repeated name
        bad = names[at % len(names)]
    at = min(at, len(names))
    with pytest.raises(error):
        build([*names[:at], bad, *names[at:]])


@pytest.mark.parametrize("write", ["weights", "panel"])
def test_a_header_that_repeats_a_name_is_refused_before_any_file(tmp_path, write):
    """A region named "region" or a variable named "year" would repeat a header name,
    which the loader rejects: neither the CSV nor the weights JSON is written."""
    if write == "weights":
        sw = SpatialWeights(("region", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "weights.csv"
        with pytest.raises(MissingColumn, match="header name 'region' appears more than once"):
            write_weight_rows(sw.regions, [sw.w], path, tmp_path / "weights.json")
    else:
        d = PanelDataset(("a", "b"), (2009,), {"year": [[1.0], [2.0]]})
        path = tmp_path / "dataset.csv"
        with pytest.raises(MissingColumn, match="header name 'year' appears more than once"):
            write_panel_csv(d, path)
    assert list(tmp_path.iterdir()) == []


def _simulated(root: Path) -> Path:
    sim = root / "sim"
    root.mkdir(parents=True, exist_ok=True)
    (root / "c.yaml").write_text("panel: {n_regions: 8, n_years: 4}\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(root / "c.yaml"), "--seed", "5",
                     "--output-dir", str(sim)]) == 0
    return sim


def test_a_valid_sidecar_is_loaded_without_parsing_the_text(tmp_path, monkeypatch):
    sim = _simulated(tmp_path)
    want = [_fingerprint(load_panel_csv(sim / "dataset.csv")),
            _fingerprint(load_weights_csv(sim / "weights.csv"))]

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed the text")

    monkeypatch.setattr(panel, "read_matrix", no_parse)
    monkeypatch.setattr(weights, "read_matrix", no_parse)
    digests = {}
    got = [_fingerprint(load_panel_csv(sim / "dataset.csv", digests)),
           _fingerprint(load_weights_csv(sim / "weights.csv", digests))]
    assert got == want
    assert digests == {str(sim / name): file_digest(sim / name)
                       for name in ("dataset.csv", "dataset.npz", "weights.csv", "weights.npz")}


def test_simulate_writes_the_same_sidecar_bytes_twice(tmp_path):
    first, second = _simulated(tmp_path / "1"), _simulated(tmp_path / "2")
    for name in ("dataset.npz", "weights.npz"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_an_edited_csv_wins_over_its_sidecar(tmp_path):
    sim = _simulated(tmp_path)
    for name, load in (("dataset.csv", load_panel_csv), ("weights.csv", load_weights_csv)):
        before = _fingerprint(load(sim / name))
        # swap the two largest cells of the first row: a weights row keeps its sum
        lines = (sim / name).read_text(encoding="utf-8").split("\n")
        cells = lines[1].split(",")
        first = 2 if name == "dataset.csv" else 1  # after the label cells
        i, j = sorted(range(first, len(cells)), key=lambda k: float(cells[k]))[-2:]
        cells[i], cells[j] = cells[j], cells[i]
        lines[1] = ",".join(cells)
        (sim / name).write_text("\n".join(lines), encoding="utf-8")
        edited = _outcome(load, sim / name)
        assert sidecar_path(sim / name).exists() and edited != before
        sidecar_path(sim / name).unlink()
        assert _outcome(load, sim / name) == edited


def _savez(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _break(kind: str, npz: Path, layout: dict, sources: dict) -> None:
    """Replace the sidecar npz, keyed by `sources` (key -> sha256), with one that is
    `kind` of wrong."""
    good = npz.read_bytes()
    right = {key: np.zeros((1,) * ndim, dtype="U2" if k == "U" else k + "8")
             for key, (k, ndim) in layout.items()}
    recorded = {key: np.array(digest) for key, digest in sources.items()}
    if kind == "truncated":
        npz.write_bytes(good[: len(good) // 2])
    elif kind == "zero-byte":
        npz.write_bytes(b"")
    elif kind == "npy-not-npz":
        np.save(npz.with_suffix(".npy"), np.zeros(3))
        npz.with_suffix(".npy").rename(npz)
    elif kind == "foreign-key":
        _savez(npz, **recorded, other=np.zeros(3))
    elif kind == "object-dtype":
        _savez(npz, **recorded, **{key: np.array([None], dtype=object) for key in layout})
    elif kind == "wrongly-typed":
        _savez(npz, **recorded,
               **{key: np.zeros(2) if k == "U" else np.array(["x"]) for key, (k, _) in
                  layout.items()})
    elif kind == "stale":  # well formed, but of other sources
        _savez(npz, **{key: np.array("0" * 64) for key in sources}, **right)
    elif kind == "directory":
        npz.unlink()
        npz.mkdir()
    elif kind == "deleted":
        npz.unlink()


BROKEN = ("truncated", "zero-byte", "npy-not-npz", "foreign-key", "object-dtype",
          "wrongly-typed", "stale", "directory", "deleted")
STEPS = {
    "suite": ["suite", "--specs", "fe.tw.q,fe.tw.q.sl", "--weights", "sim/weights.csv"],
    "fit": ["fit", "--spec", "fe.tw.q.sl", "--weights", "sim/weights.csv"],
    "stats": ["stats"],
    "weights": ["weights", "--profiles", "sim/profiles.csv"],
}


def _run_steps(root: Path, tag: str) -> dict:
    """Per step on root's bundle: (exit code, bytes of each file written but the
    manifest, the manifest's inputs)."""
    found = {}
    for name, argv in STEPS.items():
        out = root / f"{tag}-{name}"
        argv = [str(root / a) if a.startswith("sim/") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--bundle", str(root / "sim"), "--output-dir", str(out)])
        results = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        found[name] = (code, results, json.loads((out / "manifest.json").read_text())["inputs"])
    return found


@pytest.mark.parametrize("kind", BROKEN)
def test_a_broken_sidecar_changes_no_result(tmp_path, kind):
    sim = _simulated(tmp_path)
    good = _run_steps(tmp_path, "good")
    for name, layout in (("dataset.csv", panel.SIDECAR_LAYOUT),
                         ("weights.csv", weights.SIDECAR_LAYOUT)):
        _break(kind, sidecar_path(sim / name), layout, {"sha256": file_digest(sim / name)})
    broken = _run_steps(tmp_path, kind)
    for step, (code, results, inputs) in broken.items():
        assert code == 0 and results == good[step][1], step
        # a sidecar that was opened is listed with its digest, used or not
        want = {p: d for p, d in good[step][2].items() if not p.endswith(".npz")}
        want.update({p: file_digest(p) for p in good[step][2]
                     if p.endswith(".npz") and Path(p).is_file()})
        assert inputs == want, step


# ---------------------------------------------------------------------------
# the publications sidecar: incidence counts that ingest --pubs leaves in the bundle
# ---------------------------------------------------------------------------

CODES = ("SA01", "SA02", "SA03", "SA04")


def _pubs_inputs(root: Path) -> Path:
    """panel.csv (4 regions x 2 years), pubs.jsonl with records in every cell, and
    vocab.txt, in root."""
    root.mkdir(parents=True, exist_ok=True)
    regions, years = ("R1", "R2", "R3", "R4"), (2019, 2020)
    rows = [f"{r},{y},{i + y % 7}.5" for i, r in enumerate(regions) for y in years]
    (root / "panel.csv").write_text("region,year,v\n" + "\n".join(rows) + "\n", encoding="utf-8")
    rng = np.random.default_rng(11)
    records = []
    for i, region in enumerate(regions):
        for year in years:
            for _ in range(3):
                others = rng.choice(regions, size=rng.integers(0, 2), replace=False)
                areas = rng.choice(CODES[: 2 + i % 3], size=rng.integers(1, 3), replace=False)
                records.append({
                    "id": f"p{len(records)}", "year": year,
                    "regions": [region, *others.tolist()], "subject_areas": areas.tolist(),
                    "citations": int(rng.integers(0, 30)),
                    "expected_citations": float(rng.uniform(1, 9)),
                    "journal_quartile": str(rng.choice(["Q1", "Q2", "NONE"])),
                })
    (root / "pubs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records),
                                     encoding="utf-8")
    (root / "vocab.txt").write_text("\n".join(CODES) + "\n", encoding="utf-8")
    return root


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _ingest(root: Path, out: str, vocab: bool = True) -> Path:
    vocab_flag = ["--vocab", root / "vocab.txt"] if vocab else []
    code, err = _main(["ingest", "--panel", root / "panel.csv", "--pubs", root / "pubs.jsonl",
                       *vocab_flag, "--output-dir", root / out])
    assert code == 0, err
    return root / out


def _weights(root: Path, bundle: Path, out: str, vocab: bool = True) -> tuple:
    """weights --pubs on root's inputs and bundle: (exit code, stderr, bytes of each file
    written but the manifest, the manifest's inputs or None)."""
    vocab_flag = ["--vocab", root / "vocab.txt"] if vocab else []
    code, err = _main(["weights", "--pubs", root / "pubs.jsonl", *vocab_flag,
                       "--bundle", bundle, "--output-dir", root / out])
    results = {p.name: p.read_bytes() for p in (root / out).iterdir()
               if p.name != "manifest.json"}
    manifest = root / out / "manifest.json"
    inputs = json.loads(manifest.read_text())["inputs"] if manifest.exists() else None
    return code, err, results, inputs


def _decoded(root: Path, bundle: Path, out: str, vocab: bool = True) -> tuple:
    """_weights on a copy of the bundle without its publications sidecar: the file is
    decoded, as it was before the sidecar existed."""
    plain = root / f"{out}-bundle"
    shutil.copytree(bundle, plain)
    (plain / indicators.SIDECAR_NAME).unlink(missing_ok=True)
    return _weights(root, plain, out, vocab)


def _counting_decodes(monkeypatch) -> list:
    """Count each decode of a JSON-lines publications file."""
    calls = []
    real = indicators._json_chunks

    def counted(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(indicators, "_json_chunks", counted)
    return calls


def test_weights_builds_its_profiles_from_the_counts_ingest_left(tmp_path, monkeypatch):
    root = _pubs_inputs(tmp_path)
    bundle = _ingest(root, "bundle")
    assert (bundle / indicators.SIDECAR_NAME).is_file()
    want = _decoded(root, bundle, "decoded")

    def no_decode(path):
        raise AssertionError("decoded the publications file")

    monkeypatch.setattr(indicators, "_json_chunks", no_decode)
    code, err, results, inputs = _weights(root, bundle, "counts")
    assert (code, err, results) == want[:3]
    sidecar = bundle / indicators.SIDECAR_NAME
    assert inputs[str(sidecar)] == file_digest(sidecar)
    assert inputs[str(root / "pubs.jsonl")] == file_digest(root / "pubs.jsonl")
    assert set(inputs) - {str(sidecar)} == {p.replace("decoded-bundle", "bundle")
                                             for p in want[3]}


@pytest.mark.parametrize("change", ["edited pubs", "edited vocab", "vocab at ingest only",
                                    "vocab at weights only"])
def test_an_edited_source_or_another_vocabulary_decodes_the_file(tmp_path, monkeypatch, change):
    root = _pubs_inputs(tmp_path)
    bundle = _ingest(root, "bundle", vocab=change != "vocab at weights only")
    before = _weights(root, bundle, "before")
    if change == "edited pubs":  # move the first record's areas onto a code it lacks
        lines = (root / "pubs.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["subject_areas"] = ["SA04"]
        lines[0] = json.dumps(record)
        (root / "pubs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif change == "edited vocab":
        (root / "vocab.txt").write_text("\n".join(CODES[::-1]) + "\n", encoding="utf-8")
    vocab = change != "vocab at ingest only"
    want = _decoded(root, bundle, "decoded", vocab)
    decodes = _counting_decodes(monkeypatch)
    got = _weights(root, bundle, "after", vocab)
    assert decodes == [str(root / "pubs.jsonl")]
    assert got[0] == 0 and got[1:3] == want[1:3]
    if change in ("edited pubs", "edited vocab"):  # the counts left would be wrong now
        assert got[2] != before[2]


@pytest.mark.parametrize("kind", BROKEN)
def test_a_broken_publications_sidecar_changes_no_result(tmp_path, kind):
    root = _pubs_inputs(tmp_path)
    bundle = _ingest(root, "bundle")
    good = _weights(root, bundle, "good")
    sidecar = bundle / indicators.SIDECAR_NAME
    sources = indicators.sidecar_sources(root / "pubs.jsonl", root / "vocab.txt")
    _break(kind, sidecar, indicators.SIDECAR_LAYOUT, sources)
    code, err, results, inputs = _weights(root, bundle, kind)
    assert (code, err, results) == good[:3]
    # the sidecar is listed with its digest if it was opened, used or not
    want = {p: d for p, d in good[3].items() if p != str(sidecar)}
    if sidecar.is_file():
        want[str(sidecar)] = file_digest(sidecar)
    assert inputs == want


def test_error_lines_do_not_depend_on_the_sidecar(tmp_path):
    root = _pubs_inputs(tmp_path)
    bundle = _ingest(root, "bundle")
    # a bundle region without records: the counts of these very files are used
    text = (bundle / "dataset.csv").read_text(encoding="utf-8")
    row = text.splitlines()[1].split(",")
    extra = "\n".join(",".join(["R9", year, *row[2:]]) for year in ("2019", "2020"))
    (bundle / "dataset.csv").write_text(text + extra + "\n", encoding="utf-8")
    empty = _weights(root, bundle, "empty")
    assert empty[0] == 2 and empty[1] == (
        f"error: {root / 'pubs.jsonl'}: region 'R9' has no publication records\n")
    assert _decoded(root, bundle, "empty-decoded")[:2] == empty[:2]
    # a vocabulary without a code the records list
    (bundle / "dataset.csv").write_text(text, encoding="utf-8")
    (root / "vocab.txt").write_text("\n".join(CODES[1:]) + "\n", encoding="utf-8")
    unknown = _weights(root, bundle, "unknown")
    assert unknown[0] == 2 and "subject areas ['SA01'] not in the vocabulary" in unknown[1]
    assert _decoded(root, bundle, "unknown-decoded")[:2] == unknown[:2]


def test_ingest_writes_the_same_publications_sidecar_twice(tmp_path):
    root = _pubs_inputs(tmp_path)
    first, second = _ingest(root, "first"), _ingest(root, "second")
    name = indicators.SIDECAR_NAME
    assert (first / name).read_bytes() == (second / name).read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(NAMES, min_size=1, max_size=3, unique=True),
                          st.lists(NAMES, min_size=1, max_size=3, unique=True)),
                min_size=1, max_size=20))
@example([(["a", "b,"], ["x"]), (['"q"'], ["x", "cr\rlf"])])
def test_the_publications_sidecar_gives_back_the_counts(tmp_path_factory, listed):
    """Regions and subject areas that the table name rule admits come back from the
    sidecar as load_publications(...).incidences counts them."""
    root = tmp_path_factory.mktemp("pubs")
    records = [{"id": f"p{i}", "year": 2019, "regions": regions, "subject_areas": areas,
                "citations": 1, "expected_citations": 1.0, "journal_quartile": "Q1"}
               for i, (regions, areas) in enumerate(listed)]
    (root / "pubs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records),
                                     encoding="utf-8")
    pubs = indicators.load_publications(root / "pubs.jsonl")
    path = root / indicators.SIDECAR_NAME
    sources = {"pubs_sha256": "a" * 64, "vocab_sha256": "none"}
    indicators.write_incidence_sidecar(pubs, path, sources)
    assert indicators.read_incidence_sidecar(path, sources) == pubs.incidences
    assert indicators.read_incidence_sidecar(path, {**sources, "vocab_sha256": "b"}) is None


def _members_are_write_array_bytes(npz: Path) -> dict:
    """The arrays of npz by member name, after checking that each member's bytes are
    what np.lib.format.write_array writes for the array it holds."""
    arrays = {}
    with zipfile.ZipFile(npz) as zf:
        for name in zf.namelist():
            member = zf.read(name)
            array = np.lib.format.read_array(io.BytesIO(member), allow_pickle=False)
            want = io.BytesIO()
            np.lib.format.write_array(want, array, allow_pickle=False)
            assert member == want.getvalue(), (npz.name, name)
            arrays[name] = array
    return arrays


def test_sidecar_members_are_the_bytes_of_write_array(tmp_path):
    """write_sidecar writes each member from the array's memory, with the header and
    data bytes np.lib.format.write_array gives: for the dataset, weights and
    incidence layouts, and for the 0-d digests, which stay 0-d."""
    sim = _simulated(tmp_path / "simulated")
    bundle = _ingest(_pubs_inputs(tmp_path / "pubs"), "bundle")
    for npz in (sim / "dataset.npz", sim / "weights.npz", bundle / indicators.SIDECAR_NAME):
        arrays = _members_are_write_array_bytes(npz)
        digests = [a for name, a in arrays.items() if name.endswith("sha256.npy")]
        assert digests and all(a.shape == () and a.dtype.kind == "U" for a in digests)


@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_a_sidecar_member_is_written_in_c_order_from_any_layout(tmp_path, order):
    values = np.arange(24.0).reshape(4, 6)
    values = {"C": values, "F": np.asfortranarray(values), "strided": values[::2, 1::2]}[order]
    path = tmp_path / "x.npz"
    write_sidecar(path, {"sha256": "0" * 64}, {"values": ("f", 2)}, values=values)
    arrays = _members_are_write_array_bytes(path)
    assert arrays["values.npy"].flags.c_contiguous
    np.testing.assert_array_equal(arrays["values.npy"], values)


def test_a_name_a_sidecar_would_not_give_back_leaves_none(tmp_path):
    """A unicode array drops a trailing NUL, so no sidecar is written for such a name.
    load_publications refuses a name that holds a NUL, so the counts are built here."""
    path = tmp_path / indicators.SIDECAR_NAME
    pubs = Publications(records=1, incidences=Counter({("a\x00", "x"): 1, ("a", "x"): 1}))
    indicators.write_incidence_sidecar(pubs, path, {"pubs_sha256": "a" * 64})
    assert not path.exists()


# ---------------------------------------------------------------------------
# W by blocks of rows: weights writes it, and fit and suite read it, never whole
# ---------------------------------------------------------------------------

WIDE = 1500  # regions: W is 18 MB, five blocks of 320 rows


@pytest.fixture(scope="module")
def wide(tmp_path_factory) -> Path:
    """A simulated WIDE x 3 bundle (sim) and the weights that rkpf weights wrote from
    its profiles (w)."""
    root = tmp_path_factory.mktemp("wide")
    (root / "c.yaml").write_text(f"panel: {{n_regions: {WIDE}, n_years: 3}}\n", encoding="utf-8")
    assert _main(["simulate", "--config", root / "c.yaml", "--seed", "3",
                  "--output-dir", root / "sim"])[0] == 0
    assert _main(["weights", "--profiles", root / "sim" / "profiles.csv",
                  "--bundle", root / "sim", "--output-dir", root / "w"])[0] == 0
    return root


def test_weights_writes_the_files_of_the_whole_matrix(wide, tmp_path):
    """The files that rkpf weights streams, block by block, are those written from W
    whole, as the library builds it, and those that rkpf simulate wrote beside the
    profiles: every W is taken by the same blocks of rows."""
    profiles = weights.load_profiles_csv(wide / "sim" / "profiles.csv")
    assert weights.weight_block_rows(WIDE) < WIDE
    whole = weights.build_weights(weights.correlation_matrix(profiles), profiles.regions)
    write_weight_rows(whole.regions, [whole.w], tmp_path / "weights.csv",
                      tmp_path / "weights.json", sidecar=True)
    for name in ("weights.csv", "weights.json", "weights.npz"):
        assert (tmp_path / name).read_bytes() == (wide / "w" / name).read_bytes(), name
        assert (wide / "sim" / name).read_bytes() == (wide / "w" / name).read_bytes(), name


@pytest.mark.parametrize("step", ["weights", "suite"])
def test_no_step_holds_half_of_w(wide, tmp_path, step):
    """tracemalloc's peak of weights, and of a suite with spatial lags, stays under
    half of W's n^2 doubles: each holds one block of W's rows at a time."""
    argv = {
        "weights": ["weights", "--profiles", wide / "sim" / "profiles.csv"],
        "suite": ["suite", "--specs", "fe.tw.q.sl", "--bundle", wide / "sim",
                  "--weights", wide / "w" / "weights.csv"],
    }[step]
    tracemalloc.start()
    try:
        code, err = _main([*argv, "--output-dir", tmp_path / step])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak < 0.5 * WIDE * WIDE * 8


# the CPUs this process may run on; a W of several blocks is formatted by worker
# processes only where there are at least two
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
POOLED = pytest.mark.skipif(len(CPUS) < 2, reason="one CPU: W is formatted in process")
# a child interpreter imports rkpf from this checkout, and its numpy starts no BLAS
# thread, so that it may fork the processes that format W
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(weights.__file__).resolve().parents[1]),
    **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
}


@POOLED
def test_pooled_and_inline_weights_are_the_oracles_bytes(wide, tmp_path):
    """rkpf weights formats a W of several blocks in worker processes where it has
    two CPUs, and in its own where it is pinned to one: both write the CSV that
    ",".join(map(repr, row)) gives and the JSON that json.dumps gives, of the W that
    the library builds at one BLAS thread, as the CLI runs."""
    profiles = wide / "sim" / "profiles.csv"
    argv = [sys.executable, "-m", "rkpf.cli", "weights", "--profiles", str(profiles)]
    pins = {"pooled": None, "inline": lambda: os.sched_setaffinity(0, {CPUS[0]})}
    for name, pin in pins.items():
        subprocess.run([*argv, "--output-dir", str(tmp_path / name)], env=CHILD_ENV,
                       preexec_fn=pin, capture_output=True, check=True, timeout=120)
    build = ("import sys, numpy as np\nfrom rkpf import weights\n"
             "p = weights.load_profiles_csv(sys.argv[1])\n"
             "np.save(sys.argv[2], weights.build_weights(weights.correlation_matrix(p)).w)")
    subprocess.run([sys.executable, "-c", build, str(profiles), str(tmp_path / "w.npy")],
                   env=CHILD_ENV, capture_output=True, check=True, timeout=120)
    w = SpatialWeights(weights.load_profiles_csv(profiles).regions, np.load(tmp_path / "w.npy"))
    regions = list(w.regions)
    lines = [",".join(["region", *regions]) + "\n"]
    lines += [f"{region}," + ",".join(map(repr, row.tolist())) + "\n"
              for region, row in zip(regions, w.w)]
    csv_bytes = "".join(lines).encode()
    del lines
    isolated = sorted(regions[i] for i in w.isolated)
    json_bytes = (json.dumps({"regions": regions, "w": w.w.tolist(), "isolated": isolated},
                             indent=2) + "\n").encode()
    for name in pins:
        assert (tmp_path / name / "weights.csv").read_bytes() == csv_bytes, name
        assert (tmp_path / name / "weights.json").read_bytes() == json_bytes, name
    npz = [(tmp_path / name / "weights.npz").read_bytes() for name in pins]
    assert npz[0] == npz[1]


# rkpf weights at WIDE regions in a child whose rows worker processes format; prints
# its exit code and the tracemalloc peak of the writing process
POOLED_PEAK_CHILD = """
import contextlib, io, sys, tracemalloc
from rkpf import weights
from rkpf.cli import main

assert weights._format_workers(int(sys.argv[1])) > 1
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["weights", "--profiles", sys.argv[2], "--output-dir", sys.argv[3]])
print(code, tracemalloc.get_traced_memory()[1])
"""


@POOLED
def test_a_pooled_weights_step_holds_under_half_of_w(wide, tmp_path):
    """As test_no_step_holds_half_of_w[weights], where worker processes format W's
    rows: the chunks in flight, and their texts, are bounded whatever the number of
    CPUs, so the writer's tracemalloc peak stays under half of W's n^2 doubles."""
    done = subprocess.run(
        [sys.executable, "-c", POOLED_PEAK_CHILD, str(WIDE), str(wide / "sim" / "profiles.csv"),
         str(tmp_path / "w")], env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, peak = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert peak < 0.5 * WIDE * WIDE * 8


# write_weight_rows of a ring W of two blocks in a child, with a fault; prints what
# it raised, the processes left and whether a sidecar was left
FAULT_CHILD = """
import json, multiprocessing, os, sys
from pathlib import Path
import numpy as np
from rkpf import weights
from rkpf.manifest import sidecar_path

fault, out = sys.argv[1], Path(sys.argv[2])
n = 1000
step = weights.weight_block_rows(n)
assert step < n and weights._format_workers(n) > 1
w = np.zeros((n, n))
ring = np.arange(n)
w[ring, (ring + 1) % n] = w[ring, (ring - 1) % n] = 0.5
blocks = [w[:step], w[step:]]
parent, format_rows = os.getpid(), weights.format_rows


def in_worker(rows):
    if os.getpid() != parent:
        if fault == "worker dies":
            os._exit(1)
        raise RuntimeError("the formatter failed")
    return format_rows(rows)


if fault == "second block":
    blocks[1] = -blocks[1]
elif fault != "none":
    weights.format_rows = in_worker
raised = None
try:
    weights.write_weight_rows([f"r{i}" for i in range(n)], blocks, out / "weights.csv",
                              out / "weights.json", sidecar=True)
except Exception as exc:
    raised = f"{type(exc).__name__}: {exc}"
print(json.dumps([raised, len(multiprocessing.active_children()),
                  sidecar_path(out / "weights.csv").exists()]))
"""


@POOLED
@pytest.mark.parametrize("fault, raised", [
    ("none", None),
    ("second block", "InvalidWeights: row for 'r512' has a negative or non-finite weight"),
    ("worker raises", "RuntimeError: the formatter failed"),
    ("worker dies", "BrokenProcessPool: "),
])
def test_a_pooled_write_leaves_no_process(tmp_path, fault, raised):
    """A write whose rows worker processes format leaves no process behind, and no
    sidecar unless it is done: a bad second block raises InvalidWeights, an error
    in a worker's formatter is raised, and a worker that dies breaks the pool,
    which is raised, not waited on."""
    done = subprocess.run([sys.executable, "-c", FAULT_CHILD, fault, str(tmp_path)],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got, children, sidecar = json.loads(done.stdout)
    assert got is None if raised is None else got.startswith(raised), got
    assert children == 0
    assert sidecar == (fault == "none")


def test_a_fault_of_the_code_is_not_taken_for_a_damaged_sidecar(wide, monkeypatch):
    """Only what a damaged sidecar raises sends the lags to the CSV's text: any other
    error is raised, not hidden by a parse that holds all of W."""
    streamed = load_weights_csv(wide / "w" / "weights.csv")
    assert isinstance(streamed, weights.StreamedWeights)

    def broken(regions, blocks):
        raise TypeError("broken")

    monkeypatch.setattr(weights, "_checked_rows", broken)
    with pytest.raises(TypeError, match="broken"):
        streamed.lags([np.zeros((WIDE, 3))])


@pytest.mark.parametrize("fault", ["second block", "missing rows"])
def test_a_stream_that_fails_leaves_no_sidecar(tmp_path, fault):
    """write_weight_rows checks each block as it comes: a bad block, or too few rows,
    raises after the first block has gone to the files, and no sidecar is left."""
    good = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    blocks = [good, np.array([[0.0, 2.0, 0.0]])] if fault == "second block" else [good]
    path = tmp_path / "weights.csv"
    with pytest.raises(InvalidWeights if fault == "second block" else ValueError):
        weights.write_weight_rows(("a", "b", "c"), blocks, path, tmp_path / "w.json",
                                  sidecar=True)
    assert not sidecar_path(path).exists()


def _flip_a_weight(npz: Path) -> None:
    """Flip the lowest bit of a nonzero weight in the middle of the sidecar's W: the
    weights still pass every check, and only the member's CRC tells."""
    raw = bytearray(npz.read_bytes())
    with zipfile.ZipFile(npz) as zf:
        at = zf.getinfo("w.npy").header_offset
    name_length, extra_length = np.frombuffer(raw[at + 26 : at + 30], dtype="<u2")
    npy = at + 30 + int(name_length) + int(extra_length)
    data = npy + 10 + int(np.frombuffer(raw[npy + 8 : npy + 10], dtype="<u2")[0])
    w = np.frombuffer(raw[data : data + 8 * WIDE * WIDE], dtype="<f8")
    cell = WIDE * WIDE // 2 + int(np.argmax(w[WIDE * WIDE // 2 :] > 0))
    raw[data + 8 * cell] ^= 1
    npz.write_bytes(bytes(raw))


def test_a_weight_only_the_crc_catches_changes_no_result(wide, tmp_path):
    argv = ["suite", "--specs", "fe.tw.q.sl", "--dual-errors", "--bundle", wide / "sim"]
    assert _main([*argv, "--weights", wide / "w" / "weights.csv",
                  "--output-dir", tmp_path / "intact"])[0] == 0
    flipped = tmp_path / "w"
    shutil.copytree(wide / "w", flipped)
    _flip_a_weight(flipped / "weights.npz")
    # the sidecar's digest and layout hold, so its rows are read until the CRC fails
    assert isinstance(load_weights_csv(flipped / "weights.csv"), weights.StreamedWeights)
    assert _main([*argv, "--weights", flipped / "weights.csv",
                  "--output-dir", tmp_path / "flipped"])[0] == 0
    for name in ("suite.json", "suite.txt"):
        assert (tmp_path / "flipped" / name).read_bytes() == (
            tmp_path / "intact" / name).read_bytes()
    inputs = json.loads((tmp_path / "flipped" / "manifest.json").read_text())["inputs"]
    npz = str(flipped / "weights.npz")
    assert inputs[npz] == file_digest(npz) != file_digest(wide / "w" / "weights.npz")
