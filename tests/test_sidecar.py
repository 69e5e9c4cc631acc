"""Binary sidecars: the `.npz` beside a CSV the CLI wrote gives exactly what parsing the
text gives for every name the table name rule admits, and a sidecar that is missing,
stale or broken changes nothing. A name the rule refuses never reaches a writer: the
types refuse it when they are built, and write_table a header that repeats one."""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkpf import panel, weights
from rkpf.cli import main
from rkpf.errors import DuplicateRow, EngineError, InvalidProfiles, InvalidWeights, MissingColumn
from rkpf.manifest import file_digest, sidecar_path
from rkpf.panel import PanelDataset, load_panel_csv, write_panel_csv, write_panel_sidecar
from rkpf.weights import SpatialWeights, ThematicProfileMatrix, load_weights_csv
from rkpf.weights import write_weights_files, write_weights_sidecar

# every name the rule admits: with a comma, a quote, CR/LF or inner spaces, none around
NAMES = st.text(st.sampled_from(["a", "b", "é", ",", '"', "\r", "\n", " ", "\t"]),
                max_size=5).map(str.strip)
AWKWARD = (5e-324, 0.1 + 0.2, -0.0, 0.0, 1.0, 1e308, -2.5e-300)
VALUES = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False))


def _fingerprint(loaded):
    """A loaded panel or weights as something == compares bit for bit."""
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
    write_weights_sidecar(sw, path, write_weights_files(sw, path, path.with_name("w.json")))
    with_sidecar, text = _both_paths(load_weights_csv, path)
    assert with_sidecar == text


@pytest.mark.parametrize("regions", [(" a", "b"), ("a\x00", "b"), ("region", "b")])
def test_names_the_text_would_not_give_back_leave_no_sidecar(tmp_path, regions):
    """Text strips names and a unicode array drops a NUL; a header with a repeated
    name does not load at all. SpatialWeights refuses the first two and
    write_weights_files the third, so neither a table nor a sidecar is written."""
    path = tmp_path / "weights.csv"
    error = MissingColumn if "region" in regions else InvalidWeights
    with pytest.raises(error):
        sw = SpatialWeights(regions, np.array([[0.0, 1.0], [1.0, 0.0]]))
        write_weights_sidecar(sw, path, write_weights_files(sw, path, tmp_path / "w.json"))
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
            write_weights_files(sw, path, tmp_path / "weights.json")
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


def _break(kind: str, npz: Path, layout: dict, digest: str) -> None:
    """Replace the sidecar npz with one that is `kind` of wrong."""
    good = npz.read_bytes()
    right = {key: np.zeros((1,) * ndim, dtype="U2" if k == "U" else k + "8")
             for key, (k, ndim) in layout.items()}
    if kind == "truncated":
        npz.write_bytes(good[: len(good) // 2])
    elif kind == "zero-byte":
        npz.write_bytes(b"")
    elif kind == "npy-not-npz":
        np.save(npz.with_suffix(".npy"), np.zeros(3))
        npz.with_suffix(".npy").rename(npz)
    elif kind == "foreign-key":
        _savez(npz, sha256=np.array(digest), other=np.zeros(3))
    elif kind == "object-dtype":
        _savez(npz, sha256=np.array(digest),
               **{key: np.array([None], dtype=object) for key in layout})
    elif kind == "wrongly-typed":
        _savez(npz, sha256=np.array(digest),
               **{key: np.zeros(2) if k == "U" else np.array(["x"]) for key, (k, _) in
                  layout.items()})
    elif kind == "stale":  # well formed, but of another CSV
        _savez(npz, sha256=np.array("0" * 64), **right)
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
        _break(kind, sidecar_path(sim / name), layout, file_digest(sim / name))
    broken = _run_steps(tmp_path, kind)
    for step, (code, results, inputs) in broken.items():
        assert code == 0 and results == good[step][1], step
        # a sidecar that was opened is listed with its digest, used or not
        want = {p: d for p, d in good[step][2].items() if not p.endswith(".npz")}
        want.update({p: file_digest(p) for p in good[step][2]
                     if p.endswith(".npz") and Path(p).is_file()})
        assert inputs == want, step
