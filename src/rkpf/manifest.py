"""Content digests: run manifests, and the binary sidecars keyed by them.

A manifest makes a batch rerun verifiable: it lists the sha256 of every file
its command read. A sidecar is the fast path for what the engine derived from
its own files: an `.npz` of the arrays a loader returns, plus the sha256 of
each source file, by key. The sources stay the contract. A loader uses a
sidecar only while every recorded digest matches its source's bytes, so an
edited source always wins, and deleting a sidecar is always safe. A CSV that
the engine writes and later reads back has its sidecar beside it, `<stem>.npz`,
keyed by the CSV alone; the incidence counts of a publications file sit in the
bundle apart from their sources, keyed by the publications file and the
vocabulary it was checked against.
"""
from __future__ import annotations

import hashlib
import zipfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

DIGEST_KEY = "sha256"
# a fixed member time, so that the same arrays give the same sidecar bytes
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)


def _stream_digest(fh) -> str:
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(65536), b""):
        h.update(chunk)
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return _stream_digest(fh)


def recorded_digest(path, digests: dict | None) -> str:
    """file_digest(path), also put in `digests` (if given) under the path."""
    digest = file_digest(path)
    if digests is not None:
        digests[str(path)] = digest
    return digest


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".npz")


def _fits(array: np.ndarray, kind: str, ndim: int) -> bool:
    return array.dtype.kind == kind and array.ndim == ndim


def write_sidecar(path, sources: dict, layout: dict, **arrays) -> None:
    """Write the sidecar at `path`: `arrays`, each of the (dtype kind, ndim) that
    `layout` gives for its key, then `sources`, the sha256 of each source file by
    key (a CSV's sidecar has the one key DIGEST_KEY).

    The arrays must be what the sources' loader returns; the names in them
    follow tables.check_names. No sidecar is written, and a stale one is removed,
    where an array has another kind or rank: an int beyond int64 is an object,
    and an empty list of names a float.
    """
    path = Path(path)
    members = {key: np.asarray(value) for key, value in arrays.items()}
    if not all(_fits(array, *layout[key]) for key, array in members.items()):
        path.unlink(missing_ok=True)
        return
    members.update({key: np.array(digest) for key, digest in sources.items()})
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for key, array in members.items():
            with zf.open(zipfile.ZipInfo(f"{key}.npy", _ZIP_TIME), "w", force_zip64=True) as fh:
                _write_npy(fh, array)


def _write_npy(fh, array: np.ndarray) -> None:
    """The bytes np.lib.format.write_array writes for `array` in C order, from the
    array's own memory: into a zip member, write_array stages the data in 16 MiB
    copies. np.require keeps a 0-d array 0-d, where np.ascontiguousarray would not."""
    array = np.require(array, requirements="C")
    np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(array))
    fh.write(memoryview(array))


def read_sidecar(path, sources: dict, layout: dict, digests: dict | None = None):
    """The arrays of the sidecar at `path` by key, if it records exactly `sources`
    (key -> sha256 of the source file as it is now) and holds the keys of `layout`,
    each of the (dtype kind, ndim) given there; otherwise None, and the caller
    reads the sources.

    `digests`, if given, receives the sidecar's own sha256 under its path when it
    was opened, whether or not it is used.
    """
    try:
        fh = open(path, "rb")
    except OSError:  # no sidecar, or none this process can open
        return None
    # A sidecar is a cache of its sources: whatever is wrong with it (truncated,
    # foreign, pickled, wrongly typed), the sources are read instead.
    try:
        with fh:
            own = _stream_digest(fh)
            if digests is not None:
                digests[str(path)] = own
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                if sorted(npz.files) != sorted([*sources, *layout]):
                    return None
                for key, digest in sources.items():
                    recorded = npz[key]
                    if not (_fits(recorded, "U", 0) and recorded.item() == digest):
                        return None
                arrays = {key: npz[key] for key in layout}
    except Exception:
        return None
    if not all(_fits(arrays[key], *layout[key]) for key in layout):
        return None
    return arrays


def write_csv_sidecar(csv_path, digest: str, layout: dict, **arrays) -> None:
    """write_sidecar for csv_path's sidecar beside it, keyed by `digest`, the sha256
    of the CSV as it was written."""
    write_sidecar(sidecar_path(csv_path), {DIGEST_KEY: digest}, layout, **arrays)


def read_csv_sidecar(csv_path, layout: dict, digests: dict | None = None):
    """read_sidecar of csv_path's sidecar beside it, keyed by the CSV's sha256, which
    `digests` (if given) receives under the CSV's path."""
    sources = {DIGEST_KEY: recorded_digest(csv_path, digests)}
    return read_sidecar(sidecar_path(csv_path), sources, layout, digests)


def build_manifest(command: str, input_paths: dict, config_text: str = "") -> dict:
    """The manifest of one run: its command, input and config digests.

    `input_paths` maps each path the run read to its sha256, or to None where
    no loader computed it, and the file is hashed here.
    """
    from . import __version__

    return {
        "command": command,
        "inputs": {
            str(p): digest or file_digest(p) for p, digest in input_paths.items()
        },
        "config_digest": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "engine_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
