"""Content digests: run manifests, and the binary sidecars keyed by them.

A manifest makes a batch rerun verifiable: it lists the sha256 of every file
its command read. A sidecar is the fast path for a CSV that the engine wrote
and later reads back: `<stem>.npz` beside it holds the arrays the CSV's text
loader returns, plus the sha256 of the CSV. The CSV stays the contract. A
loader uses the sidecar only while that digest matches the CSV's bytes, so
an edited CSV always wins, and deleting a sidecar is always safe.
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


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".npz")


def _fits(array: np.ndarray, kind: str, ndim: int) -> bool:
    return array.dtype.kind == kind and array.ndim == ndim


def write_sidecar(csv_path, digest: str, layout: dict, **arrays) -> None:
    """Write csv_path's sidecar: `arrays`, each of the (dtype kind, ndim) that `layout`
    gives for its key, and `digest`, the sha256 of the CSV as it was written.

    The arrays must be what the CSV's text loader returns; the names in them
    follow tables.check_names. No sidecar is written, and a stale one is removed,
    where an array has another kind or rank: an int beyond int64 is an object,
    and an empty list of names a float.
    """
    path = sidecar_path(csv_path)
    members = {key: np.asarray(value) for key, value in arrays.items()}
    if not all(_fits(array, *layout[key]) for key, array in members.items()):
        path.unlink(missing_ok=True)
        return
    members[DIGEST_KEY] = np.array(digest)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for key, array in members.items():
            with zf.open(zipfile.ZipInfo(f"{key}.npy", _ZIP_TIME), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def read_sidecar(csv_path, layout: dict, digests: dict | None = None):
    """The arrays of csv_path's sidecar by key, if it records the sha256 of the CSV
    and holds exactly the keys of `layout`, each of the (dtype kind, ndim) given
    there; otherwise None, and the caller parses the text.

    `digests`, if given, receives the CSV's sha256 under its path, and the
    sidecar's own under its path when it was opened, whether or not it is used.
    """
    digest = file_digest(csv_path)
    if digests is not None:
        digests[str(csv_path)] = digest
    path = sidecar_path(csv_path)
    try:
        fh = open(path, "rb")
    except OSError:  # no sidecar, or none this process can open
        return None
    # A sidecar is a cache of the text: whatever is wrong with it (truncated,
    # foreign, pickled, wrongly typed), the CSV is read instead.
    try:
        with fh:
            own = _stream_digest(fh)
            if digests is not None:
                digests[str(path)] = own
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                if sorted(npz.files) != sorted([DIGEST_KEY, *layout]):
                    return None
                recorded = npz[DIGEST_KEY]
                if not (_fits(recorded, "U", 0) and recorded.item() == digest):
                    return None
                arrays = {key: npz[key] for key in layout}
    except Exception:
        return None
    if not all(_fits(arrays[key], *layout[key]) for key in layout):
        return None
    return arrays


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
