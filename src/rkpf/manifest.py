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

Every sidecar is written by one class, Sidecar: its arrays, then a member not
to be held whole (the weights matrix, a panel's values), if any, by rows as they
are made, then last the sources' digests. Every sidecar is opened by one
function, open_sidecar, which checks its members and the digests it records:
read_sidecar then reads its arrays whole, and member_rows the large member by
rows; zipfile checks a member's CRC as its last byte is read. Whatever is wrong
with a sidecar raises one of SIDECAR_FAULTS, on which its loader reads the
sources instead.
"""
from __future__ import annotations

import contextlib
import hashlib
import tokenize
import zipfile
import zlib
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import EngineError

DIGEST_KEY = "sha256"
# a fixed member time, so that the same arrays give the same sidecar bytes
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)
# bytes per read of a member read by rows
_CHUNK = 1 << 18
# what a missing, damaged, truncated, stale or foreign sidecar raises: zipfile raises
# RuntimeError for an encrypted member, and NotImplementedError, a RuntimeError, for
# an unknown compression method; numpy SyntaxError or tokenize.TokenError for an npy
# header that is no Python literal, and MemoryError for one whose shape cannot be
# allocated; a loader's type EngineError for arrays it refuses
SIDECAR_FAULTS = (zipfile.BadZipFile, EOFError, KeyError, MemoryError, OSError, RuntimeError,
                  SyntaxError, tokenize.TokenError, ValueError, zlib.error, EngineError)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


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


def _member(zf: zipfile.ZipFile, key: str):
    """The member of `key`, opened for writing."""
    return zf.open(zipfile.ZipInfo(f"{key}.npy", _ZIP_TIME), "w", force_zip64=True)


def _add(zf: zipfile.ZipFile, key: str, array: np.ndarray) -> None:
    """The member of `key`: the bytes np.lib.format.write_array writes for `array` in
    C order, from the array's own memory: into a zip member, write_array stages the
    data in 16 MiB copies. np.require keeps a 0-d array 0-d, where
    np.ascontiguousarray would not."""
    array = np.require(array, requirements="C")
    with _member(zf, key) as fh:
        np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(array))
        fh.write(memoryview(array))


class Sidecar:
    """The sidecar at `path`, written member by member: `arrays` go in at once, each
    of the (dtype kind, ndim) that `layout` gives for its key; with `key`, write(rows)
    then adds the rows (along its first axis) of that float64 member of `shape` in
    order, as they are made; last, finish(sources) adds the sha256 of each source
    file by key (a CSV's sidecar has the one key DIGEST_KEY) and closes the sidecar.

    The arrays must be what the sources' loader returns; the names in them follow
    tables.check_names. No sidecar is written, and a stale one is removed, where an
    array has another kind or rank: an int beyond int64 is an object, and an empty
    list of names a float. close() removes a sidecar that was not finished, so that
    none is left for sources that failed.
    """

    def __init__(self, path, layout: dict, key=None, shape=(0, 0), **arrays):
        self.path = Path(path)
        self.shape, self.done = tuple(shape), 0
        members = {name: np.asarray(value) for name, value in arrays.items()}
        self.zf = self.fh = None
        if not all(_fits(array, *layout[name]) for name, array in members.items()):
            self.path.unlink(missing_ok=True)
            return
        self.zf = zipfile.ZipFile(self.path, "w", zipfile.ZIP_STORED)
        try:
            for name, array in members.items():
                _add(self.zf, name, array)
            if key is not None:
                self.fh = _member(self.zf, key)
                header = {"descr": "<f8", "fortran_order": False, "shape": self.shape}
                np.lib.format.write_array_header_1_0(self.fh, header)
        except BaseException:
            self.close()
            raise

    def write(self, rows: np.ndarray) -> None:
        """Append rows (r, *shape[1:]) of the member `key`."""
        if self.fh is not None:
            rows = np.require(rows, dtype="<f8", requirements="C")
            self.fh.write(memoryview(rows))
            self.done += len(rows)

    def finish(self, sources: dict) -> None:
        """Add `sources`, once every row is written, and close the sidecar."""
        if self.zf is None:
            return
        if self.done != self.shape[0]:
            raise ValueError(f"{self.done} of {self.shape[0]} rows written to {self.path}")
        if self.fh is not None:
            self.fh.close()
            self.fh = None
        for key, digest in sources.items():
            _add(self.zf, key, np.array(digest))
        self.zf.close()
        self.zf = None

    def close(self) -> None:
        """Remove the sidecar, unless finish() completed it."""
        if self.zf is not None:
            if self.fh is not None:
                self.fh.close()
            self.zf.close()
            self.zf = self.fh = None
            self.path.unlink(missing_ok=True)


def write_sidecar(path, sources: dict, layout: dict, **arrays) -> None:
    """The sidecar at `path` of `arrays` and `sources`, written at once (see Sidecar)."""
    with contextlib.closing(Sidecar(path, layout, **arrays)) as sidecar:
        sidecar.finish(sources)


@contextlib.contextmanager
def open_sidecar(path, sources: dict, names, digests: dict | None = None):
    """The sidecar at `path`, open as a zipfile.ZipFile, once it is found to hold
    exactly the members of `sources` and `names` and to record `sources` (key ->
    sha256 of the source file as it is now). `digests`, if given, receives the
    sidecar's own sha256 under its path once it is opened, whether or not it is
    used. Any fault of the sidecar, here or as its members are read, raises one of
    SIDECAR_FAULTS, and the caller reads the sources."""
    with open(path, "rb") as fh:
        if digests is not None:
            digests[str(path)] = hashlib.file_digest(fh, "sha256").hexdigest()
            fh.seek(0)
        with zipfile.ZipFile(fh) as zf:
            if sorted(zf.namelist()) != sorted(f"{key}.npy" for key in [*sources, *names]):
                raise ValueError(f"{path} holds other members than {[*sources, *names]}")
            for key, digest in sources.items():
                recorded = _read_member(zf, key)
                if not _fits(recorded, "U", 0) or recorded.item() != digest:
                    raise ValueError(f"{path} records another {key} than {digest}")
            yield zf


def read_sidecar(path, sources: dict, layout: dict, digests: dict | None = None) -> dict:
    """The arrays of the sidecar at `path` by key, each of the (dtype kind, ndim)
    that `layout` gives for its key, where open_sidecar(path, sources, layout,
    digests) opens it; otherwise one of SIDECAR_FAULTS."""
    with open_sidecar(path, sources, layout, digests) as zf:
        arrays = {key: _read_member(zf, key) for key in layout}
    if not all(_fits(arrays[key], *layout[key]) for key in layout):
        raise ValueError(f"{path} holds arrays of other types than {layout}")
    return arrays


def _read_member(zf: zipfile.ZipFile, key: str) -> np.ndarray:
    with zf.open(f"{key}.npy") as member:
        return np.lib.format.read_array(member, allow_pickle=False)


def member_rows(zf: zipfile.ZipFile, key: str, block_rows: int):
    """The rows of the 2-D float64 member `key` of the sidecar zf (see open_sidecar),
    in blocks of up to block_rows: a generator that reads each block as it is
    resumed.

    Every block is a view of one buffer, valid until the next block is read, and is
    read into it _CHUNK bytes at a time: one read of a whole block from a zip member
    can copy it, and a new array per block leaves the process's heap grown by two.

    zipfile checks the member's CRC as its last block is read, so rows are only to
    be trusted once the generator is exhausted. Any fault of the sidecar raises one of
    SIDECAR_FAULTS.
    """
    with zf.open(f"{key}.npy") as member:
        if np.lib.format.read_magic(member) != (1, 0):  # the one format Sidecar writes
            raise ValueError(f"{key}.npy is not in npy format 1.0")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
        if dtype != np.dtype("<f8") or fortran_order or len(shape) != 2:
            raise ValueError(f"{key}.npy holds no 2-D C-order float64 rows: {dtype}, {shape}")
        n, m = shape
        buffer = np.empty((min(block_rows, n), m), dtype="<f8")
        for start in range(0, n, block_rows):
            rows = buffer[: min(block_rows, n - start)]
            view = memoryview(rows).cast("B")
            for at in range(0, len(view), _CHUNK):
                data = member.read(min(_CHUNK, len(view) - at))
                view[at : at + _CHUNK] = data  # a short read fails here
            yield rows
        if member.read(1):
            raise ValueError(f"{key}.npy holds more than {n} x {m} values")


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
