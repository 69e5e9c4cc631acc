"""Run manifests: content digests that make batch reruns verifiable."""
from __future__ import annotations

import hashlib
from datetime import datetime, timezone


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, input_paths, config_text: str = "") -> dict:
    """The manifest of one run: its command, input digests and config digest."""
    from . import __version__

    return {
        "command": command,
        "inputs": {str(p): file_digest(p) for p in input_paths},
        "config_digest": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "engine_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
