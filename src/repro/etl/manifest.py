"""Checksum manifests: the provenance gate every corpus load passes through.

Each corpus directory carries a ``manifest.json`` describing exactly the
bytes the loader is allowed to consume::

    {
      "corpus": "abt-buy",
      "source_url": "https://dbs.uni-leipzig.de/.../Abt-Buy.zip",
      "license": "CC-BY 4.0",
      "variant": "bundled-mini",
      "files": {
        "Abt.csv":  {"sha256": "...", "bytes": 32768},
        "Buy.csv":  {"sha256": "...", "bytes": 31744}
      },
      "normalization": ["strip_accents", "normalize_text", "parse_price_currency"]
    }

:func:`verify_manifest` recomputes every digest and raises
:class:`ManifestError` with a per-file message on any mismatch — a corpus
whose bytes drifted produces an *attributable* error instead of a silently
different benchmark baseline.  ``source_url`` is provenance only: nothing
is fetched, a corpus loads from files on disk.  ``license`` is for the
file's readers; the loader does not parse it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

MANIFEST_FILENAME = "manifest.json"


class ManifestError(ValueError):
    """Raised when a manifest is missing, malformed, or its checksums fail."""


@dataclass(frozen=True)
class FileStamp:
    """Expected identity of one corpus file."""

    sha256: str
    bytes: int


@dataclass(frozen=True)
class Manifest:
    """Parsed ``manifest.json`` of one corpus directory."""

    corpus: str
    files: Dict[str, FileStamp]
    source_url: Optional[str] = None
    variant: Optional[str] = None
    normalization: List[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    """Hex SHA-256 digest of a file, streamed in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_manifest(directory: Path) -> Manifest:
    """Load and validate ``manifest.json`` from a corpus directory."""
    path = Path(directory) / MANIFEST_FILENAME
    if not path.is_file():
        raise ManifestError(f"corpus directory {directory} has no {MANIFEST_FILENAME}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ManifestError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(payload, dict) or "files" not in payload or "corpus" not in payload:
        raise ManifestError(f"{path} must be an object with 'corpus' and 'files' keys")
    files: Dict[str, FileStamp] = {}
    for name, stamp in payload["files"].items():
        if "sha256" not in stamp or "bytes" not in stamp:
            raise ManifestError(f"{path}: file entry {name!r} needs 'sha256' and 'bytes'")
        files[name] = FileStamp(sha256=str(stamp["sha256"]), bytes=int(stamp["bytes"]))
    return Manifest(
        corpus=str(payload["corpus"]),
        files=files,
        source_url=payload.get("source_url"),
        variant=payload.get("variant"),
        normalization=list(payload.get("normalization", [])),
    )


def verify_manifest(directory: Path) -> Manifest:
    """Verify every manifest file's size and SHA-256 digest.

    Returns the directory's manifest on success; raises
    :class:`ManifestError` naming every failing file, its expected and
    actual digest, so the error pinpoints *which* corpus bytes drifted.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    problems: List[str] = []
    for name, stamp in manifest.files.items():
        path = directory / name
        if not path.is_file():
            problems.append(f"{name}: missing from {directory}")
            continue
        actual_bytes = path.stat().st_size
        if actual_bytes != stamp.bytes:
            problems.append(
                f"{name}: size mismatch (manifest {stamp.bytes} bytes, file {actual_bytes} bytes)"
            )
            continue
        actual = sha256_file(path)
        if actual != stamp.sha256:
            problems.append(
                f"{name}: checksum mismatch (manifest sha256 {stamp.sha256[:16]}…, "
                f"file {actual[:16]}…)"
            )
    if problems:
        raise ManifestError(
            f"corpus {manifest.corpus!r} failed checksum verification:\n  "
            + "\n  ".join(problems)
        )
    return manifest
