"""Bundled example catalog with checksum verification."""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import TYPE_CHECKING

from .seifert import Frozen, SeifertMatrix, StructureError, read_json, setfield

if TYPE_CHECKING:
    from .diagrams import LinkDiagram

DATA_DIR = Path(__file__).resolve().parent / "data"


class CatalogEntry(Frozen):
    __slots__ = ("name", "kind", "file", "sha256", "description")

    def __init__(self, name: str, kind: str, file: str, sha256: str,
                 description: str):
        setfield(self, "name", name)
        setfield(self, "kind", kind)               # "matrix" | "diagram"
        setfield(self, "file", file)
        setfield(self, "sha256", sha256)
        setfield(self, "description", description)


def _manifest() -> dict:
    return read_json((DATA_DIR / "catalog.json").read_text())


def entries() -> list[CatalogEntry]:
    return [CatalogEntry(name=name, **info)
            for name, info in sorted(_manifest().items())]


def _verified(name: str) -> tuple[str, str]:
    """The kind and the checksummed payload of a catalog entry."""
    info = _manifest().get(name)
    if info is None:
        raise StructureError(f"no catalog entry named {name!r}")
    payload = (DATA_DIR / info["file"]).read_text()
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digest != info["sha256"]:
        raise StructureError(f"catalog entry {name!r} fails its checksum")
    return info["kind"], payload


def raw_payload(name: str) -> str:
    return _verified(name)[1]


def load(name: str) -> SeifertMatrix | LinkDiagram:
    kind, payload = _verified(name)
    if kind == "matrix":
        return SeifertMatrix.from_json(payload)
    from .diagrams import LinkDiagram

    return LinkDiagram.from_json(payload)
